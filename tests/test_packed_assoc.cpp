/// Tests of hdc::PackedClassMemory against the dense oracle
/// (tests/support/dense_oracle.hpp): trained side by side on the same
/// samples, the packed store must produce bit-identical similarity doubles
/// (not just the same argmax) under every metric, in both scoring modes.
/// The PackedAssociativeMemory suite covers the store in its deployment
/// role — a frozen packed associative memory queried with XOR + popcount.

#include "hdc/packed_assoc.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "support/dense_oracle.hpp"

namespace {

using namespace graphhd::hdc;
using graphhd::oracle::DenseClassMemory;

/// Trains a dense oracle memory and a packed memory on the same stream:
/// `per_class` noisy variants of one random prototype per class.
std::pair<DenseClassMemory, PackedClassMemory> twin_memories(
    std::size_t dimension, std::size_t classes, std::uint64_t seed,
    Similarity metric = Similarity::kCosine, bool quantized = true, int per_class = 4,
    std::vector<Hypervector>* prototypes_out = nullptr) {
  Rng rng(seed);
  DenseClassMemory dense(dimension, classes, metric, quantized);
  PackedClassMemory packed(dimension, classes, metric, quantized);
  std::vector<Hypervector> prototypes;
  for (std::size_t c = 0; c < classes; ++c) {
    prototypes.push_back(Hypervector::random(dimension, rng));
    for (int s = 0; s < per_class; ++s) {  // even count: exercises the tie stream.
      const auto hv = prototypes.back().with_noise(dimension / 4, rng);
      dense.add(c, hv);
      packed.add(c, PackedHypervector::from_bipolar(hv));
    }
  }
  if (prototypes_out != nullptr) *prototypes_out = std::move(prototypes);
  return {std::move(dense), std::move(packed)};
}

/// Exact double equality of every score — the packed scorer reproduces the
/// dense arithmetic, it does not approximate it.
void expect_same_result(const QueryResult& packed, const QueryResult& dense) {
  EXPECT_EQ(packed.best_class, dense.best_class);
  EXPECT_EQ(packed.best_similarity, dense.best_similarity);
  EXPECT_EQ(packed.similarities, dense.similarities);
}

TEST(PackedAssociativeMemory, AgreesWithBipolarMemoryOnArgmax) {
  std::vector<Hypervector> prototypes;
  const auto [dense, packed] =
      twin_memories(4096, 4, 3, Similarity::kCosine, true, 3, &prototypes);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto query = prototypes[trial % 4].with_noise(800, rng);
    EXPECT_EQ(packed.query(PackedHypervector::from_bipolar(query)).best_class,
              dense.query(query).best_class)
        << "trial " << trial;
  }
}

TEST(PackedAssociativeMemory, SimilaritiesEqualBipolarCosine) {
  const auto [dense, packed] = twin_memories(2048, 3, 5);
  Rng rng(11);
  const auto query = Hypervector::random(2048, rng);
  expect_same_result(packed.query(PackedHypervector::from_bipolar(query)), dense.query(query));
}

TEST(PackedAssociativeMemory, QueryValidatesDimension) {
  const auto [dense, packed] = twin_memories(256, 2, 13);
  Rng rng(17);
  EXPECT_THROW((void)packed.query(PackedHypervector::random(128, rng)),
               std::invalid_argument);
}

TEST(PackedAssociativeMemory, ClassVectorsMatchSource) {
  const auto [dense, packed] = twin_memories(512, 2, 19);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(packed.class_vector(c).to_bipolar(), dense.class_vector(c));
  }
  EXPECT_THROW((void)packed.class_vector(2), std::out_of_range);
}

TEST(PackedAssociativeMemory, SnapshotIsFrozen) {
  auto [dense, memory] = twin_memories(1024, 2, 23);
  const PackedClassMemory deployed = memory;  // the shipped copy.
  const auto before = deployed.class_vector(0);
  // Keep training the source; the deployed copy must not change.
  Rng rng(29);
  for (int i = 0; i < 8; ++i) memory.add(0, PackedHypervector::random(1024, rng));
  EXPECT_EQ(deployed.class_vector(0), before);
  EXPECT_NE(memory.class_vector(0), before);
}

TEST(PackedAssociativeMemory, FootprintIsBitsNotBytes) {
  const auto [dense, packed] = twin_memories(10000, 6, 31);
  // 6 classes x ceil(10000/8) = 7500 bytes — the deployable-model size the
  // paper's IoT argument relies on.
  EXPECT_EQ(packed.footprint_bytes(), 6u * 1250u);
}

class PackedClassMemoryMetric : public ::testing::TestWithParam<Similarity> {};

TEST_P(PackedClassMemoryMetric, SimilaritiesBitIdenticalToDense) {
  // Quantized scoring under the parameter metric, plus the counter model
  // (the metric does not apply to it) on the same samples.
  for (const bool quantized : {true, false}) {
    const auto [dense, packed] = twin_memories(1030, 3, 83, GetParam(), quantized);
    Rng rng(89);
    for (int trial = 0; trial < 10; ++trial) {
      SCOPED_TRACE(::testing::Message() << "quantized=" << quantized << " trial " << trial);
      const auto query = Hypervector::random(1030, rng);
      expect_same_result(packed.query(PackedHypervector::from_bipolar(query)),
                         dense.query(query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, PackedClassMemoryMetric,
                         ::testing::Values(Similarity::kCosine, Similarity::kInverseHamming,
                                           Similarity::kDot));

TEST(PackedClassMemory, ClassVectorsAreExactPackingsOfDense) {
  auto [dense, packed] = twin_memories(700, 2, 97, Similarity::kCosine);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(packed.class_vector(c).to_bipolar(), dense.class_vector(c));
  }
}

TEST(PackedClassMemory, RetrainUpdateTracksDense) {
  for (const bool quantized : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "quantized=" << quantized);
    auto [dense, packed] = twin_memories(512, 2, 101, Similarity::kCosine, quantized);
    Rng rng(103);
    const auto sample = Hypervector::random(512, rng);
    const auto packed_sample = PackedHypervector::from_bipolar(sample);
    dense.retrain_update(0, 1, sample);
    packed.retrain_update(0, 1, packed_sample);
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(packed.class_vector(c).to_bipolar(), dense.class_vector(c));
    }
    expect_same_result(packed.query(packed_sample), dense.query(sample));
    // Self-update is a no-op on both sides.
    dense.retrain_update(1, 1, sample);
    packed.retrain_update(1, 1, packed_sample);
    EXPECT_EQ(packed.class_vector(1).to_bipolar(), dense.class_vector(1));
    expect_same_result(packed.query(packed_sample), dense.query(sample));
  }
}

TEST(PackedClassMemory, RestoreRebuildsClassVectors) {
  auto [dense, packed] = twin_memories(256, 2, 107, Similarity::kCosine);
  PackedClassMemory restored(256, 2);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& acc = packed.accumulator(c);
    restored.restore(c,
                     PackedBundleAccumulator::from_raw(
                         std::vector<std::int32_t>(acc.counts().begin(), acc.counts().end()),
                         acc.count(), acc.tie_free()),
                     packed.class_count(c));
    EXPECT_EQ(restored.class_count(c), packed.class_count(c));
  }
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(restored.class_vector(c), packed.class_vector(c));
  }
}

TEST(PackedClassMemory, ValidatesArguments) {
  EXPECT_THROW(PackedClassMemory(0, 2), std::invalid_argument);
  EXPECT_THROW(PackedClassMemory(64, 0), std::invalid_argument);
  PackedClassMemory memory(64, 2);
  Rng rng(109);
  const auto hv = PackedHypervector::random(64, rng);
  const auto wrong = PackedHypervector::random(32, rng);
  EXPECT_THROW(memory.add(2, hv), std::out_of_range);
  EXPECT_THROW(memory.add(0, wrong), std::invalid_argument);
  EXPECT_THROW((void)memory.query(wrong), std::invalid_argument);
  EXPECT_THROW((void)memory.class_count(5), std::out_of_range);
  EXPECT_THROW((void)memory.accumulator(5), std::out_of_range);
  EXPECT_THROW(memory.retrain_update(0, 7, hv), std::out_of_range);
  EXPECT_THROW(memory.retrain_update(7, 0, hv), std::out_of_range);
  EXPECT_THROW(memory.restore(0, PackedBundleAccumulator(32), 1), std::invalid_argument);
  EXPECT_THROW(memory.restore(2, PackedBundleAccumulator(64), 1), std::out_of_range);
  EXPECT_THROW((void)memory.class_vector(2), std::out_of_range);
  // merge requires the same layout: dimension, slot count, metric and
  // scoring mode.
  EXPECT_THROW(memory.merge(PackedClassMemory(32, 2)), std::invalid_argument);
  EXPECT_THROW(memory.merge(PackedClassMemory(64, 3)), std::invalid_argument);
  EXPECT_THROW(memory.merge(PackedClassMemory(64, 2, Similarity::kDot)), std::invalid_argument);
  EXPECT_THROW(memory.merge(PackedClassMemory(64, 2, Similarity::kCosine, false)),
               std::invalid_argument);
}

TEST(PackedClassMemory, FootprintMatchesSnapshot) {
  PackedClassMemory memory(10000, 4);
  EXPECT_EQ(memory.footprint_bytes(), 4u * 1250u);
}

TEST(PackedClassMemory, CopiesAndMovesQueryIdentically) {
  // The batched-query row-pointer table must survive copy (rebuilt against
  // the copy's own class vectors) and move (buffers keep their addresses) —
  // queries on any fully-finalized memory are pure reads.
  Rng rng(211);
  PackedClassMemory memory(257, 3);
  for (std::size_t i = 0; i < 9; ++i) {
    memory.add(i % 3, PackedHypervector::random(257, rng));
  }
  const auto query = PackedHypervector::random(257, rng);
  memory.finalize();
  const auto reference = memory.query(query);

  PackedClassMemory copied = memory;  // clean (finalized) copy
  EXPECT_EQ(copied.query(query).similarities, reference.similarities);
  PackedClassMemory assigned(257, 3);
  assigned = memory;
  EXPECT_EQ(assigned.query(query).similarities, reference.similarities);
  PackedClassMemory moved = std::move(copied);
  EXPECT_EQ(moved.query(query).similarities, reference.similarities);

  // Dirty copy: accumulate, copy before finalize, then query both.
  memory.add(1, PackedHypervector::random(257, rng));
  PackedClassMemory dirty_copy = memory;
  EXPECT_EQ(dirty_copy.query(query).similarities, memory.query(query).similarities);
}

TEST(PackedAssociativeMemory, CopiesQueryIdentically) {
  // Both scoring modes: the counter model reads the copied accumulators.
  for (const bool quantized : {true, false}) {
    Rng rng(223);
    PackedClassMemory memory(129, 2, Similarity::kCosine, quantized);
    for (std::size_t i = 0; i < 6; ++i) {
      memory.add(i % 2, PackedHypervector::random(129, rng));
    }
    const auto query = PackedHypervector::random(129, rng);
    const auto reference = memory.query(query);
    const PackedClassMemory copied = memory;
    EXPECT_EQ(copied.query(query).similarities, reference.similarities);
    PackedClassMemory assigned(129, 2, Similarity::kCosine, quantized);
    assigned = memory;
    EXPECT_EQ(assigned.query(query).similarities, reference.similarities);
  }
}

}  // namespace
