/// Tests of the associative memory M = {C1, ..., Ck} — hdc::PackedClassMemory,
/// the one class store every model trains and serves on.  Samples are built
/// as dense bipolar vectors and packed (from_bipolar is exact on ±1 data), so
/// the non-quantized scores can be checked against the dense counter cosine
/// (hdc::BundleAccumulator::cosine) bit for bit.

#include "hdc/packed_assoc.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <vector>

#include "support/proptest.hpp"

namespace {

using namespace graphhd::hdc;
namespace proptest = graphhd::proptest;

PackedHypervector packed(const Hypervector& hv) { return PackedHypervector::from_bipolar(hv); }

/// Builds a memory with `per_class` noisy variants of one prototype per
/// class.
PackedClassMemory make_trained_memory(std::size_t dimension, std::size_t classes,
                                      std::size_t per_class, std::uint64_t seed,
                                      std::vector<Hypervector>* prototypes_out = nullptr,
                                      bool quantized = true) {
  Rng rng(seed);
  PackedClassMemory memory(dimension, classes, Similarity::kCosine, quantized);
  std::vector<Hypervector> prototypes;
  for (std::size_t c = 0; c < classes; ++c) {
    prototypes.push_back(Hypervector::random(dimension, rng));
    for (std::size_t s = 0; s < per_class; ++s) {
      memory.add(c, packed(prototypes.back().with_noise(dimension / 10, rng)));
    }
  }
  if (prototypes_out != nullptr) *prototypes_out = std::move(prototypes);
  return memory;
}

TEST(AssociativeMemory, RejectsDegenerateConstruction) {
  EXPECT_THROW(PackedClassMemory(0, 2), std::invalid_argument);
  EXPECT_THROW(PackedClassMemory(64, 0), std::invalid_argument);
  EXPECT_THROW(PackedClassMemory(0, 2, Similarity::kCosine, false), std::invalid_argument);
}

TEST(AssociativeMemory, ClassifiesNoisyPrototypes) {
  for (const bool quantized : {true, false}) {
    std::vector<Hypervector> prototypes;
    auto memory = make_trained_memory(10000, 4, 5, 3, &prototypes, quantized);
    Rng rng(99);
    for (std::size_t c = 0; c < 4; ++c) {
      const auto result = memory.query(packed(prototypes[c].with_noise(2000, rng)));
      EXPECT_EQ(result.best_class, c) << "quantized=" << quantized;
      EXPECT_GT(result.best_similarity, 0.3) << "quantized=" << quantized;
    }
  }
}

TEST(AssociativeMemory, SimilaritiesVectorCoversAllClasses) {
  for (const bool quantized : {true, false}) {
    auto memory = make_trained_memory(1000, 3, 2, 5, nullptr, quantized);
    Rng rng(7);
    const auto result = memory.query(PackedHypervector::random(1000, rng));
    EXPECT_EQ(result.similarities.size(), 3u);
  }
}

TEST(AssociativeMemory, MarginPositiveForCleanQueries) {
  std::vector<Hypervector> prototypes;
  auto memory = make_trained_memory(10000, 2, 3, 11, &prototypes);
  const auto result = memory.query(packed(prototypes[0]));
  EXPECT_EQ(result.best_class, 0u);
  EXPECT_GT(result.margin(), 0.2);
}

TEST(AssociativeMemory, QueryDimensionMismatchThrows) {
  for (const bool quantized : {true, false}) {
    PackedClassMemory memory(64, 2, Similarity::kCosine, quantized);
    Rng rng(13);
    EXPECT_THROW((void)memory.query(PackedHypervector::random(32, rng)), std::invalid_argument);
  }
}

TEST(AssociativeMemory, AddLabelOutOfRangeThrows) {
  PackedClassMemory memory(64, 2);
  Rng rng(17);
  EXPECT_THROW(memory.add(2, PackedHypervector::random(64, rng)), std::out_of_range);
  EXPECT_THROW((void)memory.class_vector(2), std::out_of_range);
  EXPECT_THROW((void)memory.accumulator(2), std::out_of_range);
}

TEST(AssociativeMemory, ClassCountsTrackAdds) {
  auto memory = make_trained_memory(128, 3, 4, 19);
  EXPECT_EQ(memory.class_count(0), 4u);
  EXPECT_EQ(memory.class_count(1), 4u);
  EXPECT_EQ(memory.class_count(2), 4u);
  EXPECT_THROW((void)memory.class_count(3), std::out_of_range);
}

TEST(AssociativeMemory, ClassVectorIsMajorityOfAdds) {
  PackedClassMemory memory(512, 2);
  Rng rng(23);
  const auto a = PackedHypervector::random(512, rng);
  memory.add(0, a);
  // Single sample: the class vector must be the sample itself.
  EXPECT_EQ(memory.class_vector(0), a);
}

TEST(AssociativeMemory, RetrainUpdateMovesDecisionBoundary) {
  // Start with a memory whose class 0 was polluted by class-1-like samples;
  // retraining with the misclassified sample must flip the prediction.
  const std::size_t d = 10000;
  Rng rng(29);
  const auto proto0 = Hypervector::random(d, rng);
  const auto proto1 = Hypervector::random(d, rng);
  PackedClassMemory memory(d, 2, Similarity::kCosine, /*quantized=*/false);
  memory.add(0, packed(proto0));
  memory.add(1, packed(proto1));
  // `sample` is a class-1 item that was wrongly bundled into class 0 thrice.
  const auto sample = packed(proto1.with_noise(d / 20, rng));
  memory.add(0, sample);
  memory.add(0, sample);
  memory.add(0, sample);
  ASSERT_EQ(memory.query(sample).best_class, 0u);
  for (int i = 0; i < 4; ++i) {
    memory.retrain_update(/*true_label=*/1, /*predicted_label=*/0, sample);
  }
  EXPECT_EQ(memory.query(sample).best_class, 1u);
}

TEST(AssociativeMemory, RetrainUpdateNoopWhenLabelsEqual) {
  auto memory = make_trained_memory(256, 2, 2, 31);
  const auto before = memory.class_vector(0);
  Rng rng(37);
  memory.retrain_update(0, 0, PackedHypervector::random(256, rng));
  EXPECT_EQ(memory.class_vector(0), before);
}

TEST(AssociativeMemory, RetrainUpdateValidatesLabels) {
  auto memory = make_trained_memory(64, 2, 1, 41);
  Rng rng(43);
  const auto hv = PackedHypervector::random(64, rng);
  EXPECT_THROW(memory.retrain_update(5, 0, hv), std::out_of_range);
  EXPECT_THROW(memory.retrain_update(0, 5, hv), std::out_of_range);
}

TEST(AssociativeMemory, QuantizedAndCounterModelsAgreeOnEasyQueries) {
  std::vector<Hypervector> prototypes;
  auto quantized = make_trained_memory(10000, 3, 5, 47, &prototypes, /*quantized=*/true);
  auto counters = make_trained_memory(10000, 3, 5, 47, nullptr, /*quantized=*/false);
  Rng rng(53);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto query_hv = prototypes[c].with_noise(1000, rng);
    const auto counter_result = counters.query(packed(query_hv));
    EXPECT_EQ(quantized.query(packed(query_hv)).best_class, counter_result.best_class);
    // The counter scores are the dense counter cosine, bit for bit.
    for (std::size_t slot = 0; slot < 3; ++slot) {
      const auto counts = counters.accumulator(slot).counts();
      const auto dense = BundleAccumulator::from_raw({counts.begin(), counts.end()},
                                                     counters.accumulator(slot).count(),
                                                     counters.accumulator(slot).tie_free());
      EXPECT_EQ(counter_result.similarities[slot], dense.cosine(query_hv));
    }
  }
}

TEST(AssociativeMemory, EmptyClassDoesNotWinAgainstTrainedClass) {
  const std::size_t d = 10000;
  Rng rng(59);
  const auto proto = Hypervector::random(d, rng);
  for (const bool quantized : {true, false}) {
    PackedClassMemory memory(d, 3, Similarity::kCosine, quantized);
    memory.add(1, packed(proto));
    const auto result = memory.query(packed(proto.with_noise(500, rng)));
    EXPECT_EQ(result.best_class, 1u) << "quantized=" << quantized;
    if (!quantized) {
      EXPECT_EQ(result.similarities[0], 0.0);  // all-zero counters score 0.
    }
  }
}

TEST(AssociativeMemory, MetricIsConfigurable) {
  PackedClassMemory memory(128, 2, Similarity::kInverseHamming);
  EXPECT_EQ(memory.metric(), Similarity::kInverseHamming);
  EXPECT_TRUE(memory.quantized());
  Rng rng(61);
  const auto a = PackedHypervector::random(128, rng);
  memory.add(0, a);
  memory.add(1, PackedHypervector::random(128, rng));
  const auto result = memory.query(a);
  EXPECT_EQ(result.best_class, 0u);
  // Inverse-Hamming similarity of identical vectors is exactly 1.
  EXPECT_DOUBLE_EQ(result.best_similarity, 1.0);
}

struct CounterCosineCase {
  std::size_t dimension = 64;
  std::int32_t magnitude = 9;  ///< counters drawn from [-magnitude, magnitude].
  std::uint64_t seed = 0;
};

std::ostream& operator<<(std::ostream& out, const CounterCosineCase& c) {
  return out << "dimension=" << c.dimension << " magnitude=" << c.magnitude
             << " seed=" << c.seed;
}

TEST(CounterCosine, PropertyMatchesDenseCounterCosine) {
  proptest::check<CounterCosineCase>(
      "counter_cosine on packed bits == BundleAccumulator::cosine on bipolar",
      [](Rng& rng, std::size_t index) {
        // Leading cases pin the word-boundary dimensions.
        static constexpr std::size_t kPinned[] = {1, 63, 64, 65, 130, 1000};
        CounterCosineCase c;
        c.dimension = index < std::size(kPinned) ? kPinned[index] : 1 + rng.next_below(3000);
        c.magnitude = static_cast<std::int32_t>(rng.next_below(5000));
        c.seed = rng();
        return c;
      },
      [](const CounterCosineCase& c) {
        std::vector<CounterCosineCase> simpler;
        if (c.dimension > 1) simpler.push_back({c.dimension / 2, c.magnitude, c.seed});
        if (c.magnitude > 1) simpler.push_back({c.dimension, c.magnitude / 2, c.seed});
        return simpler;
      },
      [](const CounterCosineCase& c, std::ostream& diag) {
        diag << c;
        Rng rng(c.seed);
        std::vector<std::int32_t> counts(c.dimension);
        for (auto& count : counts) {
          count = static_cast<std::int32_t>(rng.next_below(2 * c.magnitude + 1)) - c.magnitude;
        }
        const auto query = Hypervector::random(c.dimension, rng);
        const double packed_score =
            counter_cosine(counts, PackedHypervector::from_bipolar(query).words());
        const double dense_score = BundleAccumulator::from_raw(counts, 1, true).cosine(query);
        diag << " packed=" << packed_score << " dense=" << dense_score;
        return packed_score == dense_score;
      });
}

TEST(CounterCosine, ZeroRowScoresZeroAndShortQueriesThrow) {
  Rng rng(67);
  const auto query = PackedHypervector::random(130, rng);
  EXPECT_EQ(counter_cosine(std::vector<std::int32_t>(130, 0), query.words()), 0.0);
  EXPECT_EQ(counter_cosine({}, query.words()), 0.0);
  const auto short_query = PackedHypervector::random(64, rng);
  EXPECT_THROW((void)counter_cosine(std::vector<std::int32_t>(130, 1), short_query.words()),
               std::invalid_argument);
}

TEST(QueryResult, MarginOfSingleClassIsZero) {
  QueryResult result;
  result.similarities = {0.7};
  EXPECT_DOUBLE_EQ(result.margin(), 0.0);
}

TEST(QueryResult, MarginComputesBestMinusSecond) {
  QueryResult result;
  result.similarities = {0.2, 0.9, 0.5};
  EXPECT_NEAR(result.margin(), 0.4, 1e-12);
}

}  // namespace
