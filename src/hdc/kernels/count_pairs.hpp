/// \file count_pairs.hpp
/// Internal: the count_bound_pairs kernel body, shared by every variant.
///
/// Each variant instantiates it with its own lane type from its own
/// translation unit (so with its own ISA flags); a lane supplies load/store,
/// XOR, AND, the carry-save adder and a non-zero test over `kWords` packed
/// words.

#pragma once

#include <cstddef>
#include <cstdint>

#include "hdc/kernels/kernels.hpp"

namespace graphhd::hdc::kernels::detail {

template <class Lane>
void count_bound_pairs(const std::uint64_t* table, std::size_t num_vectors, std::size_t blocks,
                       const std::uint32_t* u, const std::uint32_t* v, std::size_t num_pairs,
                       std::uint64_t* planes, std::size_t num_planes) {
  using V = typename Lane::V;
  static_assert(kBlockWords % Lane::kWords == 0);
  // Adds `carry` into the ripple counter whose digit k is digits[k].
  const auto ripple = [](V* digits, V carry) {
    for (std::size_t k = 0; Lane::any(carry); ++k) {
      const V next = Lane::and_(digits[k], carry);
      digits[k] = Lane::xor_(digits[k], carry);
      carry = next;
    }
  };
  // Digit k is reached only by counts >= 2^k, so num_planes digits suffice.
  const std::size_t digit_count = num_planes < 4 ? 4 : num_planes;
  const std::size_t plane_words = blocks * kBlockWords;
  V digits[64];
  for (std::size_t block = 0; block < blocks; ++block) {
    // One block of every vector is num_vectors * 64 bytes, contiguous, so it
    // stays cache-resident while all pairs stream past it.
    const std::uint64_t* slice = table + block * num_vectors * kBlockWords;
    for (std::size_t word = 0; word < kBlockWords; word += Lane::kWords) {
      const auto bound = [&](std::size_t j) {
        return Lane::xor_(Lane::load(slice + u[j] * kBlockWords + word),
                          Lane::load(slice + v[j] * kBlockWords + word));
      };
      for (std::size_t k = 0; k < digit_count; ++k) digits[k] = Lane::zero();
      // Harley-Seal: a carry-save tree over blocks of 16 pairs keeps the
      // weight-1/2/4/8 digits in registers; each block's weight-16 carry
      // ripples into the higher digits.  The digits are exactly the count's
      // binary planes.
      V ones = Lane::zero(), twos = ones, fours = ones, eights = ones;
      std::size_t j = 0;
      for (; j + 16 <= num_pairs; j += 16) {
        V twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
        Lane::csa(twos_a, ones, ones, bound(j), bound(j + 1));
        Lane::csa(twos_b, ones, ones, bound(j + 2), bound(j + 3));
        Lane::csa(fours_a, twos, twos, twos_a, twos_b);
        Lane::csa(twos_a, ones, ones, bound(j + 4), bound(j + 5));
        Lane::csa(twos_b, ones, ones, bound(j + 6), bound(j + 7));
        Lane::csa(fours_b, twos, twos, twos_a, twos_b);
        Lane::csa(eights_a, fours, fours, fours_a, fours_b);
        Lane::csa(twos_a, ones, ones, bound(j + 8), bound(j + 9));
        Lane::csa(twos_b, ones, ones, bound(j + 10), bound(j + 11));
        Lane::csa(fours_a, twos, twos, twos_a, twos_b);
        Lane::csa(twos_a, ones, ones, bound(j + 12), bound(j + 13));
        Lane::csa(twos_b, ones, ones, bound(j + 14), bound(j + 15));
        Lane::csa(fours_b, twos, twos, twos_a, twos_b);
        Lane::csa(eights_b, fours, fours, fours_a, fours_b);
        Lane::csa(sixteens, eights, eights, eights_a, eights_b);
        ripple(digits + 4, sixteens);
      }
      digits[0] = ones;
      digits[1] = twos;
      digits[2] = fours;
      digits[3] = eights;
      for (; j < num_pairs; ++j) ripple(digits, bound(j));
      for (std::size_t k = 0; k < num_planes; ++k) {
        Lane::store(planes + k * plane_words + block * kBlockWords + word, digits[k]);
      }
    }
  }
}

}  // namespace graphhd::hdc::kernels::detail
