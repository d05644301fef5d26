// Small integer helpers shared by the parallel primitives and host code.
//
// These used to be copy-pasted per header (par/scan.hpp, par/brackets.hpp);
// they live here so every layer agrees on the same rounding conventions.
#pragma once

#include <cstddef>
#include <cstdint>

namespace copath::util {

/// Order-sensitive 64-bit hash combiner (splitmix-style finalization).
/// Shared by the cotree canonicalizer and the result cache so the cache's
/// extended keys stay in the same hash family as the canonical hashes they
/// refine.
[[nodiscard]] inline constexpr std::uint64_t hash_mix(std::uint64_t h,
                                                      std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4));
  x *= 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 29);
}

/// ceil(a / b) for b > 0.
[[nodiscard]] inline constexpr std::size_t ceil_div(std::size_t a,
                                                    std::size_t b) {
  return (a + b - 1) / b;
}

/// Smallest power of two >= v (next_pow2(0) == 1).
[[nodiscard]] inline constexpr std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// floor(log2(max(2, n))) with a floor of 1 — the "log n" of the paper's
/// n / log n processor budget.
[[nodiscard]] inline constexpr std::size_t floor_log2(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t{1} << (l + 1)) <= (n < 2 ? 2 : n)) ++l;
  return l == 0 ? 1 : l;
}

}  // namespace copath::util
