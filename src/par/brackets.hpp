// Parallel bracket matching (Lemma 5.1(3) of the paper).
//
// Input: a sign array over positions (+1 open, -1 close, 0 absent). Output:
// match[i] = position of i's partner, or -1. Semantics are stack matching —
// every close pairs with the nearest unmatched open to its left; brackets
// may remain unmatched (the paper's B(R) sequences rely on this: path-tree
// roots keep unmatched "[", childless slots keep unmatched "(").
//
// Algorithm (O(n/P + log n) steps, O(n + P log P) work, EREW):
//   1. Each of P blocks stack-matches locally; leftovers form one run of
//      closes and one run of opens per block.
//   2. A tournament tree over blocks aggregates (closes, opens) counts;
//      node v with children (l, r) matches k_v = min(opens(l), closes(r))
//      cross pairs, rank-aligned: the j-th surviving close of r (j < k_v)
//      pairs with open number opens(l)-1-j of l.
//   3. Every block receives its root-path tuples (k, sibling counts, slot
//      base) via one "take-last-defined" scan over a level-major matrix —
//      an EREW broadcast.
//   4. Each block walks its path once per side. Surviving close indices
//      transform affinely (j ± const), so the matched set per level is a
//      prefix of the block's close run (a suffix of its open run), and the
//      walk emits (slot = base_v + event_rank) for each matched bracket.
//   5. Slot arrays pair up: slot_close[s] and slot_open[s] are partners.
#pragma once

#include <cstdint>
#include <vector>

#include "par/scan.hpp"

namespace copath::par {

/// Host reference implementation (also used by the sequential pipeline).
inline std::vector<std::int64_t> match_brackets_seq(
    const std::vector<std::int8_t>& sign) {
  std::vector<std::int64_t> match(sign.size(), -1);
  std::vector<std::int64_t> stack;
  for (std::size_t i = 0; i < sign.size(); ++i) {
    if (sign[i] > 0) {
      stack.push_back(static_cast<std::int64_t>(i));
    } else if (sign[i] < 0 && !stack.empty()) {
      match[i] = stack.back();
      match[static_cast<std::size_t>(stack.back())] =
          static_cast<std::int64_t>(i);
      stack.pop_back();
    }
  }
  return match;
}

/// Parallel bracket matcher. `sign` is the input; `match` (same size)
/// receives partner positions or -1.
inline void match_brackets(pram::Machine& m,
                           const pram::Array<std::int8_t>& sign,
                           pram::Array<std::int64_t>& match) {
  const std::size_t n = sign.size();
  COPATH_CHECK(match.size() == n);
  if (n == 0) return;
  const std::size_t blocks = detail::block_count(m, n);
  const std::size_t bsz = detail::ceil_div(n, blocks);

  fill(m, match, std::int64_t{-1});

  // ---- Phase 1: block-local stack matching --------------------------
  pram::Array<std::int64_t> uc_pos(m, n, std::int64_t{-1});  // unmatched closes, segmented
  pram::Array<std::int64_t> uo_pos(m, n, std::int64_t{-1});  // unmatched opens, segmented
  pram::Array<std::int64_t> c_cnt(m, blocks, std::int64_t{0});
  pram::Array<std::int64_t> o_cnt(m, blocks, std::int64_t{0});
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    const std::size_t lo = std::min(n, b * bsz);
    const std::size_t hi = std::min(n, lo + bsz);
    std::vector<std::int64_t> stack;  // processor-local memory
    std::int64_t closes = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int8_t s = sign.get(c, i);
      if (s > 0) {
        stack.push_back(static_cast<std::int64_t>(i));
      } else if (s < 0) {
        if (!stack.empty()) {
          const auto j = static_cast<std::size_t>(stack.back());
          stack.pop_back();
          match.put(c, i, static_cast<std::int64_t>(j));
          match.put(c, j, static_cast<std::int64_t>(i));
        } else {
          uc_pos.put(c, lo + static_cast<std::size_t>(closes),
                     static_cast<std::int64_t>(i));
          ++closes;
        }
      }
    }
    for (std::size_t t = 0; t < stack.size(); ++t)
      uo_pos.put(c, lo + t, stack[t]);
    c_cnt.put(c, b, closes);
    o_cnt.put(c, b, static_cast<std::int64_t>(stack.size()));
    return hi - lo;
  });
  if (blocks == 1) return;  // local matching was global

  // ---- Phase 2: tournament tree of (closes, opens, k) ----------------
  const std::size_t p2 = detail::next_pow2(blocks);
  std::size_t levels = 0;  // log2(p2)
  while ((std::size_t{1} << levels) < p2) ++levels;

  // Level-major layout: level 0 has p2 leaf entries, level v has p2 >> v.
  std::vector<std::size_t> level_off(levels + 2, 0);
  for (std::size_t lv = 0; lv <= levels; ++lv)
    level_off[lv + 1] = level_off[lv] + (p2 >> lv);
  const std::size_t tree_sz = level_off[levels + 1];

  pram::Array<std::int64_t> tc(m, tree_sz, std::int64_t{0});  // closes per node
  pram::Array<std::int64_t> to(m, tree_sz, std::int64_t{0});  // opens per node
  pram::Array<std::int64_t> tk(m, tree_sz, std::int64_t{0});  // k (levels >= 1)
  m.pfor(blocks, [&](pram::Ctx& c, std::size_t b) {
    tc.put(c, b, c_cnt.get(c, b));
    to.put(c, b, o_cnt.get(c, b));
  });
  for (std::size_t lv = 1; lv <= levels; ++lv) {
    m.pfor(p2 >> lv, [&](pram::Ctx& c, std::size_t v) {
      const std::size_t l = level_off[lv - 1] + 2 * v;
      const std::size_t r = l + 1;
      const std::int64_t cl = tc.get(c, l);
      const std::int64_t ol = to.get(c, l);
      const std::int64_t cr = tc.get(c, r);
      const std::int64_t orr = to.get(c, r);
      const std::int64_t k = std::min(ol, cr);
      const std::size_t me = level_off[lv] + v;
      tc.put(c, me, cl + std::max<std::int64_t>(0, cr - ol));
      to.put(c, me, orr + std::max<std::int64_t>(0, ol - cr));
      tk.put(c, me, k);
    });
  }

  // ---- Phase 3: slot bases (exclusive scan of k over all nodes) ------
  pram::Array<std::int64_t> base(m, tree_sz, std::int64_t{0});
  copy(m, tk, base);
  exclusive_scan(m, base);
  const auto total_matched =
      static_cast<std::size_t>(base.host(tree_sz - 1) + tk.host(tree_sz - 1));
  if (total_matched == 0) return;

  // ---- Phase 4: EREW broadcast of root-path tuples -------------------
  struct Tup {
    std::int64_t k = 0;
    std::int64_t base = 0;
    std::int64_t closes_lsib = 0;
    std::int64_t opens_lsib = 0;
    std::int64_t opens_own = 0;
    std::uint8_t is_right = 0;
    std::uint8_t set = 0;
  };
  // Per (level r, node u at level r): the tuple describing u's merge into
  // its parent. Two parity substeps keep parent reads exclusive.
  pram::Array<Tup> tup(m, tree_sz);
  for (const std::size_t parity : {std::size_t{0}, std::size_t{1}}) {
    for (std::size_t r = 0; r < levels; ++r) {
      const std::size_t cnt = (p2 >> r) / 2;
      m.pfor(cnt, [&](pram::Ctx& c, std::size_t half) {
        const std::size_t u_local = 2 * half + parity;
        const std::size_t u = level_off[r] + u_local;
        const std::size_t sib = level_off[r] + (u_local ^ 1);
        const std::size_t par = level_off[r + 1] + u_local / 2;
        Tup t;
        t.k = tk.get(c, par);
        t.base = base.get(c, par);
        t.closes_lsib = tc.get(c, sib);
        t.opens_lsib = to.get(c, sib);
        t.opens_own = to.get(c, u);
        t.is_right = static_cast<std::uint8_t>(u_local & 1);
        t.set = 1;
        tup.put(c, u, t);
      });
    }
  }
  // Level-major matrix M[r][b] = tuple of block b's ancestor at level r;
  // filled by writing each tuple at its segment start and sweeping with a
  // take-last-defined scan (associative; every segment start is defined, so
  // values never leak across segments).
  struct TakeSet {
    static constexpr Tup identity() { return Tup{}; }
    Tup operator()(const Tup& a, const Tup& b) const { return b.set ? b : a; }
  };
  pram::Array<Tup> mat(m, levels * p2);
  m.pfor(levels * p2, [&](pram::Ctx& c, std::size_t pos) {
    const std::size_t r = pos / p2;
    const std::size_t b = pos % p2;
    if ((b & ((std::size_t{1} << r) - 1)) == 0) {
      mat.put(c, pos, tup.get(c, level_off[r] + (b >> r)));
    } else {
      mat.put(c, pos, Tup{});
    }
  });
  inclusive_scan(m, mat, TakeSet{});

  // ---- Phase 5: per-block staircase walks ----------------------------
  pram::Array<std::int64_t> slot_close(m, total_matched, std::int64_t{-1});
  pram::Array<std::int64_t> slot_open(m, total_matched, std::int64_t{-1});
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    std::uint64_t cost = 1;
    // Close side: indices j in [0, a) transform as j -> j + delta; matched
    // sets are prefixes.
    const auto a = static_cast<std::int64_t>(c_cnt.get(c, b));
    std::int64_t delta = 0;
    std::int64_t matched_hi = 0;
    for (std::size_t r = 0; r < levels && matched_hi < a; ++r) {
      const Tup t = mat.get(c, r * p2 + b);
      ++cost;
      if (!t.is_right) continue;
      const std::int64_t thresh = t.k - delta;  // j < thresh matches here
      const std::int64_t new_hi = std::min(a, std::max(matched_hi, thresh));
      for (std::int64_t j = matched_hi; j < new_hi; ++j) {
        const auto slot = static_cast<std::size_t>(t.base + j + delta);
        slot_close.put(c, slot, uc_pos.get(c, b * bsz +
                                                  static_cast<std::size_t>(j)));
        ++cost;
      }
      matched_hi = new_hi;
      delta += t.closes_lsib - t.k;
    }
    // Open side: indices i in [0, o) transform as i -> i + delta_o; matched
    // sets are suffixes.
    const auto o = static_cast<std::int64_t>(o_cnt.get(c, b));
    std::int64_t delta_o = 0;
    std::int64_t matched_lo = o;
    for (std::size_t r = 0; r < levels && matched_lo > 0; ++r) {
      const Tup t = mat.get(c, r * p2 + b);
      ++cost;
      if (t.is_right) {
        delta_o += t.opens_lsib - t.k;
        continue;
      }
      const std::int64_t bound = t.opens_own - t.k - delta_o;
      const std::int64_t new_lo = std::max<std::int64_t>(
          0, std::min(matched_lo, bound));
      for (std::int64_t i = new_lo; i < matched_lo; ++i) {
        const std::int64_t rank = t.opens_own - 1 - (i + delta_o);
        const auto slot = static_cast<std::size_t>(t.base + rank);
        slot_open.put(c, slot, uo_pos.get(c, b * bsz +
                                                 static_cast<std::size_t>(i)));
        ++cost;
      }
      matched_lo = new_lo;
    }
    return cost;
  });

  // ---- Phase 6: pair through the slots --------------------------------
  m.pfor(total_matched, [&](pram::Ctx& c, std::size_t s) {
    const std::int64_t cp = slot_close.get(c, s);
    const std::int64_t op = slot_open.get(c, s);
    if (cp < 0 || op < 0) return;  // unfilled slot (k over-allocated: never
                                   // happens, but stay defensive)
    match.put(c, static_cast<std::size_t>(cp), op);
    match.put(c, static_cast<std::size_t>(op), cp);
  });
}

}  // namespace copath::par
