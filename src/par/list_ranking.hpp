// Parallel list ranking (Lemma 5.1(1) of the paper).
//
// Input: a successor array describing a forest of disjoint singly linked
// lists (next[i] == kNull marks a tail). Output: rank[i] = number of links
// from i to the tail of its list (tail has rank 0).
//
// Both implementations are PRAM programs; an EREW pram::Machine proves
// they keep the exclusive-access contract.
//
//  * list_rank_wyllie — classic pointer jumping. O(log n) rounds; each round
//    costs O(n/P) steps and O(n) work, so the total is O(n log n) work. Made
//    EREW-safe by double-buffering each round (the naive formulation
//    rank[i] += rank[next[i]] has two readers per cell).
//
//  * list_rank_contract — randomized independent-set contraction
//    (Miller/Reif style): repeatedly splice out a non-adjacent set of
//    elements chosen by per-round coin flips, then reinsert in reverse order.
//    The live set shrinks geometrically in expectation, giving O(n) expected
//    work and O(log n) w.h.p. steps with P = n / log n processors — the
//    work-optimal bound the paper's Lemma 5.1 requires (the deterministic
//    literature versions, Cole–Vishkin / Anderson–Miller, achieve the same
//    bound; see DESIGN.md for the substitution note).
#pragma once

#include <cstdint>
#include <vector>

#include "par/bintree.hpp"
#include "par/scan.hpp"
#include "util/rng.hpp"

namespace copath::par {

/// Pointer-jumping ranking. `next` is left untouched.
inline void list_rank_wyllie(pram::Machine& m,
                             const pram::Array<NodeId>& next,
                             pram::Array<std::int64_t>& rank) {
  const std::size_t n = next.size();
  COPATH_CHECK(rank.size() == n);
  if (n == 0) return;

  pram::Array<NodeId> succ(m, n);
  pram::Array<NodeId> succ_copy(m, n);
  pram::Array<std::int64_t> rank_copy(m, n);

  m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
    const NodeId nx = next.get(c, i);
    succ.put(c, i, nx);
    rank.put(c, i, nx == kNull ? 0 : 1);
  });

  // ceil(log2 n) jumping rounds suffice.
  std::size_t rounds = 0;
  for (std::size_t v = 1; v < n; v <<= 1) ++rounds;
  for (std::size_t r = 0; r < rounds; ++r) {
    // Substep 1: snapshot (EREW: cell i read only by processor i).
    m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
      succ_copy.put(c, i, succ.get(c, i));
      rank_copy.put(c, i, rank.get(c, i));
    });
    // Substep 2: jump. Processor i reads copies at position succ[i]; succ is
    // injective over non-null entries, so each cell has at most one reader.
    m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
      const NodeId s = succ.get(c, i);
      if (s == kNull) return;
      const std::size_t si = static_cast<std::size_t>(s);
      rank.put(c, i, rank.get(c, i) + rank_copy.get(c, si));
      succ.put(c, i, succ_copy.get(c, si));
    });
  }
}

/// Randomized contraction ranking; expected O(n) work. `next` untouched.
inline void list_rank_contract(pram::Machine& m,
                               const pram::Array<NodeId>& next,
                               pram::Array<std::int64_t>& rank,
                               std::uint64_t seed = 0x11572ea7u) {
  const std::size_t n = next.size();
  COPATH_CHECK(rank.size() == n);
  if (n == 0) return;

  pram::Array<NodeId> succ(m, n);   // live successor
  pram::Array<NodeId> pred(m, n);   // live predecessor
  // weight of the live link i -> succ[i]
  pram::Array<std::int64_t> ew(m, n);
  pram::Array<std::uint8_t> removed_now(m, n, std::uint8_t{0});
  pram::Array<NodeId> live(m, n);
  pram::Array<NodeId> live_next(m, n);
  // Removal log: per removed node, the successor and link weight at removal
  // time; per round, the segment of `order` holding that round's removals.
  pram::Array<NodeId> rem_succ(m, n, kNull);
  pram::Array<std::int64_t> rem_weight(m, n, std::int64_t{0});
  pram::Array<NodeId> order(m, n);
  std::vector<std::size_t> round_offset;  // host bookkeeping

  m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
    succ.put(c, i, next.get(c, i));
    ew.put(c, i, 1);
    pred.put(c, i, kNull);
    live.put(c, i, static_cast<NodeId>(i));
  });
  // pred via scatter (succ injective -> exclusive writes).
  m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
    const NodeId s = succ.get(c, i);
    if (s != kNull) pred.put(c, static_cast<std::size_t>(s),
                             static_cast<NodeId>(i));
  });

  // The only elements that can never be spliced out are list tails, so the
  // loop runs until exactly the tails survive.
  std::size_t tails = 0;
  {
    pram::Array<std::int64_t> is_tail(m, n);
    m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
      is_tail.put(c, i, next.get(c, i) == kNull ? 1 : 0);
    });
    tails = static_cast<std::size_t>(reduce(m, is_tail));
  }

  std::size_t live_count = n;
  std::size_t removed_total = 0;
  round_offset.push_back(0);
  std::uint64_t round = 0;
  // Coins are a stateless hash of (seed, round, node): no coin arrays, no
  // copy substeps, and neighbours' coins are recomputable without reads.
  const auto coin = [seed](std::uint64_t rd, NodeId i) {
    std::uint64_t h = seed ^ (rd * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(i) << 1);
    return (util::splitmix64(h) & 1u) != 0;
  };

  while (live_count > tails) {
    ++round;
    // Select: i leaves iff coin(i) is heads, its predecessor's coin (if
    // any) is tails, and i is not its list's tail — no two adjacent nodes
    // are ever selected together.
    m.pfor(live_count, [&](pram::Ctx& c, std::size_t j) {
      const std::size_t i = static_cast<std::size_t>(live.get(c, j));
      const NodeId p = pred.get(c, i);
      const bool sel =
          succ.get(c, i) != kNull && coin(round, static_cast<NodeId>(i)) &&
          (p == kNull || !coin(round, p));
      removed_now.put(c, i, sel ? 1 : 0);
    });
    // Splice the selected nodes out and log them. Neighbours of a selected
    // node are unselected, so every touched cell has one owner.
    m.pfor(live_count, [&](pram::Ctx& c, std::size_t j) {
      const std::size_t i = static_cast<std::size_t>(live.get(c, j));
      if (removed_now.get(c, i) == 0) return;
      const NodeId s = succ.get(c, i);
      const NodeId p = pred.get(c, i);
      const std::int64_t w = ew.get(c, i);
      rem_succ.put(c, i, s);
      rem_weight.put(c, i, w);
      // Reconnect neighbours. s is never selected (coin rule), p is never
      // selected (coin rule), so these writes are exclusive.
      if (p != kNull) {
        succ.put(c, static_cast<std::size_t>(p), s);
        ew.put(c, static_cast<std::size_t>(p),
               ew.get(c, static_cast<std::size_t>(p)) + w);
      }
      pred.put(c, static_cast<std::size_t>(s), p);
    });
    // Compact: removed nodes into `order`, survivors into live_next.
    pram::Array<std::int64_t> mark(m, live_count);
    m.pfor(live_count, [&](pram::Ctx& c, std::size_t j) {
      const std::size_t i = static_cast<std::size_t>(live.get(c, j));
      mark.put(c, j, removed_now.get(c, i) != 0 ? 1 : 0);
    });
    pram::Array<std::int64_t> removed_pos(m, live_count);
    copy(m, mark, removed_pos);
    exclusive_scan(m, removed_pos);
    const std::size_t removed_count =
        static_cast<std::size_t>(removed_pos.host(live_count - 1)) +
        (mark.host(live_count - 1) != 0 ? 1u : 0u);
    m.pfor(live_count, [&](pram::Ctx& c, std::size_t j) {
      const NodeId i = live.get(c, j);
      if (mark.get(c, j) != 0) {
        order.put(c,
                  removed_total +
                      static_cast<std::size_t>(removed_pos.get(c, j)),
                  i);
      } else {
        // Survivor index = j - removed_before(j).
        live_next.put(c,
                      j - static_cast<std::size_t>(removed_pos.get(c, j)),
                      i);
      }
    });
    removed_total += removed_count;
    live_count -= removed_count;
    round_offset.push_back(removed_total);
    m.pfor(live_count, [&](pram::Ctx& c, std::size_t j) {
      live.put(c, j, live_next.get(c, j));
    });
    COPATH_CHECK_MSG(round < 64 * 8,
                     "list_rank_contract failed to converge");
  }

  // Base ranks for the surviving elements (all tails).
  m.pfor(live_count, [&](pram::Ctx& c, std::size_t j) {
    rank.put(c, static_cast<std::size_t>(live.get(c, j)), 0);
  });
  // Reinsert in reverse round order.
  for (std::size_t r = round_offset.size() - 1; r-- > 0;) {
    const std::size_t lo = round_offset[r];
    const std::size_t hi = round_offset[r + 1];
    m.pfor(hi - lo, [&](pram::Ctx& c, std::size_t k) {
      const std::size_t i =
          static_cast<std::size_t>(order.get(c, lo + k));
      const std::size_t s = static_cast<std::size_t>(rem_succ.get(c, i));
      rank.put(c, i, rem_weight.get(c, i) + rank.get(c, s));
    });
  }
}

}  // namespace copath::par
