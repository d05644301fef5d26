// Theorem 5.3's eight-stage path cover pipeline on the PRAM simulator. See
// core/pipeline.hpp for the stage map.
#include "core/pipeline.hpp"

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "cograph/binarize.hpp"
#include "core/count.hpp"
#include "par/brackets.hpp"
#include "par/euler.hpp"
#include "par/scan.hpp"
#include "pram/array.hpp"

namespace copath::core {

namespace {

using par::BinTree;
using par::EulerNumbers;
using i64 = std::int64_t;
using i32 = std::int32_t;
using u8 = std::uint8_t;

constexpr std::int8_t kSlotP = 0;
constexpr std::int8_t kSlotL = 1;
constexpr std::int8_t kSlotR = 2;

/// Take-last-defined scan payload used by the broadcast steps.
template <typename T>
struct SetCell {
  T value{};
  u8 set = 0;
};
template <typename T>
struct TakeSet {
  static constexpr SetCell<T> identity() { return SetCell<T>{}; }
  SetCell<T> operator()(const SetCell<T>& a, const SetCell<T>& b) const {
    return b.set ? b : a;
  }
};

/// Per-emission-unit description broadcast over bracket positions.
struct UnitInfo {
  i64 start = 0;       // first bracket position of the unit
  i64 rank = 0;        // unit's first leaf rank
  i64 pv = 0, lw = 0;  // 1-node parameters (bundles only)
  i64 nb = 0, ni = 0, nd = 0;
  i64 dummy_base = 0;
  i32 owner = -1;      // owning binarized 1-node (bundles only)
  u8 is_bundle = 0;
};

/// Owner-region description broadcast over leaf ranks / dummy ids.
struct OwnerInfo {
  i32 owner = -1;
  i64 rank_start = 0;
  i64 nb = 0;  // bridge count (== lw for Case 1, which has no inserts)
  i64 lw = 0;
  i64 dummy_base = 0;
};

/// Element payload for the skipped-neighbour scans during repair.
struct NeighborInfo {
  i32 id = -1;      // -1 = path boundary (virtual separator)
  i32 owner = -1;
  u8 is_insert = 0;
  u8 is_bridge = 0;
};

}  // namespace

PathCover min_path_cover_pram(pram::Machine& m, const cograph::Cotree& t,
                              const PipelineOptions& opt,
                              PipelineTrace* trace,
                              util::CancelToken* cancel) {
  const std::size_t n = t.vertex_count();
  COPATH_CHECK(n > 0);
  if (n == 1) {
    if (trace != nullptr) {
      *trace = PipelineTrace{};
      trace->path_count = 1;
    }
    return PathCover{{{0}}};
  }

  // Stage accounting: record (steps, work) deltas when tracing. Stage
  // boundaries double as cancellation checkpoints: a tripped token unwinds
  // the solve within one stage (CancelledError), and every poll stamps the
  // token's heartbeat for the Service watchdog.
  const auto checkpoint = [cancel] {
    if (cancel != nullptr) cancel->checkpoint();
  };
  std::uint64_t stage_steps = m.stats().steps;
  std::uint64_t stage_work = m.stats().work;
  const auto mark_stage = [&](const char* name) {
    checkpoint();
    if (trace == nullptr) return;
    trace->stages.emplace_back(name, m.stats().steps - stage_steps,
                               m.stats().work - stage_work);
    stage_steps = m.stats().steps;
    stage_work = m.stats().work;
  };

  // ---- Step 1 (load): binarize --------------------------------------
  auto bc = cograph::binarize(t);
  const std::size_t bn = bc.size();

  // ---- Step 2: L(u) via Euler tour, then the leftist reorder ---------
  const EulerNumbers pre_nums =
      par::euler_numbers(m, bc.tree, opt.rank_engine);
  {
    pram::Array<i32> lchild(m, bc.tree.left);
    pram::Array<i32> rchild(m, bc.tree.right);
    pram::Array<i64> leaves_in(m, pre_nums.leaves);
    m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
      const i32 l = lchild.get(c, v);
      if (l == par::kNull) return;
      const i32 r = rchild.get(c, v);
      if (leaves_in.get(c, static_cast<std::size_t>(l)) <
          leaves_in.get(c, static_cast<std::size_t>(r))) {
        lchild.put(c, v, r);
        rchild.put(c, v, l);
      }
    });
    for (std::size_t v = 0; v < bn; ++v) {
      bc.tree.left[v] = lchild.host(v);
      bc.tree.right[v] = rchild.host(v);
    }
  }
  checkpoint();  // step 2 is the longest stage: poll between its two tours
  const EulerNumbers nums = par::euler_numbers(m, bc.tree, opt.rank_engine);
  const i64 tour_len = nums.tour_length;
  mark_stage("step2: L(u) + leftist (Euler x2)");

  // ---- Step 3: p(u) by tree contraction (Lemma 2.4) ------------------
  const std::vector<i64> p = path_counts_pram(m, bc, nums.leaves);
  mark_stage("step3: p(u) by tree contraction");

  // Cut-depth: a node is below a flattened (right-of-1-node) edge iff its
  // cut depth is positive; skeleton 1-nodes have cut depth 0.
  std::vector<i64> cutdepth(bn, 0);
  {
    pram::Array<i64> delta(m, static_cast<std::size_t>(tour_len), 0);
    pram::Array<u8> is_join(m, bc.is_join);
    pram::Array<i32> rchild(m, bc.tree.right);
    pram::Array<i64> dpos(m, nums.down_pos);
    pram::Array<i64> upos(m, nums.up_pos);
    m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
      if (!is_join.get(c, v)) return;
      const i32 rc = rchild.get(c, v);
      if (rc == par::kNull) return;
      delta.put(c, static_cast<std::size_t>(
                       dpos.get(c, static_cast<std::size_t>(rc))),
                1);
      delta.put(c, static_cast<std::size_t>(
                       upos.get(c, static_cast<std::size_t>(rc))),
                -1);
    });
    par::inclusive_scan(m, delta);
    pram::Array<i64> cd(m, bn, 0);
    m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
      const i64 dp = dpos.get(c, v);
      if (dp < 0) return;  // root
      cd.put(c, v, delta.get(c, static_cast<std::size_t>(dp)));
    });
    for (std::size_t v = 0; v < bn; ++v) cutdepth[v] = cd.host(v);
  }

  // ---- Step 4: bracket sequence -------------------------------------
  // Per-skeleton-1-node parameters and dummy bases.
  pram::Array<i64> nd(m, bn, 0);  // dummies per node
  std::size_t dummy_total = 0;
  {
    pram::Array<u8> is_join(m, bc.is_join);
    pram::Array<i32> lchild(m, bc.tree.left);
    pram::Array<i32> rchild(m, bc.tree.right);
    pram::Array<i64> p_arr(m, p);
    pram::Array<i64> cut_arr(m, cutdepth);
    pram::Array<i64> leaves_arr(m, nums.leaves);
    m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
      const i32 lc = lchild.get(c, v);
      if (lc == par::kNull || !is_join.get(c, v) || cut_arr.get(c, v) != 0)
        return;
      const i64 pv = p_arr.get(c, static_cast<std::size_t>(lc));
      const i64 lw = leaves_arr.get(
          c, static_cast<std::size_t>(rchild.get(c, v)));
      if (pv <= lw) nd.put(c, v, 2 * pv - 2);
    });
  }
  pram::Array<i64> dummy_base(m, bn, 0);
  par::copy(m, nd, dummy_base);
  par::exclusive_scan(m, dummy_base);
  dummy_total =
      static_cast<std::size_t>(dummy_base.host(bn - 1) + nd.host(bn - 1));
  const std::size_t ids = n + dummy_total;

  // Rank-space arrays.
  pram::Array<i32> vertex_by_rank(m, n, -1);
  pram::Array<i64> weight(m, n, 0);
  pram::Array<SetCell<OwnerInfo>> rank_owner(m, n);
  {
    pram::Array<u8> is_join(m, bc.is_join);
    pram::Array<i32> lchild(m, bc.tree.left);
    pram::Array<i32> rchild(m, bc.tree.right);
    pram::Array<i32> vert(m, bc.vertex);
    pram::Array<i64> p_arr(m, p);
    pram::Array<i64> cut_arr(m, cutdepth);
    pram::Array<i64> leaves_arr(m, nums.leaves);
    pram::Array<i64> leafnum(m, nums.leafnum);
    pram::Array<i64> firstleaf(m, nums.first_leaf);
    // Leaves scatter their vertex; primary leaves carry weight 3.
    m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
      if (lchild.get(c, v) != par::kNull) return;
      const auto rank = static_cast<std::size_t>(leafnum.get(c, v));
      vertex_by_rank.put(c, rank, vert.get(c, v));
      if (cut_arr.get(c, v) == 0) weight.put(c, rank, 3);
    });
    // Skeleton 1-nodes scatter their bundle at the range start.
    m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
      const i32 lc = lchild.get(c, v);
      if (lc == par::kNull || !is_join.get(c, v) || cut_arr.get(c, v) != 0)
        return;
      const i32 rc = rchild.get(c, v);
      const i64 pv = p_arr.get(c, static_cast<std::size_t>(lc));
      const i64 lw = leaves_arr.get(c, static_cast<std::size_t>(rc));
      const i64 bridges = pv > lw ? lw : pv - 1;
      const i64 inserts = pv > lw ? 0 : lw - pv + 1;
      const i64 dums = pv > lw ? 0 : 2 * pv - 2;
      const auto start = static_cast<std::size_t>(
          firstleaf.get(c, static_cast<std::size_t>(rc)));
      weight.put(c, start, 3 * bridges + 3 * inserts + 2 * dums);
      rank_owner.put(c, start,
                     SetCell<OwnerInfo>{
                         OwnerInfo{static_cast<i32>(v), static_cast<i64>(start),
                                   bridges, lw, dummy_base.get(c, v)},
                         1});
    });
  }
  par::inclusive_scan(m, rank_owner, TakeSet<OwnerInfo>{});

  pram::Array<i64> offset(m, n, 0);
  par::copy(m, weight, offset);
  par::exclusive_scan(m, offset);
  const auto total =
      static_cast<std::size_t>(offset.host(n - 1) + weight.host(n - 1));

  // Roles and owners per id (ids < n are leaf ranks, >= n are dummies).
  pram::Array<u8> role(m, ids, 0);  // 0 primary, 1 bridge, 2 insert, 3 dummy
  pram::Array<i32> owner(m, ids, -1);
  {
    pram::Array<i64> cut_by_rank(m, n, 0);
    {
      pram::Array<i32> lchild(m, bc.tree.left);
      pram::Array<i64> cut_arr(m, cutdepth);
      pram::Array<i64> leafnum(m, nums.leafnum);
      m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
        if (lchild.get(c, v) != par::kNull) return;
        cut_by_rank.put(c, static_cast<std::size_t>(leafnum.get(c, v)),
                        cut_arr.get(c, v));
      });
    }
    m.pfor(n, [&](pram::Ctx& c, std::size_t r) {
      if (cut_by_rank.get(c, r) == 0) return;  // primary
      const OwnerInfo oi = rank_owner.get(c, r).value;
      owner.put(c, r, oi.owner);
      role.put(c, r,
               static_cast<i64>(r) - oi.rank_start < oi.nb ? u8{1} : u8{2});
    });
    // Dummy owners via broadcast over dummy-id space.
    if (dummy_total > 0) {
      pram::Array<SetCell<i32>> dspace(m, dummy_total);
      {
        pram::Array<i64> nd_copy(m, bn, 0);
        par::copy(m, nd, nd_copy);
        m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
          if (nd_copy.get(c, v) == 0) return;
          dspace.put(c, static_cast<std::size_t>(dummy_base.get(c, v)),
                     SetCell<i32>{static_cast<i32>(v), 1});
        });
      }
      par::inclusive_scan(m, dspace, TakeSet<i32>{});
      m.pfor(dummy_total, [&](pram::Ctx& c, std::size_t d) {
        owner.put(c, n + d, dspace.get(c, d).value);
        role.put(c, n + d, 3);
      });
    }
  }

  // Fill the bracket arrays.
  pram::Array<std::int8_t> sq_sign(m, total, 0);
  pram::Array<std::int8_t> rd_sign(m, total, 0);
  pram::Array<std::int8_t> slot(m, total, 0);
  pram::Array<i64> vrank(m, total, -1);
  {
    pram::Array<SetCell<UnitInfo>> posinfo(m, total);
    {
      pram::Array<u8> is_join(m, bc.is_join);
      pram::Array<i32> lchild(m, bc.tree.left);
      pram::Array<i32> rchild(m, bc.tree.right);
      pram::Array<i64> p_arr(m, p);
      pram::Array<i64> cut_arr(m, cutdepth);
      pram::Array<i64> leaves_arr(m, nums.leaves);
      pram::Array<i64> leafnum(m, nums.leafnum);
      pram::Array<i64> firstleaf(m, nums.first_leaf);
      m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
        const i32 lc = lchild.get(c, v);
        if (lc == par::kNull) {
          // Leaf: primary units only.
          if (cut_arr.get(c, v) != 0) return;
          const auto rank = static_cast<std::size_t>(leafnum.get(c, v));
          UnitInfo ui;
          ui.start = offset.get(c, rank);
          ui.rank = static_cast<i64>(rank);
          posinfo.put(c, static_cast<std::size_t>(ui.start),
                      SetCell<UnitInfo>{ui, 1});
          return;
        }
        if (!is_join.get(c, v) || cut_arr.get(c, v) != 0) return;
        const i32 rc = rchild.get(c, v);
        UnitInfo ui;
        ui.pv = p_arr.get(c, static_cast<std::size_t>(lc));
        ui.lw = leaves_arr.get(c, static_cast<std::size_t>(rc));
        ui.nb = ui.pv > ui.lw ? ui.lw : ui.pv - 1;
        ui.ni = ui.pv > ui.lw ? 0 : ui.lw - ui.pv + 1;
        ui.nd = ui.pv > ui.lw ? 0 : 2 * ui.pv - 2;
        ui.rank = firstleaf.get(c, static_cast<std::size_t>(rc));
        ui.start = offset.get(c, static_cast<std::size_t>(ui.rank));
        ui.dummy_base = dummy_base.get(c, v);
        ui.owner = static_cast<i32>(v);
        ui.is_bundle = 1;
        posinfo.put(c, static_cast<std::size_t>(ui.start),
                    SetCell<UnitInfo>{ui, 1});
      });
    }
    par::inclusive_scan(m, posinfo, TakeSet<UnitInfo>{});
    m.pfor(total, [&](pram::Ctx& c, std::size_t pos) {
      const UnitInfo ui = posinfo.get(c, pos).value;
      const i64 q = static_cast<i64>(pos) - ui.start;
      if (!ui.is_bundle) {
        if (q == 0) {
          sq_sign.put(c, pos, +1);
          slot.put(c, pos, kSlotP);
        } else {
          rd_sign.put(c, pos, +1);
          slot.put(c, pos, q == 1 ? kSlotL : kSlotR);
        }
        vrank.put(c, pos, ui.rank);
        return;
      }
      if (q < 3 * ui.nb) {
        const i64 i = q / 3;
        const i64 sub = q % 3;
        if (sub == 2) {
          sq_sign.put(c, pos, +1);
          slot.put(c, pos, kSlotP);
        } else {
          sq_sign.put(c, pos, -1);
          slot.put(c, pos, sub == 0 ? kSlotR : kSlotL);
        }
        vrank.put(c, pos, ui.rank + i);
        return;
      }
      i64 q2 = q - 3 * ui.nb;
      if (q2 < ui.ni) {  // insert parent slots
        rd_sign.put(c, pos, -1);
        slot.put(c, pos, kSlotP);
        vrank.put(c, pos, ui.rank + ui.nb + q2);
        return;
      }
      q2 -= ui.ni;
      if (q2 < ui.nd) {  // dummy parent slots
        rd_sign.put(c, pos, -1);
        slot.put(c, pos, kSlotP);
        vrank.put(c, pos, static_cast<i64>(n) + ui.dummy_base + q2);
        return;
      }
      q2 -= ui.nd;
      if (q2 < ui.nd) {  // dummy right-child slots
        rd_sign.put(c, pos, +1);
        slot.put(c, pos, kSlotR);
        vrank.put(c, pos, static_cast<i64>(n) + ui.dummy_base + q2);
        return;
      }
      q2 -= ui.nd;  // insert child slots (l, r interleaved)
      rd_sign.put(c, pos, +1);
      slot.put(c, pos, q2 % 2 == 0 ? kSlotL : kSlotR);
      vrank.put(c, pos, ui.rank + ui.nb + q2 / 2);
    });
  }

  mark_stage("step4: bracket generation");

  // ---- Step 5: match the two bracket systems -------------------------
  pram::Array<i64> sq_match(m, total, -1);
  pram::Array<i64> rd_match(m, total, -1);
  par::match_brackets(m, sq_sign, sq_match);
  par::match_brackets(m, rd_sign, rd_match);

  mark_stage("step5: bracket matching");

  // Build the pseudo path forest (over rank/dummy ids).
  pram::Array<i32> parent(m, ids, -1);
  pram::Array<u8> side(m, ids, 0);
  pram::Array<i32> lkid(m, ids, -1);
  pram::Array<i32> rkid(m, ids, -1);
  const auto set_child = [&](pram::Ctx& c, i32 par, u8 s, i32 child) {
    if (s == 0) {
      lkid.put(c, static_cast<std::size_t>(par), child);
    } else {
      rkid.put(c, static_cast<std::size_t>(par), child);
    }
  };
  m.pfor(total, [&](pram::Ctx& c, std::size_t pos) {
    // Handle each matched pair at its *open* bracket so every cell has one
    // reader.
    if (sq_sign.get(c, pos) > 0) {
      const i64 j = sq_match.get(c, pos);
      if (j < 0) return;
      const auto ju = static_cast<std::size_t>(j);
      const auto child = static_cast<i32>(vrank.get(c, pos));
      const auto par = static_cast<i32>(vrank.get(c, ju));
      const u8 s = slot.get(c, ju) == kSlotL ? 0 : 1;
      parent.put(c, static_cast<std::size_t>(child), par);
      side.put(c, static_cast<std::size_t>(child), s);
      set_child(c, par, s, child);
      return;
    }
    if (rd_sign.get(c, pos) > 0) {
      const i64 j = rd_match.get(c, pos);
      if (j < 0) return;
      const auto ju = static_cast<std::size_t>(j);
      const auto par = static_cast<i32>(vrank.get(c, pos));
      const auto child = static_cast<i32>(vrank.get(c, ju));
      const u8 s = slot.get(c, pos) == kSlotL ? 0 : 1;
      parent.put(c, static_cast<std::size_t>(child), par);
      side.put(c, static_cast<std::size_t>(child), s);
      set_child(c, par, s, child);
    }
  });
  // Path-tree roots: unmatched square-open parent slots, in bracket order.
  pram::Array<u8> is_root_pos(m, total, 0);
  m.pfor(total, [&](pram::Ctx& c, std::size_t pos) {
    if (sq_sign.get(c, pos) > 0 && sq_match.get(c, pos) < 0)
      is_root_pos.put(c, pos, 1);
  });
  pram::Array<i64> root_pos(m, total, -1);
  const std::size_t k_roots = par::compact_indices(m, is_root_pos, root_pos);
  pram::Array<i32> roots(m, k_roots, -1);
  m.pfor(k_roots, [&](pram::Ctx& c, std::size_t j) {
    roots.put(c, j,
              static_cast<i32>(vrank.get(
                  c, static_cast<std::size_t>(root_pos.get(c, j)))));
  });
  mark_stage("step5b: forest construction");

  // ---- Step 6: repair -------------------------------------------------
  // Forest + separator chain, inorder by Euler tour, dummy-skipped
  // neighbour scans, per-owner rank pairing.
  const std::size_t chain_base = ids;
  const std::size_t fsize = ids + k_roots;
  const auto build_host_tree = [&](bool include_dummies) {
    const std::size_t lim = include_dummies ? ids : n;
    BinTree ft = BinTree::with_size((include_dummies ? ids : n) + k_roots);
    const std::size_t cb = lim;
    for (std::size_t v = 0; v < lim; ++v) {
      ft.parent[v] = parent.host(v);
      ft.left[v] = lkid.host(v);
      ft.right[v] = rkid.host(v);
    }
    for (std::size_t j = 0; j < k_roots; ++j) {
      const auto cv = static_cast<i32>(cb + j);
      const i32 r = roots.host(j);
      ft.left[static_cast<std::size_t>(cv)] = r;
      ft.parent[static_cast<std::size_t>(r)] = cv;
      if (j + 1 < k_roots) {
        ft.right[static_cast<std::size_t>(cv)] = cv + 1;
        ft.parent[static_cast<std::size_t>(cv) + 1] = cv;
      }
    }
    ft.root = static_cast<i32>(cb);
    return ft;
  };

  std::size_t rounds = 0;
  while (true) {
    // One checkpoint per repair round: the round count is data-dependent,
    // so a cancelled solve must not be able to hide inside the loop.
    checkpoint();
    const BinTree ft = build_host_tree(true);
    const EulerNumbers fn = par::euler_numbers(m, ft, opt.rank_engine);
    pram::Array<i32> seq(m, fsize, -1);
    {
      pram::Array<i64> in_arr(m, fn.in);
      m.pfor(fsize, [&](pram::Ctx& c, std::size_t v) {
        seq.put(c, static_cast<std::size_t>(in_arr.get(c, v)),
                static_cast<i32>(v));
      });
    }
    // Neighbour info per position; separators reset, dummies propagate.
    pram::Array<SetCell<NeighborInfo>> fwd(m, fsize);
    m.pfor(fsize, [&](pram::Ctx& c, std::size_t i) {
      const i32 e = seq.get(c, i);
      const auto eu = static_cast<std::size_t>(e);
      SetCell<NeighborInfo> cell;
      if (eu >= chain_base) {  // separator
        cell = SetCell<NeighborInfo>{NeighborInfo{}, 1};
      } else if (eu >= n) {  // dummy: transparent
        cell.set = 0;
      } else {
        cell = SetCell<NeighborInfo>{
            NeighborInfo{e, owner.get(c, eu), role.get(c, eu) == 2,
                         role.get(c, eu) == 1},
            1};
      }
      fwd.put(c, i, cell);
    });
    pram::Array<SetCell<NeighborInfo>> bwd(m, fsize);
    m.pfor(fsize, [&](pram::Ctx& c, std::size_t i) {
      bwd.put(c, i, fwd.get(c, fsize - 1 - i));
    });
    par::inclusive_scan(m, fwd, TakeSet<NeighborInfo>{});
    par::inclusive_scan(m, bwd, TakeSet<NeighborInfo>{});

    pram::Array<u8> illegal(m, ids, 0);
    pram::Array<u8> legal_dummy(m, ids, 0);
    pram::Array<i64> illegal_count(m, fsize, 0);
    m.pfor(fsize, [&](pram::Ctx& c, std::size_t i) {
      const i32 e = seq.get(c, i);
      const auto eu = static_cast<std::size_t>(e);
      if (eu >= chain_base) return;
      const i32 own = owner.get(c, eu);
      if (own == -1) return;
      const NeighborInfo pn =
          i > 0 ? fwd.get(c, i - 1).value : NeighborInfo{};
      const NeighborInfo nx =
          i + 1 < fsize ? bwd.get(c, fsize - 2 - i).value : NeighborInfo{};
      const bool clash = (pn.id != -1 && pn.owner == own) ||
                         (nx.id != -1 && nx.owner == own);
      const u8 rl = role.get(c, eu);
      if (rl == 2) {  // insert
        if (clash) {
          illegal.put(c, eu, 1);
          illegal_count.put(c, i, 1);
        }
      } else if (rl == 3) {  // dummy
        if (!clash) legal_dummy.put(c, eu, 1);
      }
    });
    const i64 bad = par::reduce(m, illegal_count);
    if (bad == 0) break;
    COPATH_CHECK_MSG(rounds < opt.max_repair_rounds,
                     "PRAM repair failed to converge (" << bad
                                                        << " illegal)");
    ++rounds;

    // Within-owner indices by prefix sums over rank / dummy-id space.
    pram::Array<i64> ill_prefix(m, n, 0);
    m.pfor(n, [&](pram::Ctx& c, std::size_t r) {
      ill_prefix.put(c, r, illegal.get(c, r) != 0 ? 1 : 0);
    });
    par::exclusive_scan(m, ill_prefix);
    // Broadcast the prefix value at each owner's insert-range start.
    pram::Array<SetCell<i64>> ill_base(m, n);
    m.pfor(n, [&](pram::Ctx& c, std::size_t r) {
      const OwnerInfo oi = rank_owner.get(c, r).value;
      // Only Case-2 owners (nb < lw) have an insert range to anchor.
      const bool start = oi.owner != -1 && oi.nb < oi.lw &&
                         static_cast<i64>(r) == oi.rank_start + oi.nb;
      ill_base.put(c, r,
                   start ? SetCell<i64>{ill_prefix.get(c, r), 1}
                         : SetCell<i64>{});
    });
    par::inclusive_scan(m, ill_base, TakeSet<i64>{});

    COPATH_CHECK(dummy_total > 0);  // illegal inserts imply Case-2 dummies
    pram::Array<i64> dum_prefix(m, dummy_total, 0);
    m.pfor(dummy_total, [&](pram::Ctx& c, std::size_t d) {
      dum_prefix.put(c, d, legal_dummy.get(c, n + d) != 0 ? 1 : 0);
    });
    par::exclusive_scan(m, dum_prefix);
    // Broadcast (prefix value at base, base index) across each owner's
    // dummy-id segment.
    struct DumBase {
      i64 prefix_at_base = 0;
      i64 base = 0;
    };
    pram::Array<SetCell<DumBase>> dum_base(m, dummy_total);
    {
      pram::Array<i64> nd_copy(m, bn, 0);
      par::copy(m, nd, nd_copy);
      m.pfor(bn, [&](pram::Ctx& c, std::size_t v) {
        if (nd_copy.get(c, v) == 0) return;
        const auto base = static_cast<std::size_t>(dummy_base.get(c, v));
        dum_base.put(
            c, base,
            SetCell<DumBase>{
                DumBase{dum_prefix.get(c, base), static_cast<i64>(base)}, 1});
      });
    }
    par::inclusive_scan(m, dum_base, TakeSet<DumBase>{});

    // k-th illegal insert announces itself in the owner's pair slots…
    pram::Array<i32> pair_slot(m, dummy_total, -1);
    m.pfor(n, [&](pram::Ctx& c, std::size_t r) {
      if (illegal.get(c, r) == 0) return;
      const OwnerInfo oi = rank_owner.get(c, r).value;
      const i64 kth = ill_prefix.get(c, r) - ill_base.get(c, r).value;
      pair_slot.put(c, static_cast<std::size_t>(oi.dummy_base + kth),
                    static_cast<i32>(r));
    });
    // …and the k-th legal dummy picks it up and swaps tree positions
    // (subtrees travel with their nodes — children point at ids).
    m.pfor(dummy_total, [&](pram::Ctx& c, std::size_t d) {
      if (legal_dummy.get(c, n + d) == 0) return;
      const DumBase db = dum_base.get(c, d).value;
      const i64 kth = dum_prefix.get(c, d) - db.prefix_at_base;
      const i32 x = pair_slot.get(c, static_cast<std::size_t>(db.base + kth));
      if (x < 0) return;  // more legal dummies than illegal inserts
      const auto xu = static_cast<std::size_t>(x);
      const auto du = n + d;
      const i32 px = parent.get(c, xu);
      const u8 sx = side.get(c, xu);
      const i32 pd = parent.get(c, du);
      const u8 sd = side.get(c, du);
      parent.put(c, xu, pd);
      side.put(c, xu, sd);
      parent.put(c, du, px);
      side.put(c, du, sx);
      set_child(c, pd, sd, x);
      set_child(c, px, sx, static_cast<i32>(du));
    });
  }

  mark_stage("step6: illegal-insert repair");

  // ---- Step 7: bypass dummies (pointer jumping along dummy chains) ----
  if (dummy_total > 0) {
    // anc/aside: for every node, the first non-dummy strict ancestor and
    // the child-slot of the topmost dummy on the way (or of itself).
    pram::Array<i32> anc(m, ids, -1);
    pram::Array<u8> aside(m, ids, 0);
    par::copy(m, parent, anc);
    par::copy(m, side, aside);
    pram::Array<i32> anc_copy(m, ids, -1);
    pram::Array<u8> aside_copy(m, ids, 0);
    std::size_t jump_rounds = 1;
    for (std::size_t v = 1; v < dummy_total + 2; v <<= 1) ++jump_rounds;
    for (std::size_t rd = 0; rd < jump_rounds; ++rd) {
      par::copy(m, anc, anc_copy);
      par::copy(m, aside, aside_copy);
      m.pfor(ids, [&](pram::Ctx& c, std::size_t v) {
        const i32 a = anc.get(c, v);
        if (a < 0 || static_cast<std::size_t>(a) < n) return;  // resolved
        // a is a dummy; its cells are read only by its unique child (and
        // itself via the copies), so this is exclusive.
        anc.put(c, v, anc_copy.get(c, static_cast<std::size_t>(a)));
        aside.put(c, v, aside_copy.get(c, static_cast<std::size_t>(a)));
      });
    }
    // Reattach the non-dummy nodes; rebuild child pointers from scratch.
    m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
      parent.put(c, v, anc.get(c, v));
      side.put(c, v, aside.get(c, v));
      lkid.put(c, v, -1);
      rkid.put(c, v, -1);
    });
    m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
      const i32 q = parent.get(c, v);
      if (q < 0) return;
      COPATH_CHECK(static_cast<std::size_t>(q) < n);
      set_child(c, q, side.get(c, v), static_cast<i32>(v));
    });
  }

  mark_stage("step7: dummy bypass");

  // ---- Step 8: report the paths ---------------------------------------
  PathCover cover;
  {
    const BinTree ft = build_host_tree(false);
    const EulerNumbers fn = par::euler_numbers(m, ft, opt.rank_engine);
    const std::size_t esize = n + k_roots;
    pram::Array<i32> seq(m, esize, -1);
    {
      pram::Array<i64> in_arr(m, fn.in);
      m.pfor(esize, [&](pram::Ctx& c, std::size_t v) {
        seq.put(c, static_cast<std::size_t>(in_arr.get(c, v)),
                static_cast<i32>(v));
      });
    }
    // Translate ranks to vertices in one exclusive gather.
    pram::Array<i32> out_vertex(m, esize, -1);
    m.pfor(esize, [&](pram::Ctx& c, std::size_t i) {
      const i32 e = seq.get(c, i);
      if (static_cast<std::size_t>(e) >= n) return;  // separator
      out_vertex.put(c, i,
                     vertex_by_rank.get(c, static_cast<std::size_t>(e)));
    });
    // Host assembly (output formatting).
    cover.paths.reserve(k_roots);
    std::vector<VertexId> cur;
    for (std::size_t i = 0; i < esize; ++i) {
      const i32 v = out_vertex.host(i);
      if (v < 0) {
        COPATH_CHECK_MSG(!cur.empty(), "empty path in PRAM pipeline output");
        cover.paths.push_back(std::move(cur));
        cur.clear();
      } else {
        cur.push_back(v);
      }
    }
    COPATH_CHECK(cur.empty());
  }
  mark_stage("step8: path extraction");
  if (trace != nullptr) {
    trace->bracket_length = total;
    trace->dummy_count = dummy_total;
    trace->repair_rounds = rounds;
    trace->path_count = cover.paths.size();
  }
  return cover;
}

// min_path_cover_parallel is defined in copath_solver.cpp as a thin
// compatibility wrapper over the Solver facade (Backend::Parallel).

}  // namespace copath::core
