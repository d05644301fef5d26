#include "core/or_reduction.hpp"

#include <algorithm>

#include "cograph/binarize.hpp"
#include "cograph/cotree.hpp"
#include "core/count.hpp"
#include "pram/array.hpp"

namespace copath::core {

OrReductionResult or_via_path_cover(pram::Machine& m,
                                    const std::vector<std::uint8_t>& bits) {
  const std::size_t n = bits.size();
  OrReductionResult res;

  // O(1)-step construction: every processor writes the kind and parent of
  // its own leaf (parent-pointer representation, exactly as in §2).
  const std::uint64_t steps_before = m.stats().steps;
  constexpr std::int32_t kR = 0;
  constexpr std::int32_t kU = 1;
  const std::size_t nodes = n + 5;  // R, u, x, y, z, a_1..a_n
  // kind: 0 leaf, 1 union, 2 join
  pram::Array<std::uint8_t> kind(m, nodes, std::uint8_t{0});
  pram::Array<std::int32_t> parent(m, nodes, std::int32_t{-1});
  pram::Array<std::uint8_t> bit_arr(m, bits);
  m.pfor(nodes, [&](pram::Ctx& c, std::size_t i) {
    if (i == kR) {
      kind.put(c, i, 1);
      parent.put(c, i, -1);
    } else if (i == kU) {
      kind.put(c, i, 2);
      parent.put(c, i, kR);
    } else if (i == 2) {
      parent.put(c, i, kR);  // x
    } else if (i == 3 || i == 4) {
      parent.put(c, i, kU);  // y, z
    } else {
      parent.put(c, i, bit_arr.get(c, i - 5) ? kU : kR);  // a_i
    }
  });
  res.construction_steps = m.stats().steps - steps_before;

  // Assemble the Cotree object (host representation hand-off) and count.
  std::vector<cograph::NodeKind> kinds(nodes);
  std::vector<cograph::NodeId> parents(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    kinds[i] = kind.host(i) == 0   ? cograph::NodeKind::Leaf
               : kind.host(i) == 1 ? cograph::NodeKind::Union
                                   : cograph::NodeKind::Join;
    parents[i] = parent.host(i);
  }
  const cograph::Cotree t =
      cograph::Cotree::from_parts(std::move(kinds), std::move(parents), kR);

  const std::uint64_t steps_count0 = m.stats().steps;
  auto bc = cograph::binarize(t);
  const auto leaf_count = cograph::make_leftist(bc);
  const auto p = path_counts_pram(m, bc, leaf_count);
  res.count_steps = m.stats().steps - steps_count0;
  res.path_cover_size = p[static_cast<std::size_t>(bc.tree.root)];
  res.or_value =
      res.path_cover_size < static_cast<std::int64_t>(n) + 2;
  return res;
}

OrReductionResult or_via_path_cover(const std::vector<std::uint8_t>& bits,
                                    const OrReductionOptions& opt) {
  pram::Machine m(pram::Machine::Config{opt.policy, opt.processors});
  return or_via_path_cover(m, bits);
}

}  // namespace copath::core
