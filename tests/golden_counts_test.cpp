// Theorem 5.3's numbers, pinned: the PRAM step, work, processor, read and
// write counts of min_path_cover_pram and of the Theorem 2.2 OR reduction,
// compared row by row against tests/golden/pram_counts.txt.
//
// The simulator's claims are counts, not wall time, so any change to par/,
// core/pipeline.cpp or pram/ that moves a constant shows up here as a named
// row. Each pipeline row also carries a 64-bit FNV-1a hash of the
// PipelineTrace::stages list (name, steps, work per stage), so a shift of
// cost between stages is caught even when the totals agree.
//
// Rows:
//   pram/<engine>/n<N>   random_cotree(N, N), paper budget N / log2 N;
//                        checked EREW for N <= 2^12, Policy::Unchecked at
//                        2^14 (reads and writes are 0 there by definition)
//   or/<kind>/n<N>       or_via_path_cover on all-zero and one-hot bits,
//                        checked EREW, one processor per element
//
// Regenerate after an intended change to the counts, from the build
// directory, with
//   COPATH_GOLDEN_OUT=../tests/golden/pram_counts.txt ./golden_counts_test
// and say in the change why the constants moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/backend.hpp"
#include "core/or_reduction.hpp"
#include "core/pipeline.hpp"
#include "testing.hpp"

#ifndef COPATH_TEST_DIR
#error "COPATH_TEST_DIR must name the tests/ source directory"
#endif

namespace copath::core {
namespace {

struct Row {
  std::string name;
  std::uint64_t steps = 0;
  std::uint64_t work = 0;
  std::uint64_t max_processors = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stage_hash = 0;
  std::string stage_list;  // human-readable; actual rows only

  [[nodiscard]] std::string line() const {
    std::ostringstream os;
    os << name << ' ' << steps << ' ' << work << ' ' << max_processors << ' '
       << reads << ' ' << writes << ' ' << std::hex << stage_hash;
    return os.str();
  }
  [[nodiscard]] bool same_counts(const Row& o) const {
    return name == o.name && steps == o.steps && work == o.work &&
           max_processors == o.max_processors && reads == o.reads &&
           writes == o.writes && stage_hash == o.stage_hash;
  }
};

class Fnv1a {
 public:
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    byte(0);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Sets Config's fields by name, not by position, so no change to the
/// struct's layout can silently change what this table measures.
pram::Machine::Config machine_cfg(pram::Policy policy, std::size_t procs) {
  pram::Machine::Config cfg;
  cfg.policy = policy;
  cfg.processors = procs;
  return cfg;
}

void take_stats(Row& row, const pram::Stats& s) {
  row.steps = s.steps;
  row.work = s.work;
  row.max_processors = s.max_processors;
  row.reads = s.reads;
  row.writes = s.writes;
}

Row pipeline_row(par::RankEngine engine, std::size_t n) {
  const cograph::Cotree t = testing::random_cotree(n, n);
  const pram::Policy policy =
      n <= (std::size_t{1} << 12) ? pram::Policy::EREW : pram::Policy::Unchecked;
  pram::Machine m(machine_cfg(policy, paper_processors(n)));
  PipelineOptions opt;
  opt.rank_engine = engine;
  PipelineTrace trace;
  (void)min_path_cover_pram(m, t, opt, &trace);

  Row row;
  row.name = std::string("pram/") +
             (engine == par::RankEngine::Contract ? "contract" : "wyllie") +
             "/n" + std::to_string(n);
  take_stats(row, m.stats());
  Fnv1a h;
  std::ostringstream list;
  for (const auto& [stage, steps, work] : trace.stages) {
    h.add(stage);
    h.add(steps);
    h.add(work);
    list << "    " << stage << " steps=" << steps << " work=" << work << '\n';
  }
  row.stage_hash = h.value();
  row.stage_list = list.str();
  return row;
}

Row or_row(bool one_hot, std::size_t n) {
  std::vector<std::uint8_t> bits(n, 0);
  if (one_hot) bits[n / 2] = 1;
  pram::Machine m(machine_cfg(pram::Policy::EREW, 0));
  const OrReductionResult res = or_via_path_cover(m, bits);
  EXPECT_EQ(res.or_value, one_hot) << "n=" << n;

  Row row;
  row.name = std::string("or/") + (one_hot ? "onehot" : "zero") + "/n" +
             std::to_string(n);
  take_stats(row, m.stats());
  Fnv1a h;
  h.add("construction");
  h.add(res.construction_steps);
  h.add("count");
  h.add(res.count_steps);
  row.stage_hash = h.value();
  row.stage_list = "    construction steps=" +
                   std::to_string(res.construction_steps) +
                   "\n    count steps=" + std::to_string(res.count_steps) +
                   "\n";
  return row;
}

std::vector<Row> actual_rows() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (const std::size_t logn : {8u, 10u, 12u, 14u}) {
    sizes.push_back(std::size_t{1} << logn);
  }
  std::vector<Row> rows;
  for (const par::RankEngine engine :
       {par::RankEngine::Contract, par::RankEngine::Wyllie}) {
    for (const std::size_t n : sizes) rows.push_back(pipeline_row(engine, n));
  }
  for (const bool one_hot : {false, true}) {
    for (const std::size_t n : {1u, 2u, 3u, 8u, 64u, 1024u}) {
      rows.push_back(or_row(one_hot, n));
    }
  }
  return rows;
}

std::vector<Row> golden_rows(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<Row> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    Row r;
    is >> r.name >> r.steps >> r.work >> r.max_processors >> r.reads >>
        r.writes >> std::hex >> r.stage_hash;
    EXPECT_FALSE(is.fail()) << "malformed golden row: " << line;
    rows.push_back(std::move(r));
  }
  return rows;
}

TEST(GoldenPramCounts, PipelineAndOrReductionMatchTheCommittedTable) {
  const std::vector<Row> got = actual_rows();
  if (const char* out = std::getenv("COPATH_GOLDEN_OUT")) {
    std::ofstream os(out);
    os << "# name steps work max_processors reads writes stage_hash(hex)\n"
          "# Generated by golden_counts_test; see its header comment.\n";
    for (const Row& r : got) os << r.line() << '\n';
    ASSERT_TRUE(os.good()) << "cannot write " << out;
  }

  const std::vector<Row> want =
      golden_rows(std::string(COPATH_TEST_DIR) + "/golden/pram_counts.txt");
  ASSERT_EQ(want.size(), got.size()) << "golden table row count";
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].same_counts(want[i]))
        << "first differing row " << i << "\n  want: " << want[i].line()
        << "\n  got:  " << got[i].line() << "\n  got stages:\n"
        << got[i].stage_list;
  }
}

}  // namespace
}  // namespace copath::core
