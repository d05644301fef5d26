// perfbench — one run of one workload against a fresh copathd.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tmp DIR] [--spans FILE] [--copathd PATH]
//
// --trace 0 (end-to-end): pre-warm 3 to 7 fresh daemons (set-up time is
// the median), then on the last one run the nominal window, and print the
// end-to-end metrics.
// --trace 1 (per-layer): an untraced nominal window on one fresh daemon,
// the same stream again on a second with Health probes and Stats polls,
// then the in-process layer replay; print the per-layer metrics.
//
// The last stdout line is the result object; lines before it carry the
// stream hash and the daemon's flags for the run's metadata. Exits 1
// without a result when anything is wrong with the run itself (daemon
// failed to start or exit cleanly, the generator fell behind its
// schedule, a pre-warm answer failed).
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "daemon.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kConnections = 4;
/// Set-ups per run: at least kMinSetups, more while they add up to less
/// than kSetupBudgetS, at most kMaxSetups; setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 7;
constexpr double kSetupBudgetS = 1.0;

const std::vector<std::string> kDaemonFlags = {"--workers", "2"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp = ".bench_build/tmp";
  std::string spans;
  std::string copathd = PERFBENCH_COPATHD;
};

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tmp DIR] [--spans FILE] [--copathd PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--tmp") {
      a.tmp = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--copathd") {
      a.copathd = v;
    } else {
      usage();
    }
  }
  if (a.workload.empty() || a.seconds <= 0) usage();
  return a;
}

[[noreturn]] void invalid(const std::string& why) {
  throw std::runtime_error(why);
}

/// Lag past which the generator no longer offers the scheduled load: the
/// window is invalid rather than reported.
double lag_limit_ms(const Spec& spec) {
  return std::max(5.0, spec.slo_ms / 2);
}

double tail_of(const WindowResult& r, double want_q) {
  return quantile(r.latency_ms, supported_tail(r.sent, {want_q, 0.75}));
}

struct Validation {
  std::size_t checked = 0;
  std::size_t bad = 0;
  std::string first;
};

void validate(const Stream& s, const WindowResult& r, Validation& v) {
  for (const auto& [idx, payload] : r.samples) {
    std::string why;
    ++v.checked;
    if (!validate_sample(s.for_arrival(idx).frame, payload, &why)) {
      ++v.bad;
      if (v.first.empty()) v.first = why;
    }
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e18;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Spawns a daemon, connects, pre-warms; returns spawn-to-warm seconds.
double set_up(const Args& a, const Workload& w,
              std::unique_ptr<Daemon>& daemon,
              std::unique_ptr<Loadgen>& gen) {
  const std::int64_t t0 = now_ns();
  daemon = std::make_unique<Daemon>(a.copathd, kDaemonFlags, a.tmp);
  gen = std::make_unique<Loadgen>(daemon->port(), kConnections);
  WindowResult r = gen->run(w.prewarm, {}, 120.0);
  if (r.failed + r.wrong != 0) {
    invalid("pre-warm answers failed: " + std::to_string(r.failed) +
            " failed, " + std::to_string(r.wrong) + " wrong " +
            r.first_wrong);
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void tear_down(std::unique_ptr<Daemon>& daemon,
               std::unique_ptr<Loadgen>& gen) {
  gen.reset();
  if (!daemon->stop()) invalid("copathd did not exit 0 after the drain");
  daemon.reset();
}

double drain_s(const Spec& spec) { return 10.0 + 20 * spec.slo_ms / 1e3; }

int end_to_end(const Args& a, const Workload& w) {
  const Spec& spec = *w.spec;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Loadgen> gen;
  std::vector<double> setups;
  double setup_total = 0;
  for (;;) {
    setups.push_back(set_up(a, w, daemon, gen));
    setup_total += setups.back();
    const auto k = static_cast<int>(setups.size());
    if (k >= kMaxSetups || (k >= kMinSetups && setup_total >= kSetupBudgetS)) {
      break;
    }
    tear_down(daemon, gen);
  }

  const double cpu0 = daemon->cpu_s();
  WindowResult nominal = gen->run(w.nominal, {}, drain_s(spec));
  const double cpu1 = daemon->cpu_s();
  if (!kept_schedule(nominal, lag_limit_ms(spec))) {
    invalid("generator fell behind its schedule: lag p99 " +
            std::to_string(quantile(nominal.lag_ms, 0.99)) + " ms");
  }
  Validation v;
  validate(w.nominal, nominal, v);
  std::cerr << "nominal " << w.nominal.rate << "/s: p50 "
            << quantile(nominal.latency_ms, 0.5) << " p90 "
            << quantile(nominal.latency_ms, 0.9) << " p99 "
            << quantile(nominal.latency_ms, 0.99) << " p99.9 "
            << quantile(nominal.latency_ms, 0.999) << " ms, lag p99 "
            << quantile(nominal.lag_ms, 0.99) << " ms, backlog max "
            << nominal.backlog_max << "\n";

  const double rss = daemon->peak_rss_mb();
  tear_down(daemon, gen);

  if (nominal.wrong != 0) {
    std::cerr << "wrong answers: " << nominal.first_wrong << "\n";
  }
  if (v.bad != 0) std::cerr << "validation failed: " << v.first << "\n";
  std::cerr << "validated " << v.checked << " sampled answers\n";

  const double answered = static_cast<double>(std::max<std::size_t>(
      1, nominal.ok));
  const double p50 = quantile(nominal.latency_ms, 0.5);
  const double tail = tail_of(nominal, spec.tail_q);
  std::vector<Metric> m = {
      {"latency_p50_ms", p50, "ms"},
      {"latency_tail_ms", tail, "ms"},
      {"server_cpu_us_per_req", (cpu1 - cpu0) * 1e6 / answered, "us"},
      {"server_peak_rss_mb", rss, "MiB"},
      {"setup_s", median(setups), "s"},
  };
  print_result(nominal.wrong == 0 && v.bad == 0, nominal.sent,
               nominal.failed + nominal.wrong, m);
  return 0;
}

double delta(const Counters& a, const Counters& b, const char* key) {
  const auto ia = a.find(key), ib = b.find(key);
  if (ia == a.end() || ib == b.end()) return 0;
  return static_cast<double>(ib->second) - static_cast<double>(ia->second);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int traced(const Args& a, const Workload& w) {
  const Spec& spec = *w.spec;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Loadgen> gen;

  // Untraced pass: the ledger's denominator.
  (void)set_up(a, w, daemon, gen);
  WindowResult plain = gen->run(w.nominal, {}, drain_s(spec));
  tear_down(daemon, gen);

  // The same stream again with probes and polls.
  (void)set_up(a, w, daemon, gen);
  const Counters s0 = gen->stats();
  WindowResult r = gen->run(w.nominal, Probes{200.0, 10.0}, drain_s(spec));
  const Counters s1 = gen->stats();
  tear_down(daemon, gen);
  for (const WindowResult* x : {&plain, &r}) {
    if (!kept_schedule(*x, lag_limit_ms(spec))) {
      invalid("generator fell behind its schedule: lag p99 " +
              std::to_string(quantile(x->lag_ms, 0.99)) + " ms");
    }
  }
  Validation v;
  validate(w.nominal, r, v);

  LedgerConfig cfg;
  cfg.tmp_root = a.tmp;
  cfg.spans_path = a.spans;
  const LedgerResult led = run_ledger(w, cfg);

  const double sent = static_cast<double>(std::max<std::size_t>(1, r.sent));
  const double e2e_plain_us = quantile(plain.latency_ms, 0.5) * 1e3;
  const double e2e_traced_us = quantile(r.latency_ms, 0.5) * 1e3;
  double layers_us = 0;
  for (const auto& [layer, us] : led.layer_self_us) layers_us += us;

  std::vector<Metric> m = {
      {"loadgen.lag_p99_ms", quantile(r.lag_ms, 0.99), "ms"},
      {"loadgen.backlog_max", static_cast<double>(r.backlog_max), "count"},
      {"loadgen.sent", static_cast<double>(r.sent), "count"},
      {"loadgen.ok", static_cast<double>(r.ok), "count"},
      {"loadgen.failed", static_cast<double>(r.failed + r.wrong), "count"},
      {"loadgen.error_rate",
       static_cast<double>(r.failed + r.wrong) / sent, "ratio"},
      {"net.health_rtt_p50_us", quantile(r.health_rtt_us, 0.5), "us"},
      {"net.health_rtt_p99_us", quantile(r.health_rtt_us, 0.99), "us"},
      {"net.req_bytes_mean", static_cast<double>(r.req_bytes) / sent, "B"},
      {"net.resp_bytes_mean",
       static_cast<double>(r.resp_bytes) /
           static_cast<double>(std::max<std::size_t>(1, r.ok)),
       "B"},
      {"net.parked", delta(s0, s1, "parked"), "count"},
      {"net.parked_refused", delta(s0, s1, "parked_refused"), "count"},
      {"service.queue_depth_mean", mean(r.queue_depth), "count"},
      {"service.queue_depth_max",
       r.queue_depth.empty()
           ? 0.0
           : *std::max_element(r.queue_depth.begin(), r.queue_depth.end()),
       "count"},
      {"service.l1_hit_ratio",
       ratio(delta(s0, s1, "cache_hits"),
             delta(s0, s1, "cache_hits") + delta(s0, s1, "cache_misses")),
       "ratio"},
      {"service.l2_hit_ratio",
       ratio(delta(s0, s1, "l2_hits"),
             delta(s0, s1, "l2_hits") + delta(s0, s1, "l2_misses")),
       "ratio"},
      {"service.coalesced_share",
       ratio(delta(s0, s1, "coalesced"), delta(s0, s1, "submitted")),
       "ratio"},
      {"service.express_share",
       ratio(delta(s0, s1, "express_solves"), delta(s0, s1, "submitted")),
       "ratio"},
  };
  m.insert(m.end(), led.metrics.begin(), led.metrics.end());
  for (const auto& [layer, us] : led.layer_self_us) {
    m.push_back({"ledger." + layer + "_us", us, "us"});
  }
  m.push_back({"ledger.unattributed_share", 1.0 - layers_us / e2e_plain_us,
               "ratio"});
  m.push_back({"ledger.trace_overhead", e2e_traced_us / e2e_plain_us,
               "ratio"});

  const std::size_t wrong = r.wrong + plain.wrong + led.wrong;
  if (wrong != 0 || v.bad != 0) {
    std::cerr << "traced run found wrong answers: " << r.first_wrong << " "
              << v.first << "\n";
  }
  print_result(wrong == 0 && v.bad == 0, r.sent, r.failed + r.wrong, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ::signal(SIGPIPE, SIG_IGN);
  const Args a = parse_args(argc, argv);
  const Spec* found = find_spec(a.workload);
  if (found == nullptr) {
    std::cerr << "perfbench: unknown workload " << a.workload << "\n";
    return 2;
  }
  try {
    const std::int64_t g0 = now_ns();
    const Workload w =
        make_workload(*found, a.seed, a.seconds,
                      std::max(1u, std::thread::hardware_concurrency()));
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(stream_hash(w)));
    std::cout << "stream_hash " << hash << "\n";
    std::cout << "build " << PERFBENCH_BUILD_TYPE << ", " << PERFBENCH_COMPILER
              << "\n";
    std::cout << "copathd_flags";
    for (const auto& f : kDaemonFlags) std::cout << ' ' << f;
    std::cout << " --port 0 --cache-dir <fresh>\n";
    std::cerr << "generated " << w.nominal.arrivals() << " arrivals in "
              << static_cast<double>(now_ns() - g0) / 1e9 << " s\n";
    return a.trace ? traced(a, w) : end_to_end(a, w);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run invalid: " << e.what() << "\n";
    return 1;
  }
}
