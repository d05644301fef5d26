// Serving: the copath::Service front-end — async submission and the
// canonical memo cache.
//
// Simulates a small traffic mix: a handful of distinct cographs arriving
// as permuted/relabeled presentations (the way real batch inputs repeat),
// submitted concurrently from several client threads. Distinct instances
// compute once; every equivalent presentation after that is served from
// the cache through its own leaf permutation.
//
//   $ ./example_serving
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "copath.hpp"

int main() {
  using namespace copath;

  // 1. The "traffic": four canonical classes, each also presented as
  //    commuted algebra text (children reordered — the same cograph).
  const std::vector<std::vector<std::string>> presentations = {
      {"(* (+ a b) (+ c d e))", "(* (+ e d c) (+ b a))"},
      {"(+ (* a b c) (* d e))", "(+ (* e d) (* c b a))"},
      {"(* a (+ b (* c (+ d e))))", "(* (+ (* (+ e d) c) b) a)"},
      {"(+ a b c d)", "(+ d c b a)"},
  };

  // 2. A service: async submit() -> std::future, bounded queue
  //    (backpressure), canonical-keyed result cache.
  Service::Options opts;
  opts.workers = 4;
  opts.queue_capacity = 64;
  Service svc(opts);

  // 3. Four client threads each submit every presentation twice.
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<SolveResult>>> futures(4);
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 2; ++round) {
        for (const auto& cls : presentations) {
          for (const auto& text : cls) {
            futures[c].push_back(
                svc.submit({Instance::text(text), {}, "client-" +
                                                          std::to_string(c)}));
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  std::size_t answered = 0;
  for (auto& per_client : futures) {
    for (auto& f : per_client) {
      const SolveResult res = f.get();
      if (!res.ok) {
        std::cerr << "solve failed: " << res.error << "\n";
        return 1;
      }
      ++answered;
    }
  }

  // 4. The cache story: 64 requests, 4 distinct canonical classes — at
  //    most a handful ever reach an engine.
  const auto stats = svc.stats();
  std::cout << "requests answered : " << answered << "\n"
            << "cache hits        : " << stats.cache_hits << "\n"
            << "cache misses      : " << stats.cache_misses << "\n"
            << "engine computations: " << stats.express_solves << "\n";

  // 5. Equivalent presentations share one cache entry because they share
  //    a canonical form (commutativity + relabeling quotient):
  const Instance a = Instance::text(presentations[0][0]);
  const Instance b = Instance::text(presentations[0][1]);
  std::cout << "canonical key of both presentations: "
            << canonical_form(a.resolve()).key << "\n (hashes "
            << (a.canonical().hash == b.canonical().hash ? "match" : "differ")
            << ", signatures "
            << (a.canonical().signature == b.canonical().signature
                    ? "match"
                    : "differ")
            << ")\n";

  // Every request answered, and the 16 presentations per class cannot all
  // have computed: at most four concurrent misses per class (one per
  // worker) can race the first answer into the cache.
  if (answered != 64 || stats.cache_hits == 0) {
    std::cerr << "unexpected serving stats\n";
    return 1;
  }
  return 0;
}
