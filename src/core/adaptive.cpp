#include "core/adaptive.hpp"

#include "util/thread_pool.hpp"

namespace copath::core {

Backend CostModel::choose(std::size_t n, std::size_t internal_nodes,
                          std::size_t workers) const {
  if (n < min_native_n) return Backend::Sequential;
  return predict_native_ms(n, internal_nodes, workers) <
                 predict_sequential_ms(n)
             ? Backend::Native
             : Backend::Sequential;
}

const CostModel& CostModel::calibrated() {
  static const CostModel model{};
  return model;
}

Backend adaptive_route(const cograph::Cotree& t, const CostModel* model,
                       std::size_t workers) {
  const CostModel& m = model != nullptr ? *model : CostModel::calibrated();
  const std::size_t n = t.vertex_count();
  // hardware_concurrency is a syscall — cache it; routing runs per solve.
  static const std::size_t hw = util::ThreadPool::default_workers();
  return m.choose(n, t.size() - n /* internal cotree nodes */,
                  workers == 0 ? hw : workers);
}

}  // namespace copath::core
