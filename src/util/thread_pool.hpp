// A small fork-join thread pool: Solver::solve_batch fans its non-sweep
// requests over one, one instance per worker. (The PRAM simulator does not
// use it: pram::Machine runs every step on the calling thread.)
//
// The pool is deliberately minimal: the only operation is parallel_for over
// an index range, executed with static chunking, one contiguous block per
// worker. Work stealing is unnecessary for the uniform batches it runs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace copath::util {

class ThreadPool {
 public:
  /// Creates a pool with `workers` threads. `workers == 1` degenerates to
  /// inline execution on the calling thread (no threads spawned), which is
  /// also the default on single-core hosts.
  explicit ThreadPool(std::size_t workers = default_workers());

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t workers() const { return worker_count_; }

  /// Runs fn(i) for every i in [begin, end), partitioned into one contiguous
  /// block per worker. Blocks until every invocation has finished.
  ///
  /// fn must not throw; exceptions escaping a worker terminate the process
  /// (this mirrors the PRAM model, where a processor fault is fatal).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Runs fn(worker_id, begin, end) once per worker with that worker's block.
  /// Used when the caller wants per-block (rather than per-index) dispatch.
  void parallel_blocks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  static std::size_t default_workers() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : hc;
  }

 private:
  void worker_loop(std::size_t id);

  using BlockFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  std::size_t worker_count_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const BlockFn* job_ = nullptr;  // non-null while a job is being dispatched
  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  std::size_t epoch_ = 0;      // incremented per job; wakes workers
  std::size_t remaining_ = 0;  // workers still running the current job
  bool stopping_ = false;
};

}  // namespace copath::util
