// Fixed-size worker pool used by the analysis engine, the fault sweep, the
// fuzz campaigns and the serve workers.
//
// The pool executes *batches*: parallel_for(n, body) runs body(index,
// worker) for every index in [0, n). There is one scheduler. Each worker
// starts from its own contiguous block of the index space and claims it
// chunk by chunk in ascending order; an idle worker steals chunks from the
// BACK of the most loaded block. Which worker runs an index is therefore
// scheduling-dependent, so bodies write their results to per-index slots:
// the outcome is then identical for every thread count.
//
// Chunks are always contiguous index ranges -- both a worker's own block
// and anything stolen from a victim's back. The engine's locality-aware
// scheduling relies on this: it orders the index space so neighbouring
// indices are topology neighbours (VLs sharing route prefixes), and
// contiguity keeps every worker's working set one neighbourhood even after
// steals. When n equals the thread count the chunk size is 1 and each
// worker claims its own index, so n long-lived bodies run concurrently.
//
// Every index runs, even after another index has thrown. parallel_for then
// rethrows the exception raised at the smallest index (the one a serial
// loop would have failed at first); parallel_for_contained returns every
// failure instead, sorted by index.
//
// With thread_count() == 1 no threads are ever spawned and every batch
// runs inline on the calling thread, in ascending index order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"

namespace afdx::engine {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread acts as worker 0).
  /// `threads` must be >= 1; use resolve_thread_count to map a user-facing
  /// "0 = auto" request to a concrete count. Stolen chunks are counted as
  /// engine.pool.steals in `scope`, which must outlive the pool.
  explicit ThreadPool(int threads, obs::Registry& scope = obs::registry());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int thread_count() const noexcept { return threads_; }

  /// Runs body(index, worker) for every index in [0, n) and blocks until
  /// all have run; then rethrows the smallest-index exception, if any.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, int)>& body);

  /// One contained task failure of parallel_for_contained.
  struct TaskFailure {
    std::size_t index = 0;
    std::string message;
  };

  /// Like parallel_for, but nothing is rethrown: each throwing index is
  /// returned as a TaskFailure, sorted by index. The pool stays usable for
  /// further batches.
  [[nodiscard]] std::vector<TaskFailure> parallel_for_contained(
      std::size_t n, const std::function<void(std::size_t, int)>& body);

  /// Cumulative number of indices executed per worker, since construction.
  [[nodiscard]] std::vector<std::size_t> tasks_per_thread() const;

  /// Maps a user request to a concrete thread count: values >= 1 are kept,
  /// anything else becomes std::thread::hardware_concurrency() (at least 1).
  [[nodiscard]] static int resolve_thread_count(int requested);

 private:
  struct Failure {
    std::size_t index = 0;
    std::exception_ptr error;
  };

  /// Runs one batch to completion (all indices executed, failures parked
  /// per worker in errors_).
  void run_batch(std::size_t n,
                 const std::function<void(std::size_t, int)>& body);
  void worker_loop(int worker);
  void run_chunks(int worker);
  /// Hands `worker` its next chunk -- own block first, then a steal from
  /// the back of the most loaded block. False when the batch is drained.
  bool claim_chunk(int worker, std::size_t& begin, std::size_t& end);

  int threads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t batch_seq_ = 0;        // bumped per batch
  const std::function<void(std::size_t, int)>* body_ = nullptr;
  int pending_workers_ = 0;            // workers still running the batch
  bool stopping_ = false;
  std::vector<std::size_t> executed_;  // per worker, guarded by mu_

  /// Unclaimed remainder [next, end) of a worker's block in the current
  /// batch.
  struct Range {
    std::size_t next = 0;
    std::size_t end = 0;
  };
  std::mutex claim_mu_;                // guards ranges_ and chunk_
  std::vector<Range> ranges_;
  std::size_t chunk_ = 1;
  obs::Counter& steals_;
  /// Per-worker failure lists of the current batch; each worker touches
  /// only its own slot until the batch barrier.
  std::vector<std::vector<Failure>> errors_;
};

}  // namespace afdx::engine
