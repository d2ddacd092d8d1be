// Fixed-size worker pool used by the analysis engine.
//
// The pool executes *batches*: parallel_for(n, body) runs body(index,
// worker) for every index in [0, n). Indices are statically sharded into
// contiguous blocks, one block per worker, so the index -> worker mapping
// is a pure function of (n, thread_count): per-thread task counts are
// deterministic and a run is reproducible regardless of OS scheduling.
//
// With thread_count() == 1 no threads are ever spawned and every batch
// runs inline on the calling thread -- this is the engine's legacy
// single-threaded path.
//
// Exceptions thrown by the body are captured per worker; after the batch
// the one raised at the smallest global index is rethrown on the calling
// thread (the same index a serial loop would have failed at first,
// because every worker processes its block in ascending order).
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

  /// Runs body(index, worker) for index in [0, n), sharded as described
  /// above. Blocks until every index has been processed (or abandoned
  /// because its worker failed earlier); rethrows the smallest-index
  /// exception, if any.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, int)>& body);

  /// One contained task failure of parallel_for_contained.
  struct TaskFailure {
    std::size_t index = 0;
    std::string message;
  };

  /// Like parallel_for, but with per-task exception containment: a throwing
  /// index is recorded as a TaskFailure and every other index still runs.
  /// Nothing is abandoned, nothing is rethrown, and sibling shards are
  /// never poisoned -- the pool stays usable for further batches. Failures
  /// are returned sorted by index (deterministic for a deterministic body).
  [[nodiscard]] std::vector<TaskFailure> parallel_for_contained(
      std::size_t n, const std::function<void(std::size_t, int)>& body);

  /// Work-stealing variant of parallel_for: every worker starts from its
  /// static block but claims it chunk by chunk, and an idle worker steals
  /// chunks from the BACK of the most loaded block. Which worker runs an
  /// index is therefore scheduling-dependent -- use only when the body
  /// writes results to per-index slots (then the outcome stays bit-exact
  /// while imbalanced batches finish earlier). Unlike parallel_for, every
  /// index always executes (a stolen chunk cannot be "abandoned"
  /// deterministically); after the batch the exception raised at the
  /// smallest index is rethrown.
  ///
  /// Chunks are always contiguous index ranges -- both a worker's own
  /// block and anything stolen from a victim's back. The engine's
  /// locality-aware scheduling relies on this: it orders the index space
  /// so neighbouring indices are topology neighbours (VLs sharing route
  /// prefixes), and contiguity is what makes every worker's working set
  /// one neighbourhood even after steals.
  void parallel_for_dynamic(std::size_t n,
                            const std::function<void(std::size_t, int)>& body);

  /// Containment variant of parallel_for_dynamic: per-index failures are
  /// collected as messages and returned sorted by index, nothing rethrows.
  [[nodiscard]] std::vector<TaskFailure> parallel_for_dynamic_contained(
      std::size_t n, const std::function<void(std::size_t, int)>& body);

  /// Cumulative number of indices executed per worker, since construction.
  [[nodiscard]] std::vector<std::size_t> tasks_per_thread() const;

  /// Maps a user request to a concrete thread count: values >= 1 are kept,
  /// anything else becomes std::thread::hardware_concurrency() (at least 1).
  [[nodiscard]] static int resolve_thread_count(int requested);

 private:
  /// The contiguous index block of `worker` in a batch of size n.
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard(std::size_t n,
                                                          int worker) const;
  void run_shard(std::size_t n, int worker);
  void worker_loop(int worker);

  struct Failure {
    std::size_t index = 0;
    std::exception_ptr error;
  };

  /// Runs one dynamic batch to completion (all indices executed, failures
  /// parked per worker in dyn_failures_).
  void run_dynamic_batch(std::size_t n,
                         const std::function<void(std::size_t, int)>& body);
  void run_dynamic(int worker);
  /// Hands `worker` its next chunk -- own block first, then a steal from
  /// the back of the most loaded block. False when the batch is drained.
  bool claim_chunk(int worker, std::size_t& begin, std::size_t& end);

  int threads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t batch_seq_ = 0;        // bumped per parallel_for
  const std::function<void(std::size_t, int)>* body_ = nullptr;
  std::size_t batch_n_ = 0;
  bool dynamic_batch_ = false;         // current batch is work-stealing
  int pending_workers_ = 0;            // workers still running the batch
  bool stopping_ = false;

  std::vector<std::size_t> executed_;  // per worker, guarded by mu_
  std::vector<Failure> failures_;      // per worker, guarded by mu_

  /// Unclaimed remainder [next, end) of a worker's block in the current
  /// dynamic batch.
  struct DynRange {
    std::size_t next = 0;
    std::size_t end = 0;
  };
  mutable std::mutex dyn_mu_;          // guards ranges and chunk size
  std::vector<DynRange> dyn_ranges_;
  std::size_t dyn_chunk_ = 1;
  obs::Counter& steals_;
  /// Per-worker failure lists of the current dynamic batch; each worker
  /// touches only its own slot until the batch barrier.
  std::vector<std::vector<Failure>> dyn_failures_;
};

}  // namespace afdx::engine
