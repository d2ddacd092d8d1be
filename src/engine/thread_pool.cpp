#include "engine/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace afdx::engine {

int ThreadPool::resolve_thread_count(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads, obs::Registry& scope)
    : threads_(threads), steals_(scope.counter("engine.pool.steals")) {
  AFDX_REQUIRE(threads_ >= 1, "ThreadPool: thread count must be >= 1");
  executed_.assign(static_cast<std::size_t>(threads_), 0);
  failures_.assign(static_cast<std::size_t>(threads_), Failure{});
  dyn_ranges_.assign(static_cast<std::size_t>(threads_), DynRange{});
  dyn_failures_.assign(static_cast<std::size_t>(threads_), {});
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::pair<std::size_t, std::size_t> ThreadPool::shard(std::size_t n,
                                                      int worker) const {
  const auto t = static_cast<std::size_t>(threads_);
  const auto w = static_cast<std::size_t>(worker);
  return {n * w / t, n * (w + 1) / t};
}

void ThreadPool::run_shard(std::size_t n, int worker) {
  const auto [begin, end] = shard(n, worker);
  const std::function<void(std::size_t, int)>* body;
  {
    std::lock_guard<std::mutex> lock(mu_);
    body = body_;
  }
  std::size_t done = 0;
  Failure failure;
  for (std::size_t i = begin; i < end; ++i) {
    try {
      (*body)(i, worker);
      ++done;
    } catch (...) {
      // Abandon the rest of the block: a serial loop would not have
      // reached those indices either.
      failure = Failure{i, std::current_exception()};
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  executed_[static_cast<std::size_t>(worker)] += done;
  failures_[static_cast<std::size_t>(worker)] = failure;
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen_seq = 0;
  for (;;) {
    std::size_t n;
    bool dynamic;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock,
                     [&] { return stopping_ || batch_seq_ != seen_seq; });
      if (stopping_) return;
      seen_seq = batch_seq_;
      n = batch_n_;
      dynamic = dynamic_batch_;
    }
    if (dynamic) {
      run_dynamic(worker);
    } else {
      run_shard(n, worker);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_workers_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  if (threads_ == 1) {
    // Legacy path: no synchronization, plain ascending loop.
    std::size_t done = 0;
    try {
      for (std::size_t i = 0; i < n; ++i) {
        body(i, 0);
        ++done;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      executed_[0] += done;
      throw;
    }
    std::lock_guard<std::mutex> lock(mu_);
    executed_[0] += done;
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    batch_n_ = n;
    pending_workers_ = threads_ - 1;
    for (Failure& f : failures_) f = Failure{};
    ++batch_seq_;
  }
  start_cv_.notify_all();
  run_shard(n, /*worker=*/0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
  body_ = nullptr;

  // Rethrow the failure a serial loop would have hit first.
  const Failure* first = nullptr;
  for (const Failure& f : failures_) {
    if (f.error && (first == nullptr || f.index < first->index)) first = &f;
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

std::vector<ThreadPool::TaskFailure> ThreadPool::parallel_for_contained(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  std::mutex failures_mu;
  std::vector<TaskFailure> failures;
  const auto record = [&](std::size_t i, std::string message) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(TaskFailure{i, std::move(message)});
  };
  // The wrapper never lets an exception reach the batch machinery, so no
  // shard is ever abandoned and parallel_for cannot rethrow.
  parallel_for(n, [&](std::size_t i, int worker) {
    try {
      body(i, worker);
    } catch (const std::exception& e) {
      record(i, e.what());
    } catch (...) {
      record(i, "unknown exception");
    }
  });
  std::sort(failures.begin(), failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.index < b.index;
            });
  return failures;
}

bool ThreadPool::claim_chunk(int worker, std::size_t& begin,
                             std::size_t& end) {
  std::lock_guard<std::mutex> lock(dyn_mu_);
  DynRange& own = dyn_ranges_[static_cast<std::size_t>(worker)];
  if (own.next < own.end) {
    begin = own.next;
    end = std::min(own.end, own.next + dyn_chunk_);
    own.next = end;
    return true;
  }
  // Steal from the back of the most loaded block, so the owner (claiming
  // from the front) and the thief never contend for the same indices.
  int victim = -1;
  std::size_t best = 0;
  for (int w = 0; w < threads_; ++w) {
    const DynRange& r = dyn_ranges_[static_cast<std::size_t>(w)];
    const std::size_t remaining = r.end - r.next;
    if (remaining > best) {
      best = remaining;
      victim = w;
    }
  }
  if (victim < 0) return false;
  DynRange& v = dyn_ranges_[static_cast<std::size_t>(victim)];
  const std::size_t take = std::min(dyn_chunk_, v.end - v.next);
  begin = v.end - take;
  end = v.end;
  v.end = begin;
  steals_.add();
  return true;
}

void ThreadPool::run_dynamic(int worker) {
  const std::function<void(std::size_t, int)>* body;
  {
    std::lock_guard<std::mutex> lock(mu_);
    body = body_;
  }
  std::size_t done = 0;
  std::vector<Failure>& failures =
      dyn_failures_[static_cast<std::size_t>(worker)];
  std::size_t begin = 0;
  std::size_t end = 0;
  while (claim_chunk(worker, begin, end)) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*body)(i, worker);
      } catch (...) {
        failures.push_back(Failure{i, std::current_exception()});
      }
      ++done;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  executed_[static_cast<std::size_t>(worker)] += done;
}

void ThreadPool::run_dynamic_batch(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  for (std::vector<Failure>& f : dyn_failures_) f.clear();
  if (threads_ == 1) {
    // Inline ascending loop; per-index containment matches the dynamic
    // "every index executes" contract.
    std::size_t done = 0;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(i, 0);
      } catch (...) {
        dyn_failures_[0].push_back(Failure{i, std::current_exception()});
      }
      ++done;
    }
    std::lock_guard<std::mutex> lock(mu_);
    executed_[0] += done;
    return;
  }

  {
    std::lock_guard<std::mutex> lock(dyn_mu_);
    // Chunks small enough to balance, big enough to keep the claim lock
    // cold. Workers seed from the same static blocks parallel_for uses.
    dyn_chunk_ = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(threads_) * 8));
    for (int w = 0; w < threads_; ++w) {
      const auto [begin, end] = shard(n, w);
      dyn_ranges_[static_cast<std::size_t>(w)] = DynRange{begin, end};
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    batch_n_ = n;
    dynamic_batch_ = true;
    pending_workers_ = threads_ - 1;
    ++batch_seq_;
  }
  start_cv_.notify_all();
  run_dynamic(/*worker=*/0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
  body_ = nullptr;
  dynamic_batch_ = false;
}

void ThreadPool::parallel_for_dynamic(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  run_dynamic_batch(n, body);
  // Rethrow the failure a serial loop would have reported first.
  const Failure* first = nullptr;
  for (const std::vector<Failure>& per_worker : dyn_failures_) {
    for (const Failure& f : per_worker) {
      if (f.error && (first == nullptr || f.index < first->index)) first = &f;
    }
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

std::vector<ThreadPool::TaskFailure> ThreadPool::parallel_for_dynamic_contained(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  run_dynamic_batch(n, body);
  std::vector<TaskFailure> out;
  for (const std::vector<Failure>& per_worker : dyn_failures_) {
    for (const Failure& f : per_worker) {
      if (!f.error) continue;
      try {
        std::rethrow_exception(f.error);
      } catch (const std::exception& e) {
        out.push_back(TaskFailure{f.index, e.what()});
      } catch (...) {
        out.push_back(TaskFailure{f.index, "unknown exception"});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.index < b.index;
            });
  return out;
}

std::vector<std::size_t> ThreadPool::tasks_per_thread() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

}  // namespace afdx::engine
