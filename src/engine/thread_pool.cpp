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
  ranges_.assign(static_cast<std::size_t>(threads_), Range{});
  errors_.assign(static_cast<std::size_t>(threads_), {});
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

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen_seq = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock,
                     [&] { return stopping_ || batch_seq_ != seen_seq; });
      if (stopping_) return;
      seen_seq = batch_seq_;
    }
    run_chunks(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_workers_;
    }
    done_cv_.notify_one();
  }
}

bool ThreadPool::claim_chunk(int worker, std::size_t& begin,
                             std::size_t& end) {
  std::lock_guard<std::mutex> lock(claim_mu_);
  Range& own = ranges_[static_cast<std::size_t>(worker)];
  if (own.next < own.end) {
    begin = own.next;
    end = std::min(own.end, own.next + chunk_);
    own.next = end;
    return true;
  }
  // Steal from the back of the most loaded block, so the owner (claiming
  // from the front) and the thief never contend for the same indices.
  int victim = -1;
  std::size_t best = 0;
  for (int w = 0; w < threads_; ++w) {
    const Range& r = ranges_[static_cast<std::size_t>(w)];
    const std::size_t remaining = r.end - r.next;
    if (remaining > best) {
      best = remaining;
      victim = w;
    }
  }
  if (victim < 0) return false;
  Range& v = ranges_[static_cast<std::size_t>(victim)];
  const std::size_t take = std::min(chunk_, v.end - v.next);
  begin = v.end - take;
  end = v.end;
  v.end = begin;
  steals_.add();
  return true;
}

void ThreadPool::run_chunks(int worker) {
  const std::function<void(std::size_t, int)>* body;
  {
    std::lock_guard<std::mutex> lock(mu_);
    body = body_;
  }
  std::size_t done = 0;
  std::vector<Failure>& errors = errors_[static_cast<std::size_t>(worker)];
  std::size_t begin = 0;
  std::size_t end = 0;
  while (claim_chunk(worker, begin, end)) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*body)(i, worker);
      } catch (...) {
        errors.push_back(Failure{i, std::current_exception()});
      }
      ++done;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  executed_[static_cast<std::size_t>(worker)] += done;
}

void ThreadPool::run_batch(std::size_t n,
                           const std::function<void(std::size_t, int)>& body) {
  for (std::vector<Failure>& e : errors_) e.clear();
  {
    std::lock_guard<std::mutex> lock(claim_mu_);
    // Chunks small enough to balance, big enough to keep the claim lock
    // cold. Worker w seeds from the contiguous block [n*w/t, n*(w+1)/t);
    // a single-threaded pool is worker 0 claiming [0, n) front to back.
    const auto t = static_cast<std::size_t>(threads_);
    chunk_ = std::max<std::size_t>(1, n / (t * 8));
    for (std::size_t w = 0; w < t; ++w) {
      ranges_[w] = Range{n * w / t, n * (w + 1) / t};
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    pending_workers_ = threads_ - 1;
    ++batch_seq_;
  }
  start_cv_.notify_all();
  run_chunks(/*worker=*/0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
  body_ = nullptr;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  run_batch(n, body);
  // Rethrow the failure a serial loop would have reported first.
  const Failure* first = nullptr;
  for (const std::vector<Failure>& per_worker : errors_) {
    for (const Failure& f : per_worker) {
      if (first == nullptr || f.index < first->index) first = &f;
    }
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

std::vector<ThreadPool::TaskFailure> ThreadPool::parallel_for_contained(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  run_batch(n, body);
  std::vector<TaskFailure> out;
  for (const std::vector<Failure>& per_worker : errors_) {
    for (const Failure& f : per_worker) {
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
