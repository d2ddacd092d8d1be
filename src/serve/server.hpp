// The serving loop: transports, admission control, worker pool.
//
// A Server couples one Service to its I/O: requests arrive as lines (stdio
// stream or TCP connections on 127.0.0.1), pass through a bounded admission
// queue, and are executed by a fixed pool of worker threads (the existing
// engine::ThreadPool -- one parallel_for batch with one index per worker,
// so each worker claims its own index and runs one long-lived loop that
// drains the queue). Responses go back over the requester's transport; each
// transport serializes its writes, so concurrent workers never interleave
// response lines.
//
// Overload behaviour is explicit, never silent: when the admission queue is
// full the request is answered immediately with
// {"id":N,"ok":false,"error":"overloaded"} from the reader thread -- the
// client sees the rejection at once instead of a growing tail latency.
// A request line longer than max_line_bytes is likewise rejected with a
// clean error response (and, on TCP, the remainder of the oversized line is
// discarded up to the next newline); the connection survives both.
//
// Shutdown: stdio serving ends at EOF of the input stream; TCP serving ends
// when a "shutdown" request is acknowledged or request_stop() is called
// (e.g. from a signal handler -- it only flips an atomic, so it is
// async-signal-safe). Both paths drain the queue before returning.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "serve/service.hpp"

namespace afdx::serve {

struct ServerOptions {
  /// Concurrent request workers (>= 1; 0 = one per hardware thread).
  int workers = 1;
  /// Admission-queue capacity; a request arriving when the queue holds this
  /// many is rejected with an "overloaded" response.
  std::size_t queue_capacity = 16;
  /// Longest accepted request line (bytes, excluding the newline).
  std::size_t max_line_bytes = 1 << 16;
};

/// Where one request's response goes. write_line appends the newline and is
/// safe to call from any worker.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  virtual void write_line(const std::string& line) = 0;
};

class Server {
 public:
  Server(Service& service, ServerOptions options = {});

  /// Serves newline-delimited requests from `in` to `out` until EOF.
  /// Responses of concurrently executing requests may come back in
  /// completion order; with workers == 1 the order matches the input.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Listens on 127.0.0.1:`port` (0 = pick an ephemeral port, see
  /// bound_port()) and serves until a shutdown request or request_stop().
  /// Throws afdx::Error when the socket cannot be bound.
  void listen_and_serve(std::uint16_t port);

  /// The port listen_and_serve actually bound (valid once it is serving).
  [[nodiscard]] std::uint16_t bound_port() const noexcept {
    return bound_port_.load(std::memory_order_acquire);
  }

  /// Asks the TCP serving loop to stop. Async-signal-safe.
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
  }

 private:
  struct Job {
    std::string line;
    std::shared_ptr<ResponseSink> sink;
  };

  enum class Push : std::uint8_t { kOk, kFull, kClosed };

  /// Enqueues the line; consumes it only when kOk is returned.
  Push push(std::string& line, const std::shared_ptr<ResponseSink>& sink);
  bool pop(Job& job);
  void close_queue();
  [[nodiscard]] std::size_t queue_depth() const;

  /// Admission decision for one raw request line: enqueue, or answer the
  /// oversized / overloaded / closed cases directly on `sink`.
  void admit(std::string line, const std::shared_ptr<ResponseSink>& sink);

  /// Runs the worker pool until the queue is closed and drained.
  void run_workers();

  Service& service_;
  ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool closed_ = false;

  std::atomic<bool> stop_{false};
  std::atomic<std::uint16_t> bound_port_{0};
};

}  // namespace afdx::serve
