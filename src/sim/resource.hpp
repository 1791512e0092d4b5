// Rate-limited FIFO resources: the queueing building block for NICs and
// disks.
//
// A FifoServer serializes requests: a request of n bytes arriving at time t
// starts at max(t, busy_until) and holds the server for overhead + n/rate.
// With chunk-sized requests this is a store-and-forward model — exactly the
// granularity at which the paper's transfers contend (256 KB chunks).
//
// serve() is not a coroutine. The call books the request (busy time,
// counters, trace events) at the current instant and returns an awaiter
// that sleeps until the request's completion time, so `co_await
// srv.serve(n)` costs one guarded sleep and no coroutine frame. Call sites
// co_await the call in the same expression.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/causal.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vmstorm::sim {

class FifoServer {
 public:
  /// rate: bytes per second of service; fixed_overhead: per-request setup
  /// time (e.g. protocol/latency overhead paid inside the server).
  FifoServer(Engine& engine, BytesPerSecond rate, SimTime fixed_overhead = 0)
      : engine_(&engine), rate_(rate), fixed_overhead_(fixed_overhead) {}

  /// Labels the server's trace output. While the engine's tracer is live,
  /// every request leaves a "svc" cost event for its service interval and a
  /// "wait" cost event for any time queued behind earlier requests (holder =
  /// the span whose request it queued behind). Unlabeled servers trace
  /// nothing.
  void set_trace(const char* name, std::uint32_t lane) {
    trace_name_ = name;
    trace_lane_ = lane;
  }

  /// Awaiter returned by serve(): a guarded sleep until the request's
  /// completion. The request stops counting toward inflight() when the
  /// wakeup is delivered or, if that never happens (the awaiting frame was
  /// destroyed, or the awaiter was never awaited), when it is destroyed.
  class [[nodiscard]] ServeAwaiter : public Engine::SleepAwaiter {
   public:
    ~ServeAwaiter() {
      if (server_ != nullptr) --server_->inflight_;
    }
    void await_resume() noexcept {
      SleepAwaiter::await_resume();
      --server_->inflight_;
      server_ = nullptr;
    }

   private:
    friend class FifoServer;  // only a booked request makes one
    ServeAwaiter(FifoServer* server, SimTime done)
        : SleepAwaiter(server->engine_, done), server_(server) {}

    FifoServer* server_;
  };

  /// Serves a request of `bytes`; completes when the transfer would finish.
  ServeAwaiter serve(Bytes bytes) {
    return serve_with_overhead(bytes, fixed_overhead_);
  }

  ServeAwaiter serve_with_overhead(Bytes bytes, SimTime overhead) {
    const SimTime arrival = engine_->now();
    const SimTime start = busy_until_ > arrival ? busy_until_ : arrival;
    const SimTime wait = start - arrival;
    total_queue_wait_ += wait;
    const SimTime duration = overhead + service_time(bytes);
    busy_until_ = start + duration;
    busy_time_ += duration;
    bytes_served_ += bytes;
    ++requests_;
    ++inflight_;
    if (inflight_ > inflight_hw_) inflight_hw_ = inflight_;
    if (trace_name_ != nullptr) {
      if (obs::Tracer* tr = live_tracer(*engine_)) {
        const std::uint64_t span = engine_->current_span();
        if (wait > 0) {
          tr->complete_in(to_seconds(arrival), to_seconds(wait), trace_lane_,
                          "wait", trace_name_, span,
                          {obs::TraceArg::uint("holder", last_holder_)});
        }
        tr->complete_in(to_seconds(start), to_seconds(duration), trace_lane_,
                        "svc", trace_name_, span,
                        {obs::TraceArg::uint("bytes", bytes)});
        last_holder_ = span;
      }
    }
    return ServeAwaiter{this, busy_until_};
  }

  /// Service time for n bytes, excluding queueing and overhead.
  SimTime service_time(Bytes bytes) const {
    return rate_ > 0.0 ? from_seconds(static_cast<double>(bytes) / rate_) : 0;
  }

  /// Queue delay a request arriving now would see before service begins.
  SimTime backlog() const {
    const SimTime now = engine_->now();
    return busy_until_ > now ? busy_until_ - now : 0;
  }

  Bytes bytes_served() const { return bytes_served_; }
  std::uint64_t requests() const { return requests_; }
  SimTime busy_time() const { return busy_time_; }

  /// Total time requests spent queued before service began.
  SimTime total_queue_wait() const { return total_queue_wait_; }

  /// Requests between arrival and completion right now (queued or in
  /// service) and the high-water mark over the server's lifetime — the
  /// queue-depth signal the timeline sampler and the per-provider skew
  /// gauges read. Pure arithmetic on the existing analytic model: no
  /// request objects are materialized. A request whose waiter is destroyed
  /// before its completion stops counting then.
  std::uint64_t inflight() const { return inflight_; }
  std::uint64_t inflight_high_water() const { return inflight_hw_; }

 private:
  Engine* engine_;
  BytesPerSecond rate_;
  SimTime fixed_overhead_;
  const char* trace_name_ = nullptr;
  std::uint32_t trace_lane_ = 0;
  std::uint64_t last_holder_ = 0;  ///< span whose request last held the server
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  SimTime total_queue_wait_ = 0;
  Bytes bytes_served_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t inflight_ = 0;
  std::uint64_t inflight_hw_ = 0;
};

}  // namespace vmstorm::sim
