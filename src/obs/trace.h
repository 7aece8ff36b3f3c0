// Tracer: per-query distributed trace spans across the serving stack.
//
// A trace is minted per query (QueryService::Submit) or per execution
// (Session::Execute) and answers "where did the time go": admission
// wait, round membership, per-site Compute/Send, coordinator solve,
// cache hit/refresh, delta apply, placement migration.
//
// ## Context propagation
//
// The active TraceContext (trace id + parent span id) is ambient
// per-thread state (CurrentTraceContext), set and restored by RAII
// scopes around every callback boundary, so evaluator and service code
// needs no signature changes:
//
//   * the service scopes the context around admission and round
//     dispatch;
//   * obs::TracingBackend (obs/trace_backend.h) captures the ambient
//     context at Compute/Send call time, stamps it into the Parcel's
//     trace metadata, and re-establishes it around the done/deliver
//     callback — in the destination's execution context, on both
//     backends — so causality follows messages across threads exactly
//     as it follows virtual events on the sim.
//
// ## Determinism
//
// The tracer never reads a clock: every timestamp is the caller's
// backend.now(), which is virtual on the sim backend — so a seeded sim
// run's span log is bit-identical across repeats (golden-tested). Span
// and trace ids come from counters; events are kept in per-thread
// shards (obs/shard.h) concatenated in registration order, which on
// the single-threaded sim is insertion order.
//
// ## Export
//
// ToChromeJson() writes Chrome trace_event JSON (load the file in
// chrome://tracing or https://ui.perfetto.dev): one lane per site,
// complete ("X") events for spans, instant ("i") events for points.
// Breakdown(trace_id) renders one query's span tree as text.

#ifndef PARBOX_OBS_TRACE_H_
#define PARBOX_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/shard.h"

namespace parbox::obs {

/// The ambient causality handle: which trace the current execution
/// belongs to, and which span new children should parent to. trace_id
/// 0 means "not traced" (spans are skipped, not parented to nothing).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// The calling thread's ambient context (zero-initialized per thread).
TraceContext& CurrentTraceContext();

/// Set-and-restore the ambient context for a scope (every callback
/// boundary brackets itself with one, so contexts never leak).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx)
      : saved_(CurrentTraceContext()) {
    CurrentTraceContext() = ctx;
  }
  ~ScopedTraceContext() { CurrentTraceContext() = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// One span (dur_seconds >= 0) or instant event (dur_seconds < 0).
struct TraceEvent {
  std::string name;
  const char* category = "svc";
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  ///< 0 for instants
  uint64_t parent_id = 0;
  int32_t site = 0;  ///< the lane ("tid") the event renders on
  double ts_seconds = 0.0;
  double dur_seconds = -1.0;
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  struct Options {
    /// Events kept before further Record calls are counted as dropped
    /// (a backstop against unbounded serving runs, not a ring buffer).
    size_t max_events = 1 << 20;
    bool enabled = true;
  };

  Tracer();
  explicit Tracer(const Options& options);

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  uint64_t MintTraceId() {
    return next_trace_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t MintSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append an event (any execution context; shard-local).
  void Record(TraceEvent event);

  /// Record work the calling context ran inline, outside any Compute
  /// (a site's kernel walk inside its query delivery): a span over
  /// [start, end) in `site`'s lane, parented to the ambient span, with
  /// the work's kernel `ops`. A no-op when disabled or untraced.
  void RecordInlineSpan(const char* name, int32_t site, double start_seconds,
                        double end_seconds, uint64_t ops);

  /// Name hint for the next Compute issued by this thread, consumed by
  /// TracingBackend ("solve", "cache.lookup", "site.reply"; unnamed
  /// computes render as "compute").
  void SetNextComputeName(const char* name);
  /// nullptr when no hint is pending.
  const char* TakeNextComputeName();

  // ---- Export (quiescent reads only) ----

  /// Every recorded event, shards concatenated in registration order
  /// (= insertion order on the single-threaded sim).
  std::vector<TraceEvent> Collect() const;
  size_t event_count() const;
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace_event JSON (an array of events, one per line).
  std::string ToChromeJson(std::string_view process_name = "parbox") const;
  Status WriteChromeJson(const std::string& path,
                         std::string_view process_name = "parbox") const;

  /// One query's span tree as indented text ("where the time went").
  std::string Breakdown(uint64_t trace_id) const;

  /// Forget every event; ids keep counting (requires quiescence).
  void Reset();

 private:
  struct Shard {
    std::vector<TraceEvent> events;
  };

  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> next_span_{1};
  std::atomic<size_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  size_t max_events_;
  mutable detail::ShardSet<Shard> shards_;
};

/// The process-global environment tracer: non-null (and enabled) iff
/// $PARBOX_TRACE is set non-empty — how CI runs whole existing suites
/// with tracing woven in (`PARBOX_TRACE=1 ctest -L backends`) without
/// touching their code. SessionOptions/ServiceOptions default their
/// tracer to this, so it is nullptr (tracing structurally absent) in
/// normal runs.
Tracer* DefaultTracer();

}  // namespace parbox::obs

#endif  // PARBOX_OBS_TRACE_H_
