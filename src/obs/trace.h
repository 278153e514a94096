#ifndef SEMOPT_OBS_TRACE_H_
#define SEMOPT_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

/// A low-overhead span tracer exporting Chrome `trace_event` JSON
/// (load the file in chrome://tracing or https://ui.perfetto.dev).
///
/// Usage:
///   obs::StartTracing();
///   { obs::TraceSpan span("round"); span.AddArg("delta", 42); ... }
///   obs::StopTracing("trace.json");
///
/// Tracing is off by default: constructing a TraceSpan then costs one
/// relaxed atomic load and no allocation. Events are buffered in
/// per-thread buffers (one uncontended mutex each). One process-wide
/// budget of kTraceEventBudget events bounds a session, so the memory
/// it holds and the file it writes stay bounded however long it runs;
/// events past the budget are counted and dropped. Building with
/// -DSEMOPT_DISABLE_TRACING=ON compiles the whole subsystem down to
/// no-ops so instrumentation sites cost literally nothing.
namespace semopt {
namespace obs {

#ifndef SEMOPT_DISABLE_TRACING

inline constexpr bool kTracingCompiledIn = true;

/// Events one trace session keeps, across all threads. It counts
/// events, not bytes: the file grows with span names and args (about
/// 138 bytes per event on the benchmark's update_feed spans, 144.6 MB
/// for a full budget).
inline constexpr size_t kTraceEventBudget = size_t{1} << 20;

namespace internal {

extern std::atomic<bool> g_tracing_enabled;

/// Thread-local query id; every span/instant recorded while it is
/// nonzero gets a "qid" arg appended. See QueryIdScope.
extern thread_local uint64_t tl_query_id;

/// Monotonic time in nanoseconds (steady_clock).
uint64_t MonotonicNowNs();

struct SpanArg {
  const char* key = nullptr;  // must be a string literal / static storage
  int64_t value = 0;
};

inline constexpr size_t kMaxSpanArgs = 6;

void RecordComplete(std::string_view name, uint64_t start_ns, uint64_t end_ns,
                    const SpanArg* args, size_t num_args);
void RecordInstant(std::string_view name);

}  // namespace internal

/// True while a trace session is active. Relaxed load; safe anywhere.
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Begins a trace session: clears all buffered events and enables
/// recording. Idempotent while already tracing.
void StartTracing();

/// Ends the session and writes the buffered events to `path` as a
/// Chrome trace_event JSON document, streamed in chunks (the document
/// is never held whole in memory). The events dropped past the budget
/// are recorded as `"otherData":{"dropped_events":N}`. Returns the
/// number of events written. No-op session (never started) still
/// writes a valid empty trace.
Result<size_t> StopTracing(const std::string& path);

/// Ends the session and returns the JSON document (tests, in-memory
/// sinks).
std::string StopTracingToJson();

/// Events dropped because the session had used up kTraceEventBudget,
/// during the current/last session.
size_t DroppedEvents();

/// RAII span. Records one complete ('X') event on destruction when a
/// session was active at construction. Name must outlive the span
/// (string literals and rule labels both qualify); it is copied into
/// the event buffer only when recording.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) {
    if (TracingEnabled()) {
      active_ = true;
      name_ = name;
      start_ns_ = internal::MonotonicNowNs();
    }
  }
  ~TraceSpan() {
    if (active_) {
      internal::RecordComplete(name_, start_ns_, internal::MonotonicNowNs(),
                               args_, num_args_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a key/value pair shown in the trace viewer's args panel.
  /// `key` must be a string literal. Silently drops beyond capacity.
  void AddArg(const char* key, int64_t value) {
    if (active_ && num_args_ < internal::kMaxSpanArgs) {
      args_[num_args_++] = internal::SpanArg{key, value};
    }
  }

  bool active() const { return active_; }

 private:
  bool active_ = false;
  uint64_t start_ns_ = 0;
  std::string_view name_;
  internal::SpanArg args_[internal::kMaxSpanArgs];
  size_t num_args_ = 0;
};

/// Records a zero-duration instant event.
inline void TraceInstant(std::string_view name) {
  if (TracingEnabled()) internal::RecordInstant(name);
}

/// RAII query-id attribution: while alive, every span this thread
/// records carries a "qid" arg, which is what makes a Chrome trace of
/// an N-session server run attributable query by query. Scopes nest
/// (the previous id is restored on destruction); id 0 means
/// "unattributed" and adds nothing. The parallel engine opens one per
/// morsel on each worker lane from EvalOptions::query_id, so worker
/// spans attribute to the query that scheduled them.
class QueryIdScope {
 public:
  explicit QueryIdScope(uint64_t id) : prev_(internal::tl_query_id) {
    internal::tl_query_id = id;
  }
  ~QueryIdScope() { internal::tl_query_id = prev_; }
  QueryIdScope(const QueryIdScope&) = delete;
  QueryIdScope& operator=(const QueryIdScope&) = delete;

 private:
  uint64_t prev_;
};

/// The thread's current query id (0 = none).
inline uint64_t CurrentTraceQueryId() { return internal::tl_query_id; }

#else  // SEMOPT_DISABLE_TRACING: every entry point is an inline no-op.

inline constexpr bool kTracingCompiledIn = false;

inline bool TracingEnabled() { return false; }
inline void StartTracing() {}
inline Result<size_t> StopTracing(const std::string&) { return size_t{0}; }
inline std::string StopTracingToJson() {
  return "{\"traceEvents\":[]}\n";
}
inline size_t DroppedEvents() { return 0; }

class TraceSpan {
 public:
  explicit TraceSpan(std::string_view) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  void AddArg(const char*, int64_t) {}
  bool active() const { return false; }
};

inline void TraceInstant(std::string_view) {}

class QueryIdScope {
 public:
  explicit QueryIdScope(uint64_t) {}
  QueryIdScope(const QueryIdScope&) = delete;
  QueryIdScope& operator=(const QueryIdScope&) = delete;
};

inline uint64_t CurrentTraceQueryId() { return 0; }

#endif  // SEMOPT_DISABLE_TRACING

/// RAII file-scoped session: starts tracing when `path` is non-empty
/// and no session is already running, and stops + writes to `path` on
/// destruction. When a session is already active (e.g. the shell's
/// `:trace`), does nothing — the outer session owns the file. This is
/// how `EvalOptions::trace_path` is honored without double-starting.
class ScopedTraceFile {
 public:
  explicit ScopedTraceFile(const std::string& path) {
    if (!path.empty() && !TracingEnabled()) {
      path_ = path;
      StartTracing();
    }
  }
  ~ScopedTraceFile() {
    // Best-effort: an unwritable path must not fail the computation.
    if (!path_.empty()) StopTracing(path_);
  }
  ScopedTraceFile(const ScopedTraceFile&) = delete;
  ScopedTraceFile& operator=(const ScopedTraceFile&) = delete;

 private:
  std::string path_;
};

}  // namespace obs
}  // namespace semopt

#endif  // SEMOPT_OBS_TRACE_H_
