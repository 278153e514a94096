#include "obs/trace.h"

#ifndef SEMOPT_DISABLE_TRACING

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/string_util.h"

namespace semopt {
namespace obs {

namespace internal {

std::atomic<bool> g_tracing_enabled{false};

thread_local uint64_t tl_query_id = 0;

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace internal

namespace {

using internal::SpanArg;

/// One buffered event. `name` is copied (short rule labels stay in the
/// SSO buffer, so recording a span rarely allocates).
struct TraceEvent {
  std::string name;
  char phase = 'X';  // 'X' complete, 'i' instant
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  SpanArg args[internal::kMaxSpanArgs];
  size_t num_args = 0;
};

struct ThreadBuffer {
  std::mutex mu;
  uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mu;
  /// Owns every thread's buffer; entries outlive their threads so a
  /// worker that exits before StopTracing still contributes events.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives threads
  return *registry;
}

/// Events offered to the session so far, kept or not: the first
/// kTraceEventBudget are kept, the rest are the dropped count.
std::atomic<size_t> g_offered{0};

thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& GetThreadBuffer() {
  if (tl_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffer->tid = registry.next_tid++;
    tl_buffer = buffer.get();
    registry.buffers.push_back(std::move(buffer));
  }
  return *tl_buffer;
}

void Append(TraceEvent event) {
  if (g_offered.fetch_add(1, std::memory_order_relaxed) >= kTraceEventBudget) {
    return;
  }
  ThreadBuffer& buffer = GetThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(std::move(event));
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          *out += hex;
        } else {
          *out += c;
        }
    }
  }
}

/// Appends one event as a Chrome trace_event JSON object.
/// Timestamps are microseconds with ns precision.
void AppendEventJson(std::string* out, uint32_t tid, const TraceEvent& e) {
  char buf[64];
  out->append("\n{\"name\":\"");
  AppendJsonEscaped(out, e.name);
  out->append("\",\"cat\":\"semopt\",\"ph\":\"");
  *out += e.phase;
  std::snprintf(buf, sizeof(buf), "\",\"pid\":1,\"tid\":%u,\"ts\":%.3f", tid,
                static_cast<double>(e.ts_ns) / 1000.0);
  out->append(buf);
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    out->append(buf);
  }
  if (e.phase == 'i') out->append(",\"s\":\"t\"");
  if (e.num_args > 0) {
    out->append(",\"args\":{");
    for (size_t i = 0; i < e.num_args; ++i) {
      if (i > 0) *out += ',';
      *out += '"';
      AppendJsonEscaped(out, e.args[i].key);
      std::snprintf(buf, sizeof(buf), "\":%lld",
                    static_cast<long long>(e.args[i].value));
      out->append(buf);
    }
    *out += '}';
  }
  *out += '}';
}

/// Disables recording, drains every thread buffer into `out` as one
/// Chrome trace_event JSON document, and returns the number of events
/// written. The document goes out in chunks of about 64 KiB, and each
/// buffer's storage is released as soon as it is written, so stopping
/// a full session never holds the events twice. In-flight span
/// destructors racing the stop may still append afterwards; their
/// events are cleared by the next StartTracing.
size_t StopAndWrite(std::ostream& out) {
  constexpr size_t kChunkBytes = size_t{1} << 16;
  internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
  std::string chunk = "{\"traceEvents\":[";
  size_t written = 0;
  Registry& registry = GetRegistry();
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const std::unique_ptr<ThreadBuffer>& buffer : registry.buffers) {
      std::vector<TraceEvent> events;
      {
        std::lock_guard<std::mutex> buffer_lock(buffer->mu);
        events.swap(buffer->events);
      }
      for (const TraceEvent& e : events) {
        if (written++ > 0) chunk += ',';
        AppendEventJson(&chunk, buffer->tid, e);
        if (chunk.size() >= kChunkBytes) {
          out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
          chunk.clear();
        }
      }
    }
  }
  chunk += StrCat("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                  "\"dropped_events\":",
                  DroppedEvents(), "}}\n");
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  return written;
}

}  // namespace

namespace internal {

void RecordComplete(std::string_view name, uint64_t start_ns, uint64_t end_ns,
                    const SpanArg* args, size_t num_args) {
  TraceEvent event;
  event.name.assign(name.data(), name.size());
  event.phase = 'X';
  event.ts_ns = start_ns;
  event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  event.num_args = num_args < kMaxSpanArgs ? num_args : kMaxSpanArgs;
  for (size_t i = 0; i < event.num_args; ++i) event.args[i] = args[i];
  // Query attribution (QueryIdScope): tagged centrally so every
  // existing span site inherits it without touching the site.
  if (tl_query_id != 0 && event.num_args < kMaxSpanArgs) {
    event.args[event.num_args++] =
        SpanArg{"qid", static_cast<int64_t>(tl_query_id)};
  }
  Append(std::move(event));
}

void RecordInstant(std::string_view name) {
  TraceEvent event;
  event.name.assign(name.data(), name.size());
  event.phase = 'i';
  event.ts_ns = MonotonicNowNs();
  if (tl_query_id != 0) {
    event.args[event.num_args++] =
        SpanArg{"qid", static_cast<int64_t>(tl_query_id)};
  }
  Append(std::move(event));
}

}  // namespace internal

void StartTracing() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const std::unique_ptr<ThreadBuffer>& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  g_offered.store(0, std::memory_order_relaxed);
  internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

Result<size_t> StopTracing(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
    return Status::InvalidArgument("cannot open trace file " + path);
  }
  const size_t events = StopAndWrite(out);
  out.close();
  if (!out) return Status::Internal("failed writing trace file " + path);
  return events;
}

std::string StopTracingToJson() {
  std::ostringstream out;
  StopAndWrite(out);
  return out.str();
}

size_t DroppedEvents() {
  const size_t offered = g_offered.load(std::memory_order_relaxed);
  return offered > kTraceEventBudget ? offered - kTraceEventBudget : 0;
}

}  // namespace obs
}  // namespace semopt

#endif  // SEMOPT_DISABLE_TRACING
