#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "server/protocol.h"
#include "storage/database.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short warm-ups (the self-test).
  bool small = false;
  /// Flips one expected answer before the timed phase, so a correct
  /// engine must be reported as failing (the self-test of the oracle).
  bool corrupt_oracle = false;
  /// Directory for snapshots, query logs and the Chrome trace.
  std::string out_dir;
};

/// Number of set-up repetitions whose median is reported as setup_s.
inline constexpr int kSetupRepetitions = 3;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Exact percentiles over kept samples (linear interpolation between
/// closest ranks, as numpy's default). Log-bucket histograms are too
/// coarse for run-to-run comparison at the bounds the benchmark sets.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  double Percentile(double q) const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Wall time of one set-up phase, recorded as its own span with the
/// process's peak RSS at its end attached.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* span_name)
      : span_(span_name), start_(Clock::now()) {}
  /// Ends the measurement; the span closes when the timer dies.
  double Stop();

 private:
  semopt::obs::TraceSpan span_;
  Clock::time_point start_;
};

/// Durations of the set-up phases of one repetition, seconds. A phase
/// a workload does not have stays 0.
struct SetupTimes {
  double generate = 0, load = 0, materialize = 0, optimize = 0, warmup = 0;
  double Total() const {
    return generate + load + materialize + optimize + warmup;
  }
};

/// Adds setup_s (median total over the repetitions) to `e2e` and the
/// median of each phase to the per-layer map.
void AddSetupMetrics(const std::vector<SetupTimes>& reps,
                     std::vector<Metric>* e2e,
                     std::map<std::string, double>* layers);

/// Median of a few values.
double Median(std::vector<double> values);

/// What a workload reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The workload's end-to-end metrics under their generic names
  /// (setup_s, peak_rss_mb, ops_per_s, op{1,2,3}_p{50,90}_us).
  std::vector<Metric> e2e;
  /// Per-layer metrics by name (traced runs only); names must be
  /// declared in LayerMetrics().
  std::map<std::string, double> layers;
  /// Load shape stamped on the output: connections, lanes, sizes.
  std::string shape;
  /// Human-readable lines printed before the result: the workload's
  /// metrics under their class names, ratio bases, notes.
  std::vector<std::string> table;
};

/// Declared per-layer metric: name and unit. Every traced run reports
/// all of them; a layer the workload never enters reports 0.
struct LayerSpec {
  std::string name;
  std::string unit;
};
const std::vector<LayerSpec>& LayerMetrics();

/// Latency samples of a workload's three operation classes over one
/// timed phase, plus the phase's counts.
struct PhaseResult {
  Samples op[3];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0;  ///< measured length of the phase

  /// Folds another recorder of the same phase into this one.
  void Merge(const PhaseResult& other);
};

/// Adds ops_per_s and each class's p50 and p90 to `out`.
void AddPhaseMetrics(const PhaseResult& phase, std::vector<Metric>* out);

/// The untraced phase of a traced run, timed as two halves with the
/// traced phase's seed: their difference is the noise the tracing
/// overhead is read against.
struct UntracedHalves {
  PhaseResult first, second;
  /// Both halves as one phase.
  PhaseResult Whole() const;
};

/// Adds trace.overhead.<metric> = traced - untraced for every metric
/// AddPhaseMetrics reports, and a table line per metric that prints
/// the overhead next to the difference between the untraced halves.
void AddTraceOverhead(const UntracedHalves& untraced,
                      const PhaseResult& traced, Outcome* out);

/// Adds one table line per class: its p50, p90 and p99 under the
/// class's own name, with the sample count.
void AddClassTable(const PhaseResult& phase, const char* const names[3],
                   std::vector<std::string>* table);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Runs `fn` in a forked child and returns what it wrote. The child
/// computes the reference answers; its memory stays out of this
/// process's peak RSS. Call before this process starts any thread.
/// Aborts the run when the child fails.
std::string RunInChild(const std::function<std::string()>& fn);

/// Order-independent digest of an answer set: row count plus the sum
/// of per-row hashes. Equal sets give equal digests.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash_sum = 0;
  void AddLine(std::string_view line);
  /// Adds one stored row; hashes symbol text, not symbol ids, so
  /// digests agree across processes that interned in another order.
  void AddRow(semopt::RowRef row);
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash_sum == o.hash_sum;
  }
};

/// Digest of every row of `pred` in `db` (empty when absent).
Digest DigestRelation(const semopt::Database& db,
                      const semopt::PredicateId& pred);

/// Renders rows exactly as the server renders query answers
/// ("X=a, Y=b"), one per line, with `vars` naming the columns.
std::string RenderRow(const std::vector<std::string>& vars,
                      semopt::RowRef row);

/// Blocking request/response client of the query server's line
/// protocol. One request in flight at a time (no pipelining).
class Client {
 public:
  explicit Client(uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `line` and reads the whole response; returns false on a
  /// transport failure. The decoded body lines land in `body`.
  bool Request(const std::string& line, std::vector<std::string>* body);

  /// Request() that treats any transport failure or a response not
  /// starting with `expect_prefix` as fatal for the run (set-up steps).
  std::string MustRequest(const std::string& line,
                          std::string_view expect_prefix);

 private:
  int fd_ = -1;
  semopt::LineBuffer lines_;
};

/// Counters and gauges from a `:stats` (Prometheus text) response,
/// keyed by exported name ("semopt_storage_snapshot_publishes").
std::map<std::string, double> ParseStats(const std::vector<std::string>& body);

/// Difference of one counter between two `:stats` readings.
double StatDelta(const std::map<std::string, double>& before,
                 const std::map<std::string, double>& after,
                 const std::string& registry_name);

/// One record of the server's JSONL query log, the fields the
/// benchmark reads.
struct LogRecord {
  std::string query;
  bool ok = false;
  double answers = 0, total_us = 0, parse_us = 0, queue_wait_us = 0,
         pin_us = 0, fixpoint_us = 0, render_us = 0, iterations = 0,
         derived = 0, duplicates = 0, bindings = 0, morsels = 0,
         plan_cache_hits = 0, plan_cache_misses = 0;
};

/// Reads every record of a query-log file, in order.
std::vector<LogRecord> ReadQueryLog(const std::string& path);

/// Fatal error: prints to stderr and exits with code 2, so a broken
/// set-up never prints a result line.
[[noreturn]] void Die(const std::string& message);

/// Loads a binary snapshot into `db`, failing the run on error;
/// returns the loader's own time in microseconds.
uint64_t MustLoadBinary(const std::string& path, semopt::Database* db);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
