#include "harness/common.h"

#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "io/binary_io.h"
#include "obs/export.h"

namespace perfbench {

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

const std::vector<LayerSpec>& LayerMetrics() {
  // Request classes: lookup, bound, closure (serve_recursive) and read
  // (update_feed).
  static const std::vector<LayerSpec> kSpecs = [] {
    std::vector<LayerSpec> specs;
    for (const char* c : {"lookup", "bound", "closure", "read"}) {
      const std::string cls = c;
      specs.push_back({"server.protocol_us." + cls, "us"});
      specs.push_back({"server.scheduler.queue_wait_us." + cls + ".p50", "us"});
      specs.push_back({"server.scheduler.queue_wait_us." + cls + ".p99", "us"});
      specs.push_back({"storage.snapshot.pin_us." + cls, "us"});
      specs.push_back({"eval.fixpoint_us." + cls, "us"});
      specs.push_back({"eval.derived_per_answer." + cls, "tuple/answer"});
      specs.push_back({"eval.answers." + cls, "count"});
      specs.push_back({"eval.rounds." + cls, "count"});
      specs.push_back({"eval.bindings." + cls, "count"});
      specs.push_back({"eval.dup_ratio." + cls, "ratio"});
      specs.push_back({"exec.morsels." + cls, "count"});
    }
    specs.push_back({"server.session.parse_us", "us"});
    specs.push_back({"server.session.render_us", "us"});
    specs.push_back({"storage.snapshot.relations_cloned_per_write", "count"});
    specs.push_back({"storage.snapshot.writes", "count"});
    specs.push_back({"storage.snapshot.live_generations_max", "count"});
    specs.push_back({"storage.snapshot.cow_copy_us_per_batch", "us"});
    specs.push_back({"storage.snapshot.cow_share_of_write", "ratio"});
    specs.push_back({"eval.plan_cache.hit_ratio", "ratio"});
    specs.push_back({"eval.plan_cache.lookups", "count"});
    specs.push_back({"eval.plan_cache.evicted", "count"});
    specs.push_back({"exec.morsel_steals", "count"});
    specs.push_back({"eval.ivm.maintenance_us_per_batch", "us"});
    specs.push_back({"eval.ivm.overdeleted_per_batch", "count"});
    specs.push_back({"eval.ivm.rederived_per_batch", "count"});
    specs.push_back({"eval.ivm.recounted_per_batch", "count"});
    specs.push_back({"eval.ivm.useful_ratio", "ratio"});
    specs.push_back({"eval.ivm.touched", "count"});
    specs.push_back({"write.outside_ivm_us", "us"});
    specs.push_back({"generator.lag_us.p99", "us"});
    specs.push_back({"generator.backlog_batches", "count"});
    specs.push_back({"semopt.optimize_us.university", "us"});
    specs.push_back({"io.bulk_load_us", "us"});
    for (const char* phase :
         {"generate", "load", "materialize", "optimize", "warmup"}) {
      specs.push_back({std::string("setup.") + phase + "_s", "s"});
    }
    specs.push_back({"trace.overhead.ops_per_s", "1/s"});
    for (const char* op : {"op1", "op2", "op3"}) {
      for (const char* q : {"p50", "p90"}) {
        specs.push_back(
            {std::string("trace.overhead.") + op + "_" + q + "_us", "us"});
      }
    }
    return specs;
  }();
  return kSpecs;
}

void PhaseResult::Merge(const PhaseResult& other) {
  for (int c = 0; c < 3; ++c) op[c].Append(other.op[c]);
  attempted += other.attempted;
  failed += other.failed;
}

void AddPhaseMetrics(const PhaseResult& phase, std::vector<Metric>* out) {
  const double verified =
      static_cast<double>(phase.attempted - phase.failed);
  out->push_back({"ops_per_s", verified / phase.seconds, "1/s"});
  // The tail is reported at p90: the open-loop writer's p99 swings
  // several-fold between runs with stalls of the host (see README).
  static const char* const kNames[3][2] = {{"op1_p50_us", "op1_p90_us"},
                                           {"op2_p50_us", "op2_p90_us"},
                                           {"op3_p50_us", "op3_p90_us"}};
  for (int c = 0; c < 3; ++c) {
    out->push_back({kNames[c][0], phase.op[c].Percentile(0.50), "us"});
    out->push_back({kNames[c][1], phase.op[c].Percentile(0.90), "us"});
  }
}

PhaseResult UntracedHalves::Whole() const {
  PhaseResult whole = first;
  whole.Merge(second);
  whole.seconds = first.seconds + second.seconds;
  return whole;
}

void AddTraceOverhead(const UntracedHalves& untraced,
                      const PhaseResult& traced, Outcome* out) {
  std::vector<Metric> off, first, second, on;
  AddPhaseMetrics(untraced.Whole(), &off);
  AddPhaseMetrics(untraced.first, &first);
  AddPhaseMetrics(untraced.second, &second);
  AddPhaseMetrics(traced, &on);
  char line[256];
  for (size_t i = 0; i < off.size(); ++i) {
    const double overhead = on[i].value - off[i].value;
    const double noise = std::fabs(first[i].value - second[i].value);
    out->layers["trace.overhead." + off[i].name] = overhead;
    std::snprintf(line, sizeof(line),
                  "trace.overhead.%s = %+.1f %s; the untraced halves differ "
                  "by %.1f %s (%.1f%% of %.1f)",
                  off[i].name.c_str(), overhead, off[i].unit.c_str(), noise,
                  off[i].unit.c_str(),
                  off[i].value != 0 ? 100.0 * noise / off[i].value : 0.0,
                  off[i].value);
    out->table.push_back(line);
  }
}

void AddClassTable(const PhaseResult& phase, const char* const names[3],
                   std::vector<std::string>* table) {
  char line[256];
  for (int c = 0; c < 3; ++c) {
    const Samples& s = phase.op[c];
    std::snprintf(line, sizeof(line),
                  "%s_p50_us = %.1f us, %s_p90_us = %.1f us, %s_p99_us = "
                  "%.1f us (%zu samples)",
                  names[c], s.Percentile(0.50), names[c], s.Percentile(0.90),
                  names[c], s.Percentile(0.99), s.count());
    table->push_back(line);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string RunInChild(const std::function<std::string()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string out = fn();
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) ::_exit(3);
      off += static_cast<size_t>(n);
    }
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string result;
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    result.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Die("reference-answer child process failed");
  }
  return result;
}

void Digest::AddLine(std::string_view line) {
  ++rows;
  // FNV-1a, then a final mix: a stable per-row hash whose sum is
  // insensitive to row order.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : line) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  hash_sum += h;
}

void Digest::AddRow(semopt::RowRef row) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const semopt::Term& v : row) {
    if (v.kind() == semopt::TermKind::kIntConst) {
      mix(static_cast<uint64_t>(v.int_value()));
    } else {
      for (unsigned char ch : v.name()) mix(ch);
    }
    mix(0x9e3779b97f4a7c15ULL);  // value separator
  }
  ++rows;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  hash_sum += h;
}

Digest DigestRelation(const semopt::Database& db,
                      const semopt::PredicateId& pred) {
  Digest d;
  if (const semopt::Relation* rel = db.Find(pred)) {
    for (semopt::RowRef row : rel->rows()) d.AddRow(row);
  }
  return d;
}

double PhaseTimer::Stop() {
  span_.AddArg("peak_rss_kb", static_cast<int64_t>(PeakRssMb() * 1024.0));
  return SecondsSince(start_);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void AddSetupMetrics(const std::vector<SetupTimes>& reps,
                     std::vector<Metric>* e2e,
                     std::map<std::string, double>* layers) {
  auto median_of = [&reps](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& r : reps) v.push_back(r.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& r : reps) totals.push_back(r.Total());
  e2e->push_back({"setup_s", Median(totals), "s"});
  (*layers)["setup.generate_s"] = median_of(&SetupTimes::generate);
  (*layers)["setup.load_s"] = median_of(&SetupTimes::load);
  (*layers)["setup.materialize_s"] = median_of(&SetupTimes::materialize);
  (*layers)["setup.optimize_s"] = median_of(&SetupTimes::optimize);
  (*layers)["setup.warmup_s"] = median_of(&SetupTimes::warmup);
}

std::string RenderRow(const std::vector<std::string>& vars,
                      semopt::RowRef row) {
  std::ostringstream os;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) os << ", ";
    os << vars[i] << "=" << row[i];
  }
  return os.str();
}

Client::Client(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd_ < 0 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Die("cannot connect to the query server");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Request(const std::string& line, std::vector<std::string>* body) {
  body->clear();
  const std::string wire = line + "\n";
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  char buf[16384];
  while (true) {
    std::optional<std::string> received = lines_.PopLine();
    if (received.has_value()) {
      if (*received == ".") return true;
      body->push_back(semopt::DecodeBodyLine(*received));
      continue;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    lines_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

std::string Client::MustRequest(const std::string& line,
                                std::string_view expect_prefix) {
  std::vector<std::string> body;
  if (!Request(line, &body)) Die("transport failure on: " + line);
  std::string text;
  for (const std::string& l : body) text += l + "\n";
  if (text.compare(0, expect_prefix.size(), expect_prefix) != 0) {
    Die("unexpected reply to '" + line + "': " + text);
  }
  return text;
}

std::map<std::string, double> ParseStats(
    const std::vector<std::string>& body) {
  std::map<std::string, double> out;
  for (const std::string& line : body) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double StatDelta(const std::map<std::string, double>& before,
                 const std::map<std::string, double>& after,
                 const std::string& registry_name) {
  const std::string key = semopt::obs::PrometheusName(registry_name);
  auto value = [&](const std::map<std::string, double>& m) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

namespace {

/// Numeric value of `"key":<number>` in a flat JSON line (0 if absent).
/// The query log writes the scalar keys before any nested array, so
/// the first match is the top-level field.
double JsonNumber(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

std::string JsonString(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::string out;
  for (size_t i = at + needle.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out += line[++i];
    } else if (line[i] == '"') {
      break;
    } else {
      out += line[i];
    }
  }
  return out;
}

}  // namespace

std::vector<LogRecord> ReadQueryLog(const std::string& path) {
  std::vector<LogRecord> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    LogRecord r;
    r.query = JsonString(line, "query");
    r.ok = line.find("\"ok\":true") != std::string::npos;
    r.answers = JsonNumber(line, "answers");
    r.total_us = JsonNumber(line, "total_us");
    r.parse_us = JsonNumber(line, "parse_us");
    r.queue_wait_us = JsonNumber(line, "queue_wait_us");
    r.pin_us = JsonNumber(line, "pin_us");
    r.fixpoint_us = JsonNumber(line, "fixpoint_us");
    r.render_us = JsonNumber(line, "render_us");
    r.iterations = JsonNumber(line, "iterations");
    r.derived = JsonNumber(line, "derived");
    r.duplicates = JsonNumber(line, "duplicates");
    r.bindings = JsonNumber(line, "bindings");
    r.morsels = JsonNumber(line, "morsels");
    r.plan_cache_hits = JsonNumber(line, "plan_cache_hits");
    r.plan_cache_misses = JsonNumber(line, "plan_cache_misses");
    records.push_back(std::move(r));
  }
  return records;
}

void Die(const std::string& message) {
  std::cerr << "perfbench: " << message << std::endl;
  std::fflush(nullptr);
  // _Exit: server and client threads may still be running; static
  // destructors must not race them.
  std::_Exit(2);
}

uint64_t MustLoadBinary(const std::string& path, semopt::Database* db) {
  semopt::Result<semopt::BulkLoadStats> loaded =
      semopt::LoadBinaryFile(path, db);
  if (!loaded.ok()) Die(loaded.status().ToString());
  return loaded->micros;
}

}  // namespace perfbench
