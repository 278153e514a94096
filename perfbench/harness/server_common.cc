#include "harness/server_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

namespace {

/// Microseconds the bulk loader reported in a `:load` reply
/// ("loaded R row(s) into N relation(s) (B byte(s), U us)").
double LoadReplyMicros(const std::string& reply) {
  const size_t end = reply.rfind(" us)");
  const size_t start =
      end == std::string::npos || end == 0 ? std::string::npos
                                           : reply.rfind(' ', end - 1);
  if (start == std::string::npos) Die("unexpected :load reply: " + reply);
  return std::strtod(reply.c_str() + start + 1, nullptr);
}

}  // namespace

LoadedServer StartLoadedServer(const std::string& snapshot,
                               double* bulk_load_us) {
  semopt::QueryServer::Options options;
  options.threads_per_query = 1;
  options.sched.max_heavy = 2;
  options.sched.max_light = 2;
  LoadedServer s;
  s.server =
      std::make_unique<semopt::QueryServer>(semopt::Database(), options);
  if (!s.server->Start().ok()) Die("server failed to start");
  s.control = std::make_unique<Client>(s.server->port());
  *bulk_load_us =
      LoadReplyMicros(s.control->MustRequest(":load " + snapshot, "loaded "));
  return s;
}

std::vector<std::string> ProgramStatements(const semopt::Program& program) {
  std::istringstream lines(program.ToString());
  std::vector<std::string> statements;
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) statements.push_back(line);
  }
  return statements;
}

void AddQueryLogLayers(const std::vector<ConnectionTrace>& connections,
                       const std::vector<std::string>& class_names,
                       Outcome* out) {
  struct ClassAcc {
    Samples protocol, queue, pin, fixpoint, rounds, bindings, morsels;
    double derived = 0, duplicates = 0, answers = 0;
  };
  std::vector<ClassAcc> acc(class_names.size());
  Samples parse, render;
  for (const ConnectionTrace& conn : connections) {
    const std::vector<LogRecord> records = ReadQueryLog(conn.qlog_path);
    if (records.size() != conn.sent.size()) {
      Die("query log " + conn.qlog_path + " holds " +
          std::to_string(records.size()) + " records for " +
          std::to_string(conn.sent.size()) + " queries");
    }
    for (size_t i = 0; i < records.size(); ++i) {
      const LogRecord& r = records[i];
      ClassAcc& a = acc[static_cast<size_t>(conn.sent[i].cls)];
      a.protocol.Add(conn.sent[i].latency_us - r.total_us);
      a.queue.Add(r.queue_wait_us);
      a.pin.Add(r.pin_us);
      a.fixpoint.Add(r.fixpoint_us);
      a.rounds.Add(r.iterations);
      a.bindings.Add(r.bindings);
      a.morsels.Add(r.morsels);
      a.derived += r.derived;
      a.duplicates += r.duplicates;
      a.answers += r.answers;
      parse.Add(r.parse_us);
      render.Add(r.render_us);
    }
  }
  char line[256];
  for (size_t c = 0; c < class_names.size(); ++c) {
    const std::string& n = class_names[c];
    const ClassAcc& a = acc[c];
    out->layers["server.protocol_us." + n] = a.protocol.Percentile(0.5);
    out->layers["server.scheduler.queue_wait_us." + n + ".p50"] =
        a.queue.Percentile(0.5);
    out->layers["server.scheduler.queue_wait_us." + n + ".p99"] =
        a.queue.Percentile(0.99);
    out->layers["storage.snapshot.pin_us." + n] = a.pin.Mean();
    out->layers["eval.fixpoint_us." + n] = a.fixpoint.Percentile(0.5);
    out->layers["eval.derived_per_answer." + n] =
        a.answers > 0 ? a.derived / a.answers : 0;
    out->layers["eval.answers." + n] = a.answers;
    out->layers["eval.rounds." + n] = a.rounds.Percentile(0.5);
    out->layers["eval.bindings." + n] = a.bindings.Mean();
    out->layers["eval.dup_ratio." + n] =
        a.derived + a.duplicates > 0
            ? a.duplicates / (a.derived + a.duplicates)
            : 0;
    out->layers["exec.morsels." + n] = a.morsels.Mean();
    std::snprintf(line, sizeof(line),
                  "eval.derived_per_answer.%s: %.0f derived tuples over "
                  "base %.0f answers in %zu queries",
                  n.c_str(), a.derived, a.answers, a.fixpoint.count());
    out->table.push_back(line);
  }
  out->layers["server.session.parse_us"] = parse.Mean();
  out->layers["server.session.render_us"] = render.Mean();
}

ServerCounters ReadServerCounters(semopt::QueryServer& server,
                                  Client& control) {
  ServerCounters c;
  c.plan_hits = server.plan_cache().hits();
  c.plan_misses = server.plan_cache().misses();
  c.plan_evictions = server.plan_cache().evictions();
  std::vector<std::string> body;
  if (!control.Request(":stats", &body)) Die("transport failure on :stats");
  c.stats = ParseStats(body);
  return c;
}

void AddServerCounterLayers(const ServerCounters& before,
                            const ServerCounters& after,
                            size_t live_generations_max, Outcome* out) {
  const double hits = static_cast<double>(after.plan_hits - before.plan_hits);
  const double misses =
      static_cast<double>(after.plan_misses - before.plan_misses);
  out->layers["eval.plan_cache.lookups"] = hits + misses;
  out->layers["eval.plan_cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  out->layers["eval.plan_cache.evicted"] =
      static_cast<double>(after.plan_evictions - before.plan_evictions);
  const double writes =
      StatDelta(before.stats, after.stats, "storage.snapshot.publishes");
  const double cloned =
      StatDelta(before.stats, after.stats, "storage.snapshot.relations_cloned");
  out->layers["storage.snapshot.writes"] = writes;
  out->layers["storage.snapshot.relations_cloned_per_write"] =
      writes > 0 ? cloned / writes : 0;
  out->layers["storage.snapshot.live_generations_max"] =
      static_cast<double>(live_generations_max);
  // Every query publishes its EvalStats under the "eval" prefix;
  // "exec.morsel_steals" only counts when collect_metrics is on.
  out->layers["exec.morsel_steals"] =
      StatDelta(before.stats, after.stats, "eval.morsel_steals");
  char line[256];
  std::snprintf(line, sizeof(line),
                "eval.plan_cache.hit_ratio: %.0f hits over base %.0f "
                "lookups (hits + misses)",
                hits, hits + misses);
  out->table.push_back(line);
  std::snprintf(line, sizeof(line),
                "storage.snapshot.relations_cloned_per_write: %.0f relations "
                "cloned over base %.0f published writes",
                cloned, writes);
  out->table.push_back(line);
}

GenerationSampler::GenerationSampler(semopt::SnapshotStore* store)
    : store_(store), thread_([this] {
        while (running_.load(std::memory_order_relaxed)) {
          const size_t live = store_->live_generations();
          if (live > max_.load(std::memory_order_relaxed)) {
            max_.store(live, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }) {}

GenerationSampler::~GenerationSampler() { Stop(); }

size_t GenerationSampler::Stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
  return max_.load();
}

}  // namespace perfbench
