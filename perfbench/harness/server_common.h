#ifndef PERFBENCH_HARNESS_SERVER_COMMON_H_
#define PERFBENCH_HARNESS_SERVER_COMMON_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ast/program.h"
#include "harness/common.h"
#include "server/server.h"

namespace perfbench {

/// A query server started over an empty database and bulk-loaded from a
/// binary snapshot with `:load`, with the control connection that
/// loaded it.
struct LoadedServer {
  std::unique_ptr<semopt::QueryServer> server;
  std::unique_ptr<Client> control;
};

/// Starts the server both server workloads use (one evaluation lane per
/// query, admission heavy=2 light=2) and loads `snapshot` into it;
/// `bulk_load_us` receives the loader's own time from the reply.
LoadedServer StartLoadedServer(const std::string& snapshot,
                               double* bulk_load_us);

/// The rules and ICs of `program`, one request line each.
std::vector<std::string> ProgramStatements(const semopt::Program& program);

/// One query a connection sent during the traced phase: its class (an
/// index into the workload's class names) and the client-observed
/// latency from send to the last response byte.
struct SentQuery {
  int cls = 0;
  double latency_us = 0;
};

/// A connection's traced-phase queries and the session query log
/// (`:qlog FILE`) that recorded the server's side of each, in order.
struct ConnectionTrace {
  std::vector<SentQuery> sent;
  std::string qlog_path;
};

/// Derives the protocol, session, scheduler, snapshot-pin and
/// evaluation layer metrics per query class by pairing each client
/// sample with its query-log record. `class_names[i]` names class i.
void AddQueryLogLayers(const std::vector<ConnectionTrace>& connections,
                       const std::vector<std::string>& class_names,
                       Outcome* out);

/// Server-wide counters read before and after the traced phase: the
/// shared plan cache's public accessors and a `:stats` dump.
struct ServerCounters {
  size_t plan_hits = 0;
  size_t plan_misses = 0;
  size_t plan_evictions = 0;
  std::map<std::string, double> stats;
};
ServerCounters ReadServerCounters(semopt::QueryServer& server,
                                  Client& control);

/// Plan-cache and snapshot-store layer metrics from two readings.
void AddServerCounterLayers(const ServerCounters& before,
                            const ServerCounters& after,
                            size_t live_generations_max, Outcome* out);

/// Polls SnapshotStore::live_generations() every 200 us on a background
/// thread and keeps the maximum.
class GenerationSampler {
 public:
  explicit GenerationSampler(semopt::SnapshotStore* store);
  ~GenerationSampler();
  GenerationSampler(const GenerationSampler&) = delete;
  GenerationSampler& operator=(const GenerationSampler&) = delete;

  /// Stops polling; returns the largest count seen.
  size_t Stop();

 private:
  semopt::SnapshotStore* store_;
  std::atomic<bool> running_{true};
  std::atomic<size_t> max_{0};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVER_COMMON_H_
