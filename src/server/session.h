#ifndef SEMOPT_SERVER_SESSION_H_
#define SEMOPT_SERVER_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <mutex>
#include <optional>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "eval/plan_cache.h"
#include "eval/query.h"
#include "obs/query_log.h"
#include "server/materialized_view.h"
#include "server/scheduler.h"
#include "storage/snapshot.h"
#include "util/result.h"

namespace semopt {

/// How a session reaches the database it runs against. Two
/// implementations:
///  - the interactive shell owns its Database outright and hands out
///    Unmanaged snapshots (single-threaded, no isolation needed);
///  - the query server fronts a SnapshotStore shared by every session,
///    so Snapshot() pins a frozen generation and ApplyWrite() publishes
///    the next one.
/// The processor below is written against this interface only, which
/// is what makes one command set serve both.
class DatabaseHost {
 public:
  virtual ~DatabaseHost() = default;

  /// A read view of the database as of now. Under a server host this
  /// pins a generation: concurrent writers publish new generations
  /// without disturbing it.
  virtual DatabaseSnapshot Snapshot() = 0;

  /// Applies `fn` to the database. Under a server host the mutation
  /// runs on a private clone and is published atomically; readers
  /// never observe it half-applied. The written database starts with
  /// no view manifest (a server clone carries none; a local host
  /// clears its own), so only a view's own write can stamp one.
  /// Returns the resulting epoch.
  virtual Result<uint64_t> ApplyWrite(
      const std::function<Status(Database*)>& fn) = 0;

  /// The epoch of the newest published generation. Every ApplyWrite
  /// moves it by exactly one (a local host counts its writes), so
  /// inside a write's `fn` it names the generation being written over.
  virtual uint64_t head_epoch() = 0;

  /// The plan cache every evaluation of this session borrows. May be
  /// shared across sessions (SharedPlanCache) or private (PlanCache);
  /// never null.
  virtual PlanCacheInterface* plan_cache() = 0;

  /// Admission control for query execution; null = run immediately
  /// (local shell).
  virtual SessionScheduler* scheduler() { return nullptr; }

  /// The host's structured query log (one JSON line per query); null =
  /// no logging. A session may shadow it with its own `:qlog` file.
  virtual obs::QueryLog* query_log() { return nullptr; }

  /// Applies one mixed update batch — `dels` removed, then `adds`
  /// inserted — through ApplyWrite, so under a server host the batch
  /// publishes as one generation. When a materialized view is
  /// installed, the same write also maintains and republishes the IDB:
  /// a reader pinning the next snapshot sees base and derived facts
  /// move together, with no full recomputation on the incremental
  /// path. Returns the batch's maintenance stats (EDB-only counters
  /// when no view is installed).
  Result<IvmStats> ApplyUpdate(const std::vector<Atom>& adds,
                               const std::vector<Atom>& dels);

  /// Installs a materialized view of `program` over the current
  /// database and publishes its IDB, stamping the generation with the
  /// view's manifest. Replaces any previous view. Returns the number
  /// of IDB tuples materialized.
  Result<size_t> Materialize(const Program& program,
                             const EvalOptions& options,
                             MaterializedView::Mode mode);

  /// Drops the installed view, as a write that publishes a generation
  /// without a manifest. The already-published IDB relations stay in
  /// the database as plain facts; they simply stop being maintained
  /// (and stop being read as the view). Returns false if no view was
  /// installed.
  bool Dematerialize();

  /// Mode of the installed view, or nullopt when none is installed.
  std::optional<MaterializedView::Mode> view_mode();

  /// Running maintenance totals of the installed view (zeroes when no
  /// view is installed).
  IvmStats view_totals();

 private:
  /// The installed view, guarded by `view_mu_` (hosts are shared by
  /// every session; the write path itself serializes in ApplyWrite,
  /// but Materialize/Dematerialize race with it from other sessions).
  std::mutex view_mu_;
  std::unique_ptr<MaterializedView> view_;
  /// Epoch of the generation the view's last write published. The
  /// view maintains a private copy of the base relations, which match
  /// the database only while no other write has landed since; a view
  /// write over any other generation still publishes the IDB, but
  /// without a manifest, so no reader takes it as current. A failed
  /// view write sets kViewOutOfSync, which no epoch equals: the view
  /// took part of the batch, the database none. Guarded by `view_mu_`.
  static constexpr uint64_t kViewOutOfSync = UINT64_MAX;
  uint64_t view_epoch_ = kViewOutOfSync;
};

/// One session's command interpreter: the parse/dispatch/format logic
/// behind both the interactive shell and every server connection.
/// Holds the session-private state — the rule program, evaluation
/// options, last stats — and reaches shared state (database, plan
/// cache, scheduler) only through the DatabaseHost.
///
/// Input forms (one per Execute call):
///   p(X) :- q(X).            add a rule (session-private)
///   a(X), X > 3 -> b(X).     add an integrity constraint
///   edge(a, b).              add a fact (a database write)
///   ?- p(X), X != a.         run a query
///   .command [args]          commands (see `.help`)
class SessionCommandProcessor {
 public:
  explicit SessionCommandProcessor(DatabaseHost* host);

  /// Executes one input line and returns the text to display.
  std::string Execute(std::string_view line);

  /// True once `.quit` has been executed.
  bool done() const { return done_; }

  const Program& program() const { return program_; }
  const EvalOptions& eval_options() const { return eval_options_; }

  /// Sets the session's default evaluation thread count (the server
  /// applies its per-query budget here; `:threads` can change it
  /// later).
  void set_num_threads(size_t n) { eval_options_.num_threads = n; }

  /// This session's process-unique id (stamped into every profile).
  uint64_t session_id() const { return session_id_; }

  /// The profile of the most recent query (valid once a query ran).
  const obs::QueryProfile& last_profile() const { return last_profile_; }
  bool have_last_profile() const { return have_last_profile_; }

 private:
  std::string HandleCommand(std::string_view line);
  std::string HandleQuery(std::string_view body_text);
  std::string HandleStatements(std::string_view text);
  std::string HandleRetraction(std::string_view text);

  /// The full query pipeline — parse, classify, admit, pin, evaluate,
  /// render — accumulating a QueryProfile at every phase boundary and
  /// recording it to the effective query log (even on error paths).
  /// `force_metrics` turns on collect_metrics for this run (`:profile`).
  std::string RunQueryProfiled(std::string_view body_text,
                               bool force_metrics);

  /// The query log this session records to: its private `:qlog` file
  /// when open, else the host's.
  obs::QueryLog* EffectiveQueryLog();

  /// The slicer of the current program, built on first use after the
  /// program changed.
  const ProgramSlicer& Slicer();

  std::string CmdHelp() const;
  std::string CmdProgram() const;
  std::string CmdDb(const std::vector<std::string>& args);
  std::string CmdOptimize(const std::vector<std::string>& args);
  std::string CmdResidues() const;
  std::string CmdCheck();
  std::string CmdMagic(std::string_view rest);
  std::string CmdExplain(std::string_view rest);
  std::string CmdLoad(const std::vector<std::string>& args);
  std::string CmdLoadTsv(const std::vector<std::string>& args);
  std::string CmdDump(const std::vector<std::string>& args);
  std::string CmdLoadBinary(const std::vector<std::string>& args);
  std::string CmdSimd(const std::vector<std::string>& args);
  std::string CmdPlanner(const std::vector<std::string>& args);
  std::string CmdMaterialize(const std::vector<std::string>& args);

  std::string CmdThreads(const std::vector<std::string>& args);
  std::string CmdBatch(const std::vector<std::string>& args);
  std::string CmdTrace(const std::vector<std::string>& args);
  std::string CmdMetrics(const std::vector<std::string>& args);
  std::string CmdPlan(const std::vector<std::string>& args);
  std::string CmdProfile(std::string_view rest);
  std::string CmdStats();
  std::string CmdQlog(const std::vector<std::string>& args);
  std::string CmdSlowlog(const std::vector<std::string>& args);
  std::string CmdBudget(const std::vector<std::string>& args);

  DatabaseHost* host_;
  Program program_;
  /// Slicing data of program_ (Slicer()); every change to program_
  /// resets it.
  std::unique_ptr<const ProgramSlicer> slicer_;
  /// Options applied to every query evaluation (`:threads`, `:metrics`
  /// edit it); plan_cache points at host_->plan_cache().
  EvalOptions eval_options_;
  /// Destination of the running `:trace` session ("" = no session).
  std::string trace_path_;
  /// Stats of the most recent evaluation, shown by `:metrics`.
  EvalStats last_stats_;
  bool have_last_stats_ = false;
  bool show_stats_ = false;
  bool done_ = false;

  /// Process-unique session id, stamped into every query's profile.
  uint64_t session_id_ = 0;
  /// View manifest of the generation the most recent query read: the
  /// admission class of the next query is computed against it.
  std::shared_ptr<const ViewManifest> last_manifest_;
  /// Text of the most recent `?-` query (`:profile` with no argument
  /// re-runs it).
  std::string last_query_;
  /// Breakdown of the most recent query.
  obs::QueryProfile last_profile_;
  bool have_last_profile_ = false;
  /// Session-private query log opened with `:qlog FILE` (shadows the
  /// host's); null = log to host_->query_log().
  std::unique_ptr<obs::QueryLog> own_query_log_;
};

}  // namespace semopt

#endif  // SEMOPT_SERVER_SESSION_H_
