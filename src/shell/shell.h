#ifndef SEMOPT_SHELL_SHELL_H_
#define SEMOPT_SHELL_SHELL_H_

#include <string>
#include <string_view>

#include "ast/program.h"
#include "eval/plan_cache.h"
#include "server/session.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace semopt {

/// An interactive session over the library: accumulate rules, ICs and
/// facts, query, optimize, and inspect. The REPL binary
/// (`tools/semopt_shell`) is a thin loop over this class.
///
/// The command set itself lives in SessionCommandProcessor
/// (server/session.h) — the same interpreter every query-server
/// connection runs. The shell is the single-owner embedding: it holds
/// the Database and a session PlanCache directly and serves them
/// through a trivial DatabaseHost (unmanaged snapshots, in-place
/// writes, no scheduler).
///
/// Input forms:
///   p(X) :- q(X).            add a rule
///   a(X), X > 3 -> b(X).     add an integrity constraint ("-> ." = denial)
///   edge(a, b).              add a fact
///   ?- p(X), X != a.         run a query
///   .command [args]          session commands (see `.help`)
///   :threads N               evaluate queries with N worker threads
///   :batch N                 batched executor block size (1 = per-tuple)
///   :trace FILE / :trace off start/stop a Chrome trace_event session
///   :metrics [on|off]        per-rule metrics collection + report
///   :planner greedy|cost     join-order planner for query evaluation
///   :plan PRED               show each PRED rule's join plan
class Shell {
 public:
  Shell() : host_(), processor_(&host_) {}

  /// Executes one input line and returns the text to display.
  std::string Execute(std::string_view line) {
    return processor_.Execute(line);
  }

  /// True once `.quit` has been executed.
  bool done() const { return processor_.done(); }

  const Program& program() const { return processor_.program(); }
  const Database& database() const { return host_.db; }

  /// The underlying command processor (tests inspect query profiles
  /// and session state through it).
  const SessionCommandProcessor& processor() const { return processor_; }

 private:
  /// The single-owner host: the shell's Database and plan cache, no
  /// isolation machinery (one thread, no concurrent readers).
  struct LocalHost : DatabaseHost {
    DatabaseSnapshot Snapshot() override {
      return DatabaseSnapshot::Unmanaged(&db);
    }
    Result<uint64_t> ApplyWrite(
        const std::function<Status(Database*)>& fn) override {
      db.set_view_manifest(nullptr);
      const Status status = fn(&db);
      ++writes;  // a failed in-place write may still have changed db
      SEMOPT_RETURN_IF_ERROR(status);
      return writes;
    }
    uint64_t head_epoch() override { return writes; }
    PlanCacheInterface* plan_cache() override { return &cache; }

    Database db;
    uint64_t writes = 0;
    /// Session plan cache, borrowed by every evaluation: re-running a
    /// query re-traverses an already-seen cardinality-band trajectory,
    /// so steady-state runs hit every round (`:metrics` shows
    /// eval.plan_cache.hit/miss).
    PlanCache cache;
  };

  LocalHost host_;
  SessionCommandProcessor processor_;
};

}  // namespace semopt

#endif  // SEMOPT_SHELL_SHELL_H_
