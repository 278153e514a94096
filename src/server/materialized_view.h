#ifndef SEMOPT_SERVER_MATERIALIZED_VIEW_H_
#define SEMOPT_SERVER_MATERIALIZED_VIEW_H_

#include <memory>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "eval/incremental.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// Applies one mixed update batch to `db` directly: `dels` erased first
/// (absent tuples are no-ops), then `adds` inserted (set semantics).
/// The un-materialized write path — and the EDB half of the
/// materialized one.
Status ApplyEdbBatch(Database* db, const std::vector<Atom>& adds,
                     const std::vector<Atom>& dels);

/// A maintained materialization of a program's IDB, kept inside the
/// host's write path: every update batch refreshes the IDB *in the same
/// write generation* that carries the EDB change, so a reader pinning
/// the next snapshot sees base facts and derived facts move together.
///
/// Two maintenance modes, selected at creation:
///  - kIncremental routes batches through IncrementalEvaluator
///    (counting for non-recursive strata, DRed for recursive ones) —
///    O(|Δ|-affected) work per batch;
///  - kRecompute re-runs the full fixpoint per batch — the baseline the
///    E14 bench compares against, and a fallback for programs the
///    incremental path rejects.
class MaterializedView {
 public:
  enum class Mode { kIncremental, kRecompute };

  /// Materializes `program` over a copy of `base` (every relation of
  /// `base` is treated as EDB). `options` governs the initial fixpoint
  /// and, in incremental mode, the maintenance joins — point
  /// options.plan_cache at the host's shared cache so steady-state
  /// batches skip planning.
  static Result<std::unique_ptr<MaterializedView>> Create(
      const Program& program, const Database& base, EvalOptions options,
      Mode mode);

  /// Applies one update batch: maintains the IDB, applies the EDB
  /// changes to `db`, and re-shares the refreshed IDB relations into
  /// `db` (pointer copies — MergeSharedFrom). Call inside the host's
  /// write path so the whole effect publishes as one generation.
  Result<IvmStats> Apply(const std::vector<Atom>& adds,
                         const std::vector<Atom>& dels, Database* db);

  /// Shares the current IDB relations into `db` (used right after
  /// Create to publish the initial materialization). Both modes hold
  /// a relation for every maintained predicate, empty or not, so a
  /// stored relation of the same name never outlives the view's
  /// derivation of it.
  void PublishInto(Database* db) const;

  /// What this view's writes stamp on the generations they publish:
  /// the program's rules by the predicate they maintain.
  const std::shared_ptr<const ViewManifest>& manifest() const {
    return manifest_;
  }

  Mode mode() const { return mode_; }
  const Program& program() const { return program_; }
  /// Total IDB tuples currently materialized.
  size_t idb_tuples() const;
  /// Running maintenance totals across every Apply on this view.
  const IvmStats& totals() const { return totals_; }

 private:
  MaterializedView(Mode mode, Program program, EvalOptions options)
      : mode_(mode), program_(std::move(program)),
        options_(std::move(options)) {}

  Mode mode_;
  Program program_;
  EvalOptions options_;
  std::shared_ptr<const ViewManifest> manifest_;
  /// Incremental mode: the maintained evaluator (owns its EDB + IDB).
  std::unique_ptr<IncrementalEvaluator> inc_;
  /// Recompute mode: our own EDB copy and the latest full fixpoint.
  Database edb_;
  Database idb_;
  IvmStats totals_;
};

}  // namespace semopt

#endif  // SEMOPT_SERVER_MATERIALIZED_VIEW_H_
