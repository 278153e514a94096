#ifndef SEMOPT_EVAL_RULE_EXECUTOR_H_
#define SEMOPT_EVAL_RULE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "ast/rule.h"
#include "eval/cost_planner.h"
#include "eval/eval_stats.h"
#include "storage/relation.h"
#include "util/result.h"
#include "util/simd.h"

namespace semopt {

/// Resolves predicate names to stored relations during evaluation.
/// `Full` must return the current complete relation (or nullptr for an
/// absent/empty one). `Delta` returns the per-round delta relation for
/// predicates participating in the current semi-naive loop (nullptr when
/// the predicate has no delta, in which case Full is used).
class RelationSource {
 public:
  virtual ~RelationSource() = default;
  virtual const Relation* Full(const PredicateId& pred) const = 0;
  virtual const Relation* Delta(const PredicateId& pred) const = 0;
};

/// Receives each head tuple derived by a rule execution as a zero-copy
/// view. The view is only valid for the duration of the call: sinks
/// that keep tuples must copy them out (TupleBuffer::Append or
/// Relation::Insert both do).
using TupleSink = std::function<void(RowRef)>;

/// Receives derived head tuples a block at a time: a flat TupleBuffer
/// of up to the configured batch size, valid only for the duration of
/// the call (the executor recycles it for the next block). The batched
/// executor pays one sink dispatch per ~batch_size tuples instead of
/// one type-erased call per tuple.
using BatchSink = std::function<void(const TupleBuffer&)>;

/// A slot-compiled executor for one rule.
///
/// Construction validates safety (every literal can be ordered so its
/// variables are bound when needed) and assigns dense frame slots.
/// Execution plans the join order greedily — most-bound literals first,
/// evaluable literals as soon as their variables are bound, `=`
/// literals allowed to bind one side — with ties broken by the *actual
/// current cardinality* of each literal's relation, so cheap auxiliary
/// relations are probed before expensive fan-out joins. Joins run as
/// index nested loops probing hash indexes on the bound columns —
/// tuple-at-a-time through `ExecutePlan`, or block-at-a-time through
/// `ExecutePlanBatched`, which streams flat frame blocks through the
/// step pipeline so hashing, filtering and negation membership tests
/// run in tight loops over contiguous data.
class RuleExecutor {
 private:
  struct Plan;          // defined privately below; PreparedPlan keeps it opaque
  struct BatchContext;  // ditto; BatchScratch keeps it opaque

 public:
  /// Default frame/head block size for the batched executor: large
  /// enough to amortize per-block dispatch, small enough that a block
  /// of widest frames stays cache-resident (see DESIGN.md §10).
  static constexpr size_t kDefaultBatchSize = 1024;

  /// Sentinel `morsel_end`: no row-range restriction (the driving
  /// step — when one is marked at all — reads its whole relation).
  static constexpr size_t kNoMorsel = static_cast<size_t>(-1);

  /// A plan bound to the relation-cardinality snapshot it was built
  /// against, produced by `Prepare` and consumed by `ExecutePlan`.
  /// Cheap to copy (shared immutable state), safe to share across
  /// threads.
  class PreparedPlan {
   public:
    PreparedPlan() = default;

   private:
    friend class RuleExecutor;
    std::shared_ptr<const Plan> plan_;
  };

  /// Caller-owned reusable working state for `ExecutePlanBatched`:
  /// holding one per worker lane lets a morsel loop run thousands of
  /// executions (possibly of different plans) while touching the
  /// allocator only until every buffer has reached its steady-state
  /// capacity. Not thread-safe; one scratch serves one lane.
  class BatchScratch {
   public:
    BatchScratch();
    ~BatchScratch();
    BatchScratch(BatchScratch&&) noexcept;
    BatchScratch& operator=(BatchScratch&&) noexcept;

   private:
    friend class RuleExecutor;
    std::unique_ptr<BatchContext> ctx_;
  };

  /// Plans `rule`. Fails for unsafe rules.
  static Result<RuleExecutor> Create(const Rule& rule);

  /// Runs the rule to completion. `delta_literal` is an index into the
  /// ORIGINAL body (not the planned order) whose relation is read from
  /// `source.Delta(...)`; pass -1 to read everything from Full. Each
  /// derived head tuple is passed to `sink`. `stats` may be null.
  /// `size_aware` selects cardinality-aware planning (default); pass
  /// false to use the size-blind static order (ablation bench A1).
  /// Equivalent to Prepare + ExecutePlan. This per-tuple entry point is
  /// the compatibility surface for explain/incremental/constraint-check
  /// callers; the fixpoint engines go through Prepare +
  /// ExecutePlanBatched.
  void Execute(const RelationSource& source, int delta_literal,
               const TupleSink& sink, EvalStats* stats,
               bool size_aware = true,
               PlannerMode planner = PlannerMode::kGreedy) const;

  /// Plans against the current relation cardinalities of `source` and
  /// pre-builds (EnsureIndex) every hash index the plan will probe.
  /// This is the single point where evaluation mutates shared index
  /// state, so it must not run concurrently with ExecutePlan on the
  /// same relations; call it from the coordinator between rounds.
  /// When `skip_delta_index` is true the `delta_literal` step's index
  /// is left to the caller (legacy partitioned mode indexed each
  /// worker's private delta slice).
  ///
  /// `partition` selects the morsel-partitionable plan shape for the
  /// parallel engine: the delta occurrence (when there is one) is
  /// forced to the front of the join order and marked as the plan's
  /// *driving* step; with no delta the plan's first positive step is
  /// marked instead. Morsels then carve the driving relation's row
  /// range across workers, so no other literal is ever re-scanned per
  /// task (the E8 binding-blowup). The driving step is executed as a
  /// range scan, so its probe index is intentionally NOT built — a
  /// partitioned plan must be executed with a morsel range, and must
  /// never be replayed by the serial engine (the plan cache keys on
  /// `partition` for exactly this reason).
  /// `planner` selects the join-order planner: kGreedy keeps the
  /// one-pass heuristic; kCost runs CostPlanner::Enumerate over the
  /// positive relational literals (falling back to greedy outside its
  /// envelope) and resolves CostFeedback cells so executions of the
  /// plan feed actual binding counts back into the cost model. Both
  /// regimes respect the same structural invariants: the delta rotates
  /// to the front of partitioned plans, the driving step is marked
  /// after ordering, and batch fusion/tail emission run on the chosen
  /// order.
  Result<PreparedPlan> Prepare(const RelationSource& source,
                               int delta_literal, bool size_aware = true,
                               bool skip_delta_index = false,
                               bool partition = false,
                               PlannerMode planner = PlannerMode::kGreedy)
      const;

  /// Re-ensures every index `plan` probes still exists — a cheap no-op
  /// when they all do. The plan cache calls this on a hit: a cached
  /// plan's relations keep their indexes across rounds, but the
  /// semi-naive delta double-buffers swap relation objects, so a hit
  /// must still patch up an index missing on the freshly-swapped
  /// buffer. Same single-threaded coordinator contract as Prepare.
  void EnsurePlanIndexes(const PreparedPlan& plan,
                         const RelationSource& source, int delta_literal,
                         bool skip_delta_index = false) const;

  /// Executes a prepared plan tuple-at-a-time. Strictly read-only on
  /// the relations of `source` (all probed indexes exist by the Prepare
  /// contract), so concurrent calls with distinct sinks/stats are
  /// thread-safe.
  ///
  /// `[morsel_begin, morsel_end)` restricts the plan's driving step
  /// (Prepare with `partition`) to that row range of its relation —
  /// one morsel of the morsel-driven parallel engine. The union of the
  /// executions over a partition of the driving relation's rows equals
  /// the unrestricted execution (every derivation extends exactly one
  /// driving row), with the logical counters splitting exactly. The
  /// defaults leave unpartitioned plans untouched.
  void ExecutePlan(const PreparedPlan& plan, const RelationSource& source,
                   int delta_literal, const TupleSink& sink, EvalStats* stats,
                   size_t morsel_begin = 0,
                   size_t morsel_end = kNoMorsel) const;

  /// Executes a prepared plan block-at-a-time: every LiteralStep
  /// consumes a flat block of up to `batch_size` frames and emits the
  /// next block, and head tuples reach `sink` in TupleBuffer blocks.
  /// Derives exactly the same tuple multiset as ExecutePlan with
  /// identical logical counters (bindings/comparisons), in a different
  /// (breadth-first) order. Same thread-safety contract as ExecutePlan.
  /// `delta_literal` must be the value the plan was prepared with, or —
  /// when it was prepared with -1 — the plan's FirstPositiveStep (the
  /// parallel partitioner's split), which the batch lowering never
  /// fuses away.
  ///
  /// `[morsel_begin, morsel_end)` is the driving-step row range (see
  /// ExecutePlan). `scratch`, when given, is reused working state —
  /// pass one per worker lane so a stream of morsel executions stops
  /// allocating once buffers reach steady-state capacity.
  ///
  /// `vectorize` enables the data-parallel step implementations:
  /// selection-vector comparison filters, batch-hashed negation
  /// membership, column-wise probe-key gathers, and columnar
  /// (ColumnView + SIMD kernel) scan checks. The derived blocks and
  /// logical counters are bit-identical either way — only the
  /// evaluation schedule changes. The default follows the build/env
  /// gate; the fixpoint engines pass ResolveSimdMode(options.simd).
  void ExecutePlanBatched(const PreparedPlan& plan,
                          const RelationSource& source, int delta_literal,
                          const BatchSink& sink, EvalStats* stats,
                          size_t batch_size = kDefaultBatchSize,
                          size_t morsel_begin = 0,
                          size_t morsel_end = kNoMorsel,
                          BatchScratch* scratch = nullptr,
                          bool vectorize = simd::KernelsEnabled()) const;

  /// The original-body index of the driving step a partitioned Prepare
  /// marked (the literal whose relation morsels carve up), or -1 for
  /// plans prepared without `partition` and for bodies with no
  /// positive relational step.
  int DrivingLiteral(const PreparedPlan& plan) const;

  /// The original-body index of the first positive relational step in
  /// `plan`'s order, or -1 if the body has none. The parallel evaluator
  /// partitions this (outermost-scanned) literal's relation when there
  /// is no delta to partition.
  int FirstPositiveStep(const PreparedPlan& plan) const;

  /// The columns `plan` probes at the step for original-body literal
  /// `literal_index` (empty = full scan there). Workers use this to
  /// index private delta partitions before ExecutePlan.
  std::vector<uint32_t> ProbeColumnsFor(const PreparedPlan& plan,
                                        int literal_index) const;

  /// Human-readable description of `plan`: one line per step in
  /// execution order showing the literal, its access path (scan or
  /// probe[columns]) and the delta marker. Backs the shell's `:plan`.
  std::string DescribePlan(const PreparedPlan& plan,
                           int delta_literal = -1) const;

  const Rule& rule() const { return rule_; }

  /// `rule().ToString()`, rendered once at Create: the plan caches key
  /// every lookup on it, and rendering resolves every symbol through
  /// the global interner.
  const std::string& rule_text() const { return rule_text_; }

  /// The size-blind (static) evaluation order as original-body indices,
  /// for tests and plan inspection.
  const std::vector<size_t>& plan_order() const { return static_order_; }

  /// Number of variable slots in the execution frame.
  size_t slot_count() const { return slot_count_; }

 private:
  // How one term of a literal is fetched at run time.
  struct TermSpec {
    bool is_constant = false;
    Value constant = Term::Int(0);  // when is_constant
    uint32_t slot = 0;              // when !is_constant
    bool bound = false;  // statically known: bound before this literal
  };
  /// How one column of a positive relational step extends or filters a
  /// frame when a matching row comes back, precomputed at plan time so
  /// the batched join kernel is branch-light:
  ///  - kCheckConst: column must equal `constant` (scan path only;
  ///    probed columns are guaranteed equal by the index lookup)
  ///  - kCheckSlot:  column must equal the already-bound frame slot
  ///    (scan path only, same reason)
  ///  - kBind:       first occurrence of an unbound variable; writes
  ///    the row value into `slot`
  ///  - kCheckRepeat: later occurrence of a variable bound by a kBind
  ///    earlier in this same literal; compares the column against
  ///    `other_col`, the first occurrence's column in the same row
  struct ColumnAction {
    enum Kind : uint8_t { kCheckConst, kCheckSlot, kBind, kCheckRepeat };
    Kind kind = kBind;
    uint32_t col = 0;
    uint32_t slot = 0;
    uint32_t other_col = 0;  // kCheckRepeat: first occurrence's column
    Value constant = Term::Int(0);
  };
  /// A later non-binding relational step folded into a producing step's
  /// emit filter by the batch lowering (see Prepare). By the time the
  /// host step extends a frame, every argument of the fused literal is
  /// a constant, an already-bound frame slot, or a column the host
  /// binds from its matched row — so the whole step collapses to one
  /// membership test, and frames it rejects are never materialized into
  /// the next block. The per-tuple executor needs no such lowering: its
  /// depth-first recursion never materializes doomed frames to begin
  /// with.
  struct FusedCheck {
    struct Source {
      enum Kind : uint8_t { kConst, kFrame, kRow };
      Kind kind = kConst;
      uint32_t idx = 0;               // frame slot (kFrame) / row column (kRow)
      Value constant = Term::Int(0);  // kConst
    };
    PredicateId pred{0, 0};
    bool negated = false;
    size_t original_index = 0;  // body position of the fused literal
    std::vector<Source> sources;  // one per column of the fused literal
  };
  struct LiteralStep {
    size_t original_index = 0;  // position in rule_.body()
    bool is_comparison = false;
    bool negated = false;
    // Relational:
    PredicateId pred{0, 0};
    std::vector<TermSpec> args;
    std::vector<uint32_t> probe_columns;  // columns with bound TermSpecs
    /// Frame-extension recipe for the batched kernel, split so each
    /// inner loop runs without dead branches: a candidate row is first
    /// validated (reading only the row and the input frame — nothing is
    /// written until it matches), then the surviving frame is copied
    /// once and `bind_actions` writes the fresh bindings.
    /// `probe_checks` holds only within-literal repeat checks (the
    /// probe guarantees every bound column); `scan_checks` holds every
    /// check (full-scan path has no index guarantees).
    std::vector<ColumnAction> bind_actions;
    std::vector<ColumnAction> probe_checks;
    std::vector<ColumnAction> scan_checks;
    /// Batch-only: membership checks fused into this step's emit filter
    /// from immediately-following non-binding relational steps.
    std::vector<FusedCheck> fused;
    // Comparison:
    ComparisonOp op = ComparisonOp::kEq;
    TermSpec lhs, rhs;
    bool eq_binds = false;  // `=` with exactly one unbound variable side
  };
  struct Plan {
    std::vector<LiteralStep> steps;
    /// Index into `steps` of the morsel-driving step (Prepare with
    /// `partition`), or -1. The driving step is always executed as a
    /// range scan over `[morsel_begin, morsel_end)` of its relation —
    /// its probe index is never built — so each morsel touches a
    /// disjoint row range and no other literal is re-scanned per task.
    int driving_step = -1;
    /// Steps the batched executor runs, as indices into `steps`: the
    /// per-tuple order minus the pure-check steps fused into earlier
    /// hosts by FuseBatchChecks. The per-tuple executor always walks
    /// `steps` unchanged. The first positive relational step is never
    /// fused away (a fused check needs an earlier positive host), so a
    /// plan prepared with delta_literal = -1 may still be executed with
    /// the partitioner's FirstPositiveStep as the delta.
    std::vector<size_t> batch_steps;
    std::vector<TermSpec> head_specs;
    /// Batch-only tail emission: when the last batch step is a positive
    /// relational step, its extend loop projects head rows directly
    /// from (input frame, matched row) — the final (and largest) frame
    /// stream is never materialized into a block. One Source per head
    /// column, mirroring head_specs; `tail_emit` is false when the
    /// plan's shape disqualifies it (no batch steps, or a comparison /
    /// negated tail, which copy frames rather than extend them).
    std::vector<FusedCheck::Source> tail_head_sources;
    bool tail_emit = false;
    /// Per-step offsets into ExecContext::newly_bound (each step may
    /// bind at most its own arity of fresh slots).
    std::vector<size_t> scratch_offsets;
    size_t scratch_size = 0;
    /// Widest probe key / negated membership row / head tuple the plan
    /// ever materializes into the shared scratch row.
    size_t max_row_width = 0;
    /// Planner regime the plan was built under, and whether the cost
    /// enumerator's order was actually used (false under kCost means
    /// the body fell outside the enumerable envelope and the greedy
    /// order was kept; see CostPlanner::Enumerate).
    PlannerMode planner = PlannerMode::kGreedy;
    bool cost_ordered = false;
    /// Cost-ordered plans: estimated bindings per ORIGINAL body literal
    /// over a whole (unrestricted) execution; -1 for literals without
    /// an estimate. Drives DescribePlan's est/actual columns and the
    /// post-execution feedback fold.
    std::vector<double> est_rows;
    /// Cost-ordered plans: the CostFeedback cell per original body
    /// literal (nullptr where no estimate exists). Empty for greedy
    /// plans, so the greedy execution path never touches the store.
    std::vector<CostFeedback::Cell*> feedback;
  };

  /// Per-execution working state, allocated once in ExecutePlan and
  /// reused across the whole scan: no per-binding or per-derivation
  /// vectors on the join path.
  struct ExecContext {
    std::vector<Value> frame;          // slot values
    std::vector<char> bound;           // slot bound flags
    std::vector<uint32_t> newly_bound; // per-step slices (scratch_offsets)
    std::vector<Value> scratch_row;    // probe keys, negation rows, heads
    // Per original-body-literal positive-match counts for this
    // execution (the per-literal split of bindings_explored; feeds the
    // cost planner's feedback fold).
    std::vector<uint64_t> literal_bindings;
    // Driving-step row range (morsel); kNoMorsel = unrestricted.
    size_t morsel_begin = 0;
    size_t morsel_end = kNoMorsel;
  };

  /// A flat row-major block of execution frames (`rows * slot_count_`
  /// values). At every step boundary the set of bound slots is
  /// statically known (the planner's running bound set), so blocks
  /// carry no per-frame bound flags — unbound slots simply hold
  /// whatever the previous occupant left.
  struct FrameBlock {
    std::vector<Value> data;
    size_t rows = 0;

    void Clear() {
      data.clear();
      rows = 0;
    }
  };
  /// Per-step working state for one batched execution: the step's input
  /// block plus its probe scratch. Each step owns its scratch because a
  /// block flush recurses into deeper steps mid-iteration.
  struct StepScratch {
    FrameBlock input;
    std::vector<Value> keys;            // gathered probe keys, flat
    std::vector<size_t> key_hashes;     // ProbeBatch hash scratch
    std::vector<std::span<const RowId>> hit_spans;  // per-key matches
    std::vector<const Relation*> fused_rels;  // resolved per execution
    // Vectorized paths only: the scanned relation's columnar snapshot
    // plus the selection vectors of the column-at-a-time scan checks
    // (`base_sel` holds the frame-independent residue, `sel` the
    // per-frame refinement; comparisons/negation reuse `sel`).
    std::shared_ptr<const ColumnView> columns;
    std::vector<uint32_t> base_sel;
    std::vector<uint32_t> sel;
  };
  struct BatchContext {
    size_t batch_size = kDefaultBatchSize;
    std::vector<StepScratch> steps;
    std::vector<Value> row_scratch;  // negation rows, head rows
    TupleBuffer heads{0};
    size_t batches = 0;  // head blocks flushed to the sink
    // Driving-step row range (morsel); kNoMorsel = unrestricted.
    size_t morsel_begin = 0;
    size_t morsel_end = kNoMorsel;
    // Use the data-parallel step implementations (see
    // ExecutePlanBatched's `vectorize`).
    bool vectorize = true;
    // Logical counters, folded into EvalStats once at the end.
    size_t bindings = 0;
    size_t comparisons = 0;
    // Per original-body-literal split of `bindings` (cost-planner
    // feedback fold); zeroed per execution call.
    std::vector<uint64_t> literal_bindings;
  };

  RuleExecutor() : rule_("", Atom(SymbolId(0), {}), {}) {}

  /// Frame slot of variable `v`; binary search over the flat sorted
  /// slot table (rule bodies are small, so this beats a node-based map
  /// on the plan-construction path).
  uint32_t SlotFor(SymbolId v) const;

  /// Greedy planner. `size_of` estimates a literal's input cardinality
  /// (SIZE_MAX when unknown); pass nullptr for the size-blind plan.
  /// `force_first`, when >= 0, is an original-body index whose literal
  /// is scheduled as early as the safety/binding constraints allow —
  /// in practice first among the relational steps, since a positive
  /// literal needs no prior bindings. Partitioned Prepare uses it to
  /// rotate the delta occurrence to the front of the join order.
  /// `relational_order`, when given, replaces the greedy pick among the
  /// positive relational literals with that exact sequence of
  /// original-body indices (the cost enumerator's output); filters,
  /// negations and binding `=` still interleave at their earliest safe
  /// position exactly as under the greedy planner.
  Result<Plan> BuildPlan(const std::function<size_t(size_t)>* size_of,
                         int force_first = -1,
                         const std::vector<size_t>* relational_order =
                             nullptr) const;

  /// Materializes every index `plan` will probe on the relations it
  /// will read (delta-aware). The one mutation point of shared storage
  /// during evaluation; see Prepare.
  void EnsureProbeIndexes(const Plan& plan, const RelationSource& source,
                          int delta_literal, bool skip_delta_index) const;

  /// Batch lowering pass (Prepare): folds each contiguous run of
  /// non-binding, non-delta relational steps into the closest preceding
  /// positive relational step's `fused` list and drops them from
  /// `batch_steps`. Runs break at comparisons, negated survivors and
  /// binding steps so the logical counters (bindings/comparisons) stay
  /// bit-identical to the per-tuple order.
  static void FuseBatchChecks(Plan* plan, int delta_literal);

  /// Folds one execution call's per-original-literal match counts into
  /// the plan's CostFeedback cells (no-op for plans without feedback
  /// cells, i.e. every greedy plan). `[morsel_begin, morsel_end)`
  /// scales the whole-execution estimates down to this call's share of
  /// the driving relation, so a morsel execution records its slice of
  /// the estimate against its slice of the actuals.
  void RecordFeedback(const Plan& plan, const RelationSource& source,
                      int delta_literal,
                      const std::vector<uint64_t>& literal_bindings,
                      size_t morsel_begin, size_t morsel_end) const;

  void ExecuteStep(const Plan& plan, const RelationSource& source,
                   int delta_literal, size_t step_index, ExecContext* ctx,
                   const TupleSink& sink, EvalStats* stats) const;

  /// Batched engine: drains `ctx->steps[step_index].input` through the
  /// remaining steps, flushing intermediate blocks whenever they fill.
  void RunBatchFrom(const Plan& plan, const RelationSource& source,
                    int delta_literal, size_t step_index, BatchContext* ctx,
                    const BatchSink& sink) const;

  Rule rule_;
  std::string rule_text_;
  std::vector<size_t> static_order_;
  /// Variable→slot table, sorted by symbol id. Slots are dense
  /// 0..slot_count_-1 (asserted in Create): frame blocks index by slot.
  std::vector<std::pair<SymbolId, uint32_t>> slots_;
  size_t slot_count_ = 0;
};

}  // namespace semopt

#endif  // SEMOPT_EVAL_RULE_EXECUTOR_H_
