#include "server/materialized_view.h"

#include <chrono>
#include <map>
#include <utility>

#include "eval/query.h"
#include "util/string_util.h"

namespace semopt {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Result<Tuple> GroundTuple(const Atom& fact) {
  Tuple tuple;
  tuple.reserve(fact.args().size());
  for (const Term& t : fact.args()) {
    if (!t.IsConstant()) {
      return Status::InvalidArgument(
          StrCat("fact ", fact.ToString(), " is not ground"));
    }
    tuple.push_back(t);
  }
  return tuple;
}

}  // namespace

Status ApplyEdbBatch(Database* db, const std::vector<Atom>& adds,
                     const std::vector<Atom>& dels) {
  // Deletions first, grouped per predicate into one Erase pass each.
  std::map<PredicateId, TupleBuffer> victims;
  for (const Atom& fact : dels) {
    SEMOPT_ASSIGN_OR_RETURN(Tuple tuple, GroundTuple(fact));
    auto [it, inserted] = victims.try_emplace(
        fact.pred_id(), static_cast<uint32_t>(tuple.size()));
    it->second.Append(tuple);
  }
  for (auto& [pred, buf] : victims) {
    if (Relation* rel = db->FindMutable(pred)) rel->Erase(buf);
  }
  for (const Atom& fact : adds) {
    SEMOPT_RETURN_IF_ERROR(db->AddFact(fact));
  }
  return Status::Ok();
}

Result<std::unique_ptr<MaterializedView>> MaterializedView::Create(
    const Program& program, const Database& base, EvalOptions options,
    Mode mode) {
  auto view = std::unique_ptr<MaterializedView>(
      new MaterializedView(mode, program, options));
  view->manifest_ = std::make_shared<const ViewManifest>(ManifestOf(program));
  if (mode == Mode::kIncremental) {
    SEMOPT_ASSIGN_OR_RETURN(
        IncrementalEvaluator inc,
        IncrementalEvaluator::Create(program, base.Clone(), options));
    view->inc_ = std::make_unique<IncrementalEvaluator>(std::move(inc));
  } else {
    view->edb_ = base.Clone();
    SEMOPT_ASSIGN_OR_RETURN(view->idb_,
                            Evaluate(program, view->edb_, options));
  }
  return view;
}

Result<IvmStats> MaterializedView::Apply(const std::vector<Atom>& adds,
                                         const std::vector<Atom>& dels,
                                         Database* db) {
  IvmStats batch;
  if (mode_ == Mode::kIncremental) {
    SEMOPT_ASSIGN_OR_RETURN(batch, inc_->ApplyUpdates(adds, dels));
  } else {
    // Recompute baseline: mutate our EDB copy, then pay the full
    // fixpoint. Only the EDB and wall-time counters are meaningful —
    // a recomputation has no notion of per-tuple deltas.
    const uint64_t start_us = NowUs();
    const size_t before = edb_.TotalTuples();
    SEMOPT_RETURN_IF_ERROR(ApplyEdbBatch(&edb_, adds, dels));
    SEMOPT_ASSIGN_OR_RETURN(idb_, Evaluate(program_, edb_, options_));
    batch.batches = 1;
    const size_t after = edb_.TotalTuples();
    batch.edb_inserted = after > before ? after - before : 0;
    batch.edb_deleted = before > after ? before - after : 0;
    batch.maintenance_us = NowUs() - start_us;
    // Deliberately not published to eval.ivm.*: those counters mean
    // "incremental maintenance ran"; a recompute leg reports only
    // through its own wall time.
    totals_.Add(batch);
  }
  SEMOPT_RETURN_IF_ERROR(ApplyEdbBatch(db, adds, dels));
  PublishInto(db);
  if (mode_ == Mode::kIncremental) totals_ = inc_->totals();
  return batch;
}

void MaterializedView::PublishInto(Database* db) const {
  db->MergeSharedFrom(mode_ == Mode::kIncremental ? inc_->idb() : idb_);
}

size_t MaterializedView::idb_tuples() const {
  return mode_ == Mode::kIncremental ? inc_->idb().TotalTuples()
                                     : idb_.TotalTuples();
}

}  // namespace semopt
