#ifndef SEMOPT_EVAL_QUERY_H_
#define SEMOPT_EVAL_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "analysis/dependency_graph.h"
#include "ast/program.h"
#include "eval/fixpoint.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// The answer to a query: one row per distinct binding of the
/// projection variables, in derivation order.
struct QueryResult {
  /// The projected variables, in the order given to AnswerQuery.
  std::vector<SymbolId> variables;
  std::vector<Tuple> tuples;

  bool empty() const { return tuples.empty(); }
  size_t size() const { return tuples.size(); }

  /// Renders one row per line: "X=a, Y=b".
  std::string ToString() const;
};

/// The program one query evaluates: the rule
/// `query$answer(projection) :- body` (labelled "query$", last) plus
/// only the session rules whose heads the query reaches through the
/// dependency graph, negative edges included. A predicate the view
/// manifest serves (see ProgramSlicer::Slice) drops out together with
/// everything only it reaches; evaluation then reads it as a stored
/// relation.
struct QueryProgram {
  Program program;
  /// The projected variables, in projection order.
  std::vector<SymbolId> variables;
  /// Recursion components (dependency-graph SCCs holding a rule head)
  /// of `program`, the query rule's own included, and of the whole
  /// session program plus the query rule.
  size_t components_evaluated = 0;
  size_t components_total = 0;
  /// Predicates the query reads from the view instead of deriving.
  std::vector<PredicateId> view_reads;

  /// True when the slice has rules to evaluate besides the query rule:
  /// answering it runs a fixpoint over derived predicates (the
  /// scheduler's heavy class). False for base-relation and view reads.
  bool heavy() const { return program.rules().size() > 1; }
};

/// The view manifest a view over `program` publishes: every rule's
/// label-free text, grouped and sorted by head predicate.
ViewManifest ManifestOf(const Program& program);

/// What slicing needs of one program, computed once: its dependency
/// graph, its recursion components, and its own manifest (the rule
/// texts a view manifest is compared with). Rendering a rule resolves
/// every symbol through the global interner, so a caller that answers
/// many queries over one program, such as a session, keeps one slicer
/// per program version instead of rendering on every query.
class ProgramSlicer {
 public:
  explicit ProgramSlicer(Program program);

  /// Builds the query program for `body`, projecting onto `projection`
  /// (each must be a variable). With a non-null `manifest` (the view
  /// manifest of the database the query will read), a derived
  /// predicate P is served by the view when the rules this program has
  /// for P and for every predicate P reaches equal, as label-free rule
  /// text, the rules the manifest lists for those predicates.
  Result<QueryProgram> Slice(const std::vector<Literal>& body,
                             const std::vector<Term>& projection,
                             const ViewManifest* manifest = nullptr) const;

 private:
  Program program_;
  DependencyGraph graph_;
  ViewManifest texts_;
  /// SCCs of the dependency graph that hold a rule head.
  std::vector<std::vector<PredicateId>> derived_sccs_;
};

/// One-off slicing: ProgramSlicer(program).Slice(...).
Result<QueryProgram> BuildQueryProgram(const Program& program,
                                       const std::vector<Literal>& body,
                                       const std::vector<Term>& projection,
                                       const ViewManifest* manifest = nullptr);

/// Evaluates a query program over `edb` and reads off the answers.
Result<QueryResult> EvaluateQueryProgram(const QueryProgram& query,
                                         const Database& edb,
                                         const EvalOptions& options,
                                         EvalStats* stats = nullptr);

/// Answers a conjunctive query `body` over `program`+`edb`, projecting
/// onto `projection` (each must be a variable occurring in the body):
/// BuildQueryProgram against `edb`'s own view manifest, then
/// EvaluateQueryProgram.
Result<QueryResult> AnswerQuery(const Program& program, const Database& edb,
                                const std::vector<Literal>& body,
                                const std::vector<Term>& projection,
                                const EvalOptions& options = EvalOptions(),
                                EvalStats* stats = nullptr);

/// Parses `query_text` (a literal list, e.g. "anc(X, Xa, Y, Ya), Ya > 50")
/// and answers it, projecting onto all its variables in first-occurrence
/// order.
Result<QueryResult> AnswerQuery(const Program& program, const Database& edb,
                                std::string_view query_text,
                                const EvalOptions& options = EvalOptions(),
                                EvalStats* stats = nullptr);

}  // namespace semopt

#endif  // SEMOPT_EVAL_QUERY_H_
