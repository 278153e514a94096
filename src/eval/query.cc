#include "eval/query.h"

#include <algorithm>
#include <set>

#include "ast/rename.h"
#include "parser/parser.h"
#include "util/string_util.h"

namespace semopt {

std::string QueryResult::ToString() const {
  // Each name resolves through the global interner's mutex, which every
  // session shares: look the variables up once, not once per row.
  std::vector<std::string> prefixes;
  for (size_t i = 0; i < variables.size(); ++i) {
    prefixes.push_back(StrCat(i > 0 ? ", " : "", SymbolName(variables[i]),
                              "="));
  }
  std::string out;
  for (const Tuple& row : tuples) {
    for (size_t i = 0; i < variables.size(); ++i) {
      out += prefixes[i];
      out += row[i].ToString();
    }
    out += '\n';
  }
  return out;
}

ViewManifest ManifestOf(const Program& program) {
  ViewManifest manifest;
  for (const Rule& rule : program.rules()) {
    manifest.rules[rule.head().pred_id()].push_back(rule.UnlabeledText());
  }
  for (auto& [pred, texts] : manifest.rules) {
    std::sort(texts.begin(), texts.end());
  }
  return manifest;
}

ProgramSlicer::ProgramSlicer(Program program)
    : program_(std::move(program)),
      graph_(DependencyGraph::Build(program_)),
      texts_(ManifestOf(program_)) {
  for (std::vector<PredicateId>& scc : graph_.Sccs()) {
    const bool derived =
        std::any_of(scc.begin(), scc.end(), [&](const PredicateId& p) {
          return texts_.rules.count(p) > 0;
        });
    if (derived) derived_sccs_.push_back(std::move(scc));
  }
}

Result<QueryProgram> ProgramSlicer::Slice(const std::vector<Literal>& body,
                                          const std::vector<Term>& projection,
                                          const ViewManifest* manifest) const {
  QueryProgram query;
  for (const Term& t : projection) {
    if (!t.IsVariable()) {
      return Status::InvalidArgument(
          StrCat("projection term ", t.ToString(), " is not a variable"));
    }
    query.variables.push_back(t.symbol());
  }

  // View serving: P is served when every predicate P reaches (P
  // included) has exactly the manifest's rules, as label-free text.
  auto matches = [&](const PredicateId& p) {
    auto mine = texts_.rules.find(p);
    auto theirs = manifest->rules.find(p);
    if (theirs == manifest->rules.end()) return mine == texts_.rules.end();
    return mine != texts_.rules.end() && mine->second == theirs->second;
  };
  auto served = [&](const PredicateId& p) {
    if (manifest == nullptr) return false;
    for (const PredicateId& q : graph_.ReachableFrom(p)) {
      if (!matches(q)) return false;
    }
    return true;
  };

  // Relevance: the derived predicates the body reaches, following
  // positive and negative edges alike, stopping at view-served ones.
  std::set<PredicateId> needed;
  std::set<PredicateId> seen;
  std::vector<PredicateId> stack;
  for (const Literal& lit : body) {
    if (lit.IsRelational()) stack.push_back(lit.atom().pred_id());
  }
  while (!stack.empty()) {
    const PredicateId p = stack.back();
    stack.pop_back();
    if (!seen.insert(p).second || texts_.rules.count(p) == 0) continue;
    if (served(p)) {
      query.view_reads.push_back(p);
      continue;
    }
    needed.insert(p);
    for (const PredicateId& q : graph_.DependenciesOf(p)) stack.push_back(q);
  }
  std::sort(query.view_reads.begin(), query.view_reads.end());

  for (const Rule& rule : program_.rules()) {
    if (needed.count(rule.head().pred_id()) > 0) query.program.AddRule(rule);
  }
  // `$` keeps the answer predicate out of any parseable namespace.
  query.program.AddRule(
      Rule("query$", Atom("query$answer", projection), body));

  // The query rule is a component of its own in both counts: nothing
  // depends on query$answer, so it never joins another SCC.
  query.components_total = 1 + derived_sccs_.size();
  query.components_evaluated = 1;
  for (const std::vector<PredicateId>& scc : derived_sccs_) {
    if (needed.count(scc.front()) > 0) ++query.components_evaluated;
  }
  return query;
}

Result<QueryProgram> BuildQueryProgram(const Program& program,
                                       const std::vector<Literal>& body,
                                       const std::vector<Term>& projection,
                                       const ViewManifest* manifest) {
  return ProgramSlicer(program).Slice(body, projection, manifest);
}

Result<QueryResult> EvaluateQueryProgram(const QueryProgram& query,
                                         const Database& edb,
                                         const EvalOptions& options,
                                         EvalStats* stats) {
  QueryResult result;
  result.variables = query.variables;
  SEMOPT_ASSIGN_OR_RETURN(Database idb,
                          Evaluate(query.program, edb, options, stats));
  const Relation* answers = idb.Find(
      PredicateId{InternSymbol("query$answer"),
                  static_cast<uint32_t>(query.variables.size())});
  if (answers != nullptr) result.tuples = answers->CopyRows();
  return result;
}

Result<QueryResult> AnswerQuery(const Program& program, const Database& edb,
                                const std::vector<Literal>& body,
                                const std::vector<Term>& projection,
                                const EvalOptions& options,
                                EvalStats* stats) {
  SEMOPT_ASSIGN_OR_RETURN(
      QueryProgram query,
      BuildQueryProgram(program, body, projection,
                        edb.view_manifest().get()));
  return EvaluateQueryProgram(query, edb, options, stats);
}

Result<QueryResult> AnswerQuery(const Program& program, const Database& edb,
                                std::string_view query_text,
                                const EvalOptions& options,
                                EvalStats* stats) {
  SEMOPT_ASSIGN_OR_RETURN(std::vector<Literal> body,
                          ParseLiteralList(query_text));
  std::vector<Term> projection;
  for (SymbolId v : CollectVariables(body)) projection.push_back(Term::Var(v));
  return AnswerQuery(program, edb, body, projection, options, stats);
}

}  // namespace semopt
