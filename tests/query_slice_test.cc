// Relevance slicing and view-served reads (eval/query.h) against full
// evaluation. The reference answer of every query is the `query$answer`
// relation of one plain Evaluate over the whole program plus the query
// rule, so nothing here goes through BuildQueryProgram on the reference
// side.
//  - Random stratified programs (recursion, negation, several SCCs) and
//    random queries: sliced answers, and answers read from a published
//    view (with and without a session rule the view does not have),
//    equal the reference.
//  - A query server with a materialized view, driven over a socket:
//    every way the view can go stale leaves the reader on full
//    evaluation, and the query log shows no view read.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ast/rename.h"
#include "eval/query.h"
#include "server/materialized_view.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/hash_util.h"
#include "util/string_util.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustParse;
using testing_util::MustParseFacts;
using testing_util::MustParseLiteral;

std::vector<Term> AllVariables(const std::vector<Literal>& body) {
  std::vector<Term> projection;
  for (SymbolId v : CollectVariables(body)) projection.push_back(Term::Var(v));
  return projection;
}

std::vector<std::string> SortedRows(const std::vector<Tuple>& tuples) {
  std::vector<std::string> rows;
  for (const Tuple& t : tuples) rows.push_back(TupleToString(t));
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The reference: one Evaluate of `program` plus the query rule.
std::vector<std::string> FullAnswers(const Program& program,
                                     const Database& edb,
                                     const std::vector<Literal>& body) {
  const std::vector<Term> projection = AllVariables(body);
  Program extended = program;
  extended.AddRule(Rule("query$", Atom("query$answer", projection), body));
  Result<Database> idb = Evaluate(extended, edb);
  EXPECT_TRUE(idb.ok()) << idb.status();
  if (!idb.ok()) return {};
  const Relation* answers = idb->Find(
      PredicateId{InternSymbol("query$answer"),
                  static_cast<uint32_t>(projection.size())});
  return answers == nullptr ? std::vector<std::string>()
                            : SortedRows(answers->CopyRows());
}

std::vector<std::string> SlicedAnswers(const Program& program,
                                       const Database& edb,
                                       const std::vector<Literal>& body,
                                       QueryProgram* built = nullptr) {
  Result<QueryProgram> query =
      BuildQueryProgram(program, body, AllVariables(body),
                        edb.view_manifest().get());
  EXPECT_TRUE(query.ok()) << query.status();
  if (!query.ok()) return {};
  Result<QueryResult> result =
      EvaluateQueryProgram(*query, edb, EvalOptions());
  EXPECT_TRUE(result.ok()) << result.status();
  if (built != nullptr) *built = *query;
  return result.ok() ? SortedRows(result->tuples) : std::vector<std::string>();
}

// --- random stratified programs ---

constexpr int kDomain = 5;
constexpr int kIdbPreds = 6;
const char* const kVars[] = {"X", "Y", "Z", "W"};

struct RandomCase {
  Program program;
  Database edb;
  std::vector<std::vector<Literal>> queries;
};

Atom RandomAtom(const std::string& pred, const std::vector<std::string>& vars,
                SplitMix64& rng) {
  std::vector<Term> args;
  for (int i = 0; i < 2; ++i) {
    if (rng.Below(6) == 0) {
      args.push_back(Term::Int(static_cast<int64_t>(rng.Below(kDomain))));
    } else {
      args.push_back(Term::Var(vars[rng.Below(vars.size())]));
    }
  }
  return Atom(pred, args);
}

/// IDB predicates p0..p5 sit in strata 0..2 (two each). A rule for a
/// stratum-s predicate may use any predicate of stratum <= s positively
/// (so strata hold recursion and mutual recursion) and only base
/// relations or lower strata negatively. Rules are safe by
/// construction: head and negated arguments come from the variables of
/// the positive body.
RandomCase MakeRandomCase(uint64_t seed) {
  SplitMix64 rng(seed);
  RandomCase c;
  const std::vector<std::string> edb_preds = {"e0", "e1", "e2"};
  auto idb = [](int i) { return StrCat("p", i); };
  auto stratum = [](int i) { return i / 2; };
  for (int p = 0; p < kIdbPreds; ++p) {
    const int rules = 1 + static_cast<int>(rng.Below(2));
    for (int r = 0; r < rules; ++r) {
      std::vector<Literal> body;
      std::vector<std::string> vars(kVars, kVars + 3);
      const int positives = 1 + static_cast<int>(rng.Below(2));
      for (int k = 0; k < positives; ++k) {
        std::string pred;
        // The first literal of a predicate's first rule is a base
        // relation, so every predicate can derive something.
        if ((r == 0 && k == 0) || rng.Below(2) == 0) {
          pred = edb_preds[rng.Below(edb_preds.size())];
        } else {
          int q = static_cast<int>(rng.Below(kIdbPreds));
          while (stratum(q) > stratum(p)) q = static_cast<int>(rng.Below(p + 1));
          pred = idb(q);
        }
        body.push_back(Literal::Relational(RandomAtom(pred, vars, rng)));
      }
      std::vector<std::string> bound;
      for (SymbolId v : CollectVariables(body)) bound.push_back(SymbolName(v));
      if (bound.empty()) {
        body.push_back(Literal::Relational(
            Atom(edb_preds[0], {Term::Var("X"), Term::Var("Y")})));
        bound = {"X", "Y"};
      }
      if (rng.Below(3) == 0) {
        std::string pred = edb_preds[rng.Below(edb_preds.size())];
        if (stratum(p) > 0 && rng.Below(2) == 0) {
          pred = idb(static_cast<int>(rng.Below(2 * stratum(p))));
        }
        body.push_back(Literal::NegatedRelational(RandomAtom(pred, bound, rng)));
      }
      Atom head(idb(p), {Term::Var(bound[rng.Below(bound.size())]),
                         Term::Var(bound[rng.Below(bound.size())])});
      c.program.AddRule(Rule("", std::move(head), std::move(body)));
    }
  }
  c.program.AutoLabelRules();

  for (const std::string& pred : edb_preds) {
    const int facts = 3 + static_cast<int>(rng.Below(8));
    for (int f = 0; f < facts; ++f) {
      c.edb.AddTuple(pred, {Term::Int(static_cast<int64_t>(rng.Below(kDomain))),
                            Term::Int(static_cast<int64_t>(rng.Below(kDomain)))});
    }
  }

  // A stored relation named like a derived predicate (left over from
  // plain facts or an old view): evaluation derives that predicate and
  // ignores the stored rows, so a view must not serve them either.
  c.edb.AddTuple(idb(static_cast<int>(rng.Below(kIdbPreds))),
                 {Term::Int(kDomain + 2), Term::Int(kDomain + 2)});

  const std::vector<std::string> vars(kVars, kVars + 2);
  for (int q = 0; q < 6; ++q) {
    std::vector<Literal> body;
    auto any_pred = [&] {
      return rng.Below(4) == 0 ? edb_preds[rng.Below(edb_preds.size())]
                               : idb(static_cast<int>(rng.Below(kIdbPreds)));
    };
    body.push_back(Literal::Relational(RandomAtom(any_pred(), vars, rng)));
    if (rng.Below(2) == 0) {
      body.push_back(Literal::Relational(RandomAtom(any_pred(), vars, rng)));
    }
    std::vector<std::string> bound;
    for (SymbolId v : CollectVariables(body)) bound.push_back(SymbolName(v));
    if (!bound.empty() && rng.Below(3) == 0) {
      body.push_back(
          Literal::NegatedRelational(RandomAtom(any_pred(), bound, rng)));
    }
    c.queries.push_back(std::move(body));
  }
  return c;
}

/// A database holding `edb` plus `program`'s view published into it,
/// stamped with the view's manifest — what a view's write publishes.
Database PublishedView(const Program& program, const Database& edb,
                       MaterializedView::Mode mode) {
  Result<std::unique_ptr<MaterializedView>> view =
      MaterializedView::Create(program, edb, EvalOptions(), mode);
  EXPECT_TRUE(view.ok()) << view.status();
  Database db = edb.Clone();
  if (!view.ok()) return db;
  (*view)->PublishInto(&db);
  db.set_view_manifest((*view)->manifest());
  return db;
}

TEST(QuerySliceDifferentialTest, SlicedAndViewServedMatchFullEvaluation) {
  size_t sliced_away = 0;
  size_t view_served = 0;
  size_t recomputed_over_view = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    RandomCase c = MakeRandomCase(seed);
    SCOPED_TRACE(c.program.ToString());
    const MaterializedView::Mode mode = seed % 2 == 0
                                            ? MaterializedView::Mode::kRecompute
                                            : MaterializedView::Mode::kIncremental;
    const Database published = PublishedView(c.program, c.edb, mode);
    // The session has one rule more than the view for a random derived
    // predicate: it and everything reaching it must be re-derived.
    Program extended = c.program;
    SplitMix64 rng(seed * 7919);
    extended.AddRule(Rule(
        "extra",
        Atom(StrCat("p", rng.Below(kIdbPreds)), {Term::Var("X"), Term::Var("Y")}),
        {Literal::Relational(Atom("e2", {Term::Var("Y"), Term::Var("X")}))}));

    for (const std::vector<Literal>& body : c.queries) {
      SCOPED_TRACE(JoinToString(body, ", "));
      const std::vector<std::string> want = FullAnswers(c.program, c.edb, body);
      QueryProgram built;
      EXPECT_EQ(SlicedAnswers(c.program, c.edb, body, &built), want);
      EXPECT_TRUE(built.view_reads.empty());
      if (built.components_evaluated < built.components_total) ++sliced_away;

      EXPECT_EQ(SlicedAnswers(c.program, published, body, &built), want);
      if (!built.view_reads.empty()) ++view_served;

      EXPECT_EQ(SlicedAnswers(extended, published, body, &built),
                FullAnswers(extended, c.edb, body));
      if (built.heavy() && !built.view_reads.empty()) ++recomputed_over_view;
    }
  }
  // The suite exercises what it claims to: slices that leave components
  // out, reads served from the view, and mixed slices that re-derive
  // some predicates over others read from the view.
  EXPECT_GT(sliced_away, 20u);
  EXPECT_GT(view_served, 20u);
  EXPECT_GT(recomputed_over_view, 5u);
}

TEST(QuerySliceTest, SliceKeepsReachedRulesAcrossNegation) {
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
    blocked(X) :- b(X).
    open(X, Y) :- t(X, Y), not blocked(Y).
    other(X) :- f(X).
  )");
  Result<QueryProgram> query = BuildQueryProgram(
      program, {MustParseLiteral("open(X, Y)")},
      {Term::Var("X"), Term::Var("Y")});
  ASSERT_TRUE(query.ok()) << query.status();
  std::set<std::string> heads;
  for (const Rule& rule : query->program.rules()) {
    heads.insert(SymbolName(rule.head().pred_id().name));
  }
  EXPECT_EQ(heads, (std::set<std::string>{"t", "blocked", "open",
                                          "query$answer"}));
  EXPECT_EQ(query->components_evaluated, 4u);
  EXPECT_EQ(query->components_total, 5u);
  EXPECT_TRUE(query->heavy());

  // A base-relation lookup keeps only the query rule.
  Result<QueryProgram> lookup = BuildQueryProgram(
      program, {Literal::Relational(Atom("e", {Term::Var("X"), Term::Var("Y")}))},
      {Term::Var("X"), Term::Var("Y")});
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->program.rules().size(), 1u);
  EXPECT_EQ(lookup->components_evaluated, 1u);
  EXPECT_FALSE(lookup->heavy());
}

TEST(QuerySliceTest, ManifestMatchIgnoresLabelsAndRuleOrder) {
  Program view_program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  view_program.AutoLabelRules();
  Program session = MustParse(R"(
    t(X, Z) :- t(X, Y), e(Y, Z).
    t(X, Y) :- e(X, Y).
  )");
  Database edb = MustParseFacts("e(1, 2). e(2, 3).");
  Database published = PublishedView(view_program, edb,
                                     MaterializedView::Mode::kIncremental);
  const std::vector<Literal> body = {
      Literal::Relational(Atom("t", {Term::Int(1), Term::Var("Y")}))};
  QueryProgram built;
  EXPECT_EQ(SlicedAnswers(session, published, body, &built),
            FullAnswers(session, edb, body));
  ASSERT_EQ(built.view_reads.size(), 1u);
  EXPECT_EQ(built.view_reads[0].ToString(), "t/2");
  EXPECT_FALSE(built.heavy());
}

// --- staleness through a query server ---

/// Blocking line client: one request line, one dot-terminated reply.
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~Client() { ::close(fd_); }

  std::string Request(const std::string& line) {
    const std::string wire = line + "\n";
    EXPECT_EQ(::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    std::string body;
    bool first = true;
    char buf[4096];
    while (true) {
      while (std::optional<std::string> got = lines_.PopLine()) {
        if (*got == ".") return body;
        if (!first) body += "\n";
        body += DecodeBodyLine(*got);
        first = false;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed mid-response";
        return body;
      }
      lines_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  void Install(const char* rules) {
    const Program program = MustParse(rules);
    for (const Rule& rule : program.rules()) {
      EXPECT_EQ(Request(rule.UnlabeledText()), "added 1 rule(s)");
    }
  }

 private:
  int fd_ = -1;
  LineBuffer lines_;
};

constexpr const char* kClosure = R"(
  t(X, Y) :- e(X, Y).
  t(X, Z) :- t(X, Y), e(Y, Z).
)";
const std::vector<Literal> kReadT = {
    Literal::Relational(Atom("t", {Term::Sym("a"), Term::Var("Y")}))};

/// A server over a chain a->b->c->d with the closure materialized by a
/// writer session, a reader session holding the same rules, and the
/// server-wide query log open.
class ViewStalenessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_path_ = ::testing::TempDir() + "/semopt_slice_qlog_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                ".jsonl";
    std::remove(log_path_.c_str());
    server_ = std::make_unique<QueryServer>(
        MustParseFacts("e(a, b). e(b, c). e(c, d)."));
    ASSERT_TRUE(server_->query_log().OpenLog(log_path_).ok());
    ASSERT_TRUE(server_->Start().ok());
    writer_ = std::make_unique<Client>(server_->port());
    reader_ = std::make_unique<Client>(server_->port());
    writer_->Install(kClosure);
    EXPECT_NE(writer_->Request(".materialize").find("materialized 6"),
              std::string::npos);
  }
  void TearDown() override {
    writer_.reset();
    reader_.reset();
    server_->Stop();
    std::remove(log_path_.c_str());
  }

  /// Runs `?- t(a, Y).` on the reader and checks it against full
  /// evaluation of `reader_program` over the generation it read; returns
  /// the view_reads array of its query-log record.
  std::string ReadAndCheck(const char* reader_program) {
    const std::string reply = reader_->Request("?- t(a, Y).");
    DatabaseSnapshot snap = server_->store().Pin();
    const std::vector<std::string> want =
        FullAnswers(MustParse(reader_program), snap.db(), kReadT);
    std::vector<std::string> got;
    std::istringstream lines(reply);
    for (std::string line; std::getline(lines, line);) {
      if (StartsWith(line, "Y=")) {
        got.push_back(StrCat("(", line.substr(2), ")"));
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << reply;
    server_->query_log().Flush();
    std::ifstream in(log_path_);
    std::string line, last;
    while (std::getline(in, line)) last = line;
    const size_t at = last.find("\"view_reads\":[");
    EXPECT_NE(at, std::string::npos) << last;
    if (at == std::string::npos) return "";
    const size_t open = at + std::string("\"view_reads\":").size();
    return last.substr(open, last.find(']', open) - open + 1);
  }

  std::string log_path_;
  std::unique_ptr<QueryServer> server_;
  std::unique_ptr<Client> writer_;
  std::unique_ptr<Client> reader_;
};

TEST_F(ViewStalenessTest, MatchingReaderIsServedAcrossViewWrites) {
  reader_->Install(kClosure);
  EXPECT_EQ(ReadAndCheck(kClosure), "[\"t/2\"]");
  EXPECT_EQ(writer_->Request("e(d, e)."), "added 1 fact(s)");
  EXPECT_EQ(ReadAndCheck(kClosure), "[\"t/2\"]");
}

TEST_F(ViewStalenessTest, DroppedViewThenWriteIsRederived) {
  reader_->Install(kClosure);
  EXPECT_NE(writer_->Request(".materialize off").find("view dropped"),
            std::string::npos);
  EXPECT_EQ(ReadAndCheck(kClosure), "[]");
  // The published t stays as plain facts and goes stale here.
  EXPECT_EQ(writer_->Request("e(d, e)."), "added 1 fact(s)");
  EXPECT_EQ(ReadAndCheck(kClosure), "[]");
}

TEST_F(ViewStalenessTest, LoadThatBypassesTheViewIsRederived) {
  reader_->Install(kClosure);
  const std::string dump = ::testing::TempDir() + "/semopt_slice_extra.bin";
  {
    QueryServer other(MustParseFacts("e(d, x). e(x, y)."));
    ASSERT_TRUE(other.Start().ok());
    Client c(other.port());
    EXPECT_NE(c.Request(":dump " + dump).find("dumped"), std::string::npos);
    other.Stop();
  }
  EXPECT_NE(writer_->Request(":load " + dump).find("loaded 2 row(s)"),
            std::string::npos);
  std::remove(dump.c_str());
  EXPECT_EQ(ReadAndCheck(kClosure), "[]");
  // A later write through the view maintains its own copy of the base
  // relations, which never saw the load: it must not be read as current.
  EXPECT_EQ(writer_->Request("e(y, z)."), "added 1 fact(s)");
  EXPECT_EQ(ReadAndCheck(kClosure), "[]");
}

TEST_F(ViewStalenessTest, FailedViewWriteIsRederived) {
  reader_->Install(kClosure);
  // The view takes e(d, e) into its copy of the base relations before
  // it rejects the derived fact, and the write publishes nothing.
  EXPECT_NE(writer_->Request("e(d, e). t(q, r).").find("IDB predicate"),
            std::string::npos);
  EXPECT_EQ(writer_->Request("e(y, z)."), "added 1 fact(s)");
  EXPECT_EQ(ReadAndCheck(kClosure), "[]");
}

TEST_F(ViewStalenessTest, ViewReplacedByADifferentProgramIsRederived) {
  reader_->Install(kClosure);
  Client other(server_->port());
  other.Install(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(Y, X).
  )");
  EXPECT_NE(other.Request(".materialize").find("materialized"),
            std::string::npos);
  EXPECT_EQ(ReadAndCheck(kClosure), "[]");
  EXPECT_EQ(other.Request("e(d, e)."), "added 1 fact(s)");
  EXPECT_EQ(ReadAndCheck(kClosure), "[]");
}

TEST_F(ViewStalenessTest, ReaderWithAnExtraRuleIsRederived) {
  constexpr const char* kExtended = R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
    t(X, Y) :- f(X, Y).
  )";
  reader_->Install(kExtended);
  EXPECT_EQ(writer_->Request("f(a, q)."), "added 1 fact(s)");
  EXPECT_EQ(ReadAndCheck(kExtended), "[]");
}

TEST_F(ViewStalenessTest, ReaderThatAddsARuleAfterReadingIsRederived) {
  // The session keeps its slicing data between queries; a rule added
  // after a view-served read must still take t off the view.
  reader_->Install(kClosure);
  EXPECT_EQ(ReadAndCheck(kClosure), "[\"t/2\"]");
  reader_->Install("t(X, Y) :- f(X, Y).");
  EXPECT_EQ(writer_->Request("f(a, q)."), "added 1 fact(s)");
  EXPECT_EQ(ReadAndCheck(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
    t(X, Y) :- f(X, Y).
  )"),
            "[]");
}

}  // namespace
}  // namespace semopt
