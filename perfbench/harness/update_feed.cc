// update_feed: bench E14's edge churn driven through the query server.
// The base graph is bulk-loaded with `:load` and maintained with
// `.materialize incremental`. One open-loop writer sends a batch every
// 1/rate seconds: an add line of fresh edges, then a `~` line that
// retracts the edges added two batches earlier. Two closed-loop
// readers, each with the maintained program installed and two
// evaluation lanes, ask `?- reach(c).`. Operation classes:
//   op1 read   reader request, send to reply
//   op2 write  batch, due time to the retraction's acknowledgement
//   op3 add    batch, due time to the add line's acknowledgement
//
// Reads are checked without replaying the writer: the writer only ever
// adds fresh edges and retracts its own, so every EDB the server can
// publish lies between the base and the base plus every pre-generated
// edge. Reachability is monotone in the edges, so a node reachable in
// the base always answers yes and a node unreachable even with every
// edge always answers no; readers only ask about such nodes, half of
// their reads of each kind. After the
// timed phase the published view is compared with a from-scratch
// fixpoint over the final EDB.

#include <unistd.h>

#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "eval/fixpoint.h"
#include "harness/server_common.h"
#include "harness/workloads.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "workload/update_stream.h"

namespace perfbench {
namespace {

using semopt::Database;
using semopt::PredicateId;
using semopt::QueryServer;
using semopt::RowRef;

constexpr int kReaders = 2;
constexpr size_t kEdgesPerBatch = 32;  // as bench E14
constexpr size_t kWarmupBatches = 64;
constexpr size_t kPoolPerAnswer = 64;  // read targets per expected answer
// Fresh edges never end in a node n with n % kReservedModulus ==
// kReservedModulus - 1, so reserved nodes without a base in-edge stay
// unreachable however long the run: a steady supply of "no" answers.
constexpr int64_t kReservedModulus = 16;
const char* const kClassNames[3] = {"read", "write", "add"};

struct FeedSizing {
  semopt::UpdateStreamParams params;
  double batches_per_s = 0;
  size_t batches = 0;  // pre-generated
};

FeedSizing SizingFor(const RunOptions& options) {
  FeedSizing s;
  // Subcritical graph (twice as many nodes as edges), as bench E14.
  s.params.num_edges = options.small ? 1000 : 10000;
  s.params.num_nodes = 2 * s.params.num_edges;
  s.params.num_sources = 4;
  s.params.seed = options.seed;
  s.batches_per_s = options.small ? 50 : 100;
  // Enough for the warm-up of every repetition plus two timed phases
  // (a traced run has two), independent of --trace so both modes ask
  // the same questions.
  s.batches = kWarmupBatches +
              static_cast<size_t>(2.2 * options.seconds * s.batches_per_s);
  return s;
}

/// The writer's edges and the read targets with their fixed answers.
struct Feed {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> batches;
  std::vector<int64_t> targets;  // the "yes" targets first
  std::vector<bool> reachable;   // expected answer per target
  size_t yes = 0;                // number of "yes" targets

  /// A target drawn from random bits `r`: each answer is equally
  /// likely when both kinds exist.
  size_t Pick(uint64_t r) const {
    const size_t no = targets.size() - yes;
    if (yes == 0 || no == 0) return r % targets.size();
    return (r & 1) != 0 ? (r >> 1) % yes : yes + (r >> 1) % no;
  }
};

std::vector<int64_t> ReachSet(const Database& idb) {
  std::vector<int64_t> out;
  const PredicateId reach{semopt::InternSymbol("reach"), 1};
  if (const semopt::Relation* rel = idb.Find(reach)) {
    for (RowRef row : rel->rows()) out.push_back(row[0].int_value());
  }
  return out;
}

/// Runs in the reference child.
std::string ComputeFeed(const FeedSizing& sizing, const std::string& path) {
  if (!semopt::WriteUpdateStreamSnapshot(path, sizing.params).ok()) {
    Die("cannot write the base snapshot");
  }
  Database base;
  MustLoadBinary(path, &base);
  ::unlink(path.c_str());
  semopt::Result<semopt::Program> program = semopt::UpdateStreamProgram();
  if (!program.ok()) Die(program.status().ToString());

  std::set<std::pair<int64_t, int64_t>> used;
  const PredicateId edge{semopt::InternSymbol("e"), 2};
  for (RowRef row : base.Find(edge)->rows()) {
    used.insert({row[0].int_value(), row[1].int_value()});
  }
  semopt::SplitMix64 rng(sizing.params.seed * 0x2545f4914f6cdd1dULL + 99);
  std::ostringstream os;
  Database all = base.CloneShared();
  for (size_t b = 0; b < sizing.batches; ++b) {
    os << "B";
    for (size_t i = 0; i < kEdgesPerBatch;) {
      const semopt::Atom a = semopt::UpdateStreamEdge(sizing.params, rng);
      const std::pair<int64_t, int64_t> key{a.args()[0].int_value(),
                                            a.args()[1].int_value()};
      if (key.second % kReservedModulus == kReservedModulus - 1) continue;
      if (!used.insert(key).second) continue;
      all.AddTuple("e", {a.args()[0], a.args()[1]});
      os << " " << key.first << " " << key.second;
      ++i;
    }
    os << "\n";
  }
  semopt::Result<Database> low = semopt::Evaluate(*program, base);
  semopt::Result<Database> high = semopt::Evaluate(*program, all);
  if (!low.ok() || !high.ok()) Die("reference evaluation failed");
  const std::vector<int64_t> always = ReachSet(*low);
  const std::vector<int64_t> ever = ReachSet(*high);
  const std::set<int64_t> ever_set(ever.begin(), ever.end());
  std::vector<int64_t> never;
  for (size_t n = 0; n < sizing.params.num_nodes; ++n) {
    if (ever_set.count(static_cast<int64_t>(n)) == 0) {
      never.push_back(static_cast<int64_t>(n));
    }
  }
  auto sample = [&rng](std::vector<int64_t> v) {
    for (size_t i = 0; i < v.size() && i < kPoolPerAnswer; ++i) {
      std::swap(v[i], v[i + rng.Below(v.size() - i)]);
    }
    if (v.size() > kPoolPerAnswer) v.resize(kPoolPerAnswer);
    return v;
  };
  os << "T";
  for (int64_t n : sample(always)) os << " " << n;
  os << "\nF";
  for (int64_t n : sample(never)) os << " " << n;
  os << "\n";
  return os.str();
}

Feed ParseFeed(const std::string& text) {
  Feed f;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "B") {
      f.batches.emplace_back();
      for (int64_t u, v; fields >> u >> v;) f.batches.back().push_back({u, v});
    } else {
      for (int64_t n; fields >> n;) {
        f.targets.push_back(n);
        f.reachable.push_back(tag == "T");
        if (tag == "T") ++f.yes;
      }
    }
  }
  if (f.targets.empty()) Die("no read targets with a fixed answer");
  return f;
}

std::string EdgeList(const std::vector<std::pair<int64_t, int64_t>>& edges) {
  std::string out;
  for (const auto& [u, v] : edges) {
    out += "e(" + std::to_string(u) + ", " + std::to_string(v) + "). ";
  }
  out.pop_back();
  return out;
}

bool ReadMatches(const std::vector<std::string>& body, bool reachable) {
  if (body.empty()) return false;
  return reachable ? body.back() == "1 answer(s)"
                   : body.size() == 1 && body.back() == "no answers";
}

struct Deployment {
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<Client> control;
  std::unique_ptr<Client> writer;
  std::vector<std::unique_ptr<Client>> readers;
  size_t next_batch = 0;
};

/// Sends batch `b`'s add line and, from the third batch on, the
/// retraction of batch b-2. Returns false on a wrong acknowledgement.
bool SendBatch(Client& c, const Feed& feed, size_t b,
               Clock::time_point* add_acked) {
  std::vector<std::string> body;
  if (!c.Request(EdgeList(feed.batches[b]), &body) || body.empty() ||
      body[0].rfind("added ", 0) != 0) {
    return false;
  }
  *add_acked = Clock::now();
  if (b < 2) return true;
  return c.Request("~ " + EdgeList(feed.batches[b - 2]), &body) &&
         !body.empty() && body[0].rfind("retracted ", 0) == 0;
}

std::string ReadText(int64_t node) {
  return "?- reach(" + std::to_string(node) + ").";
}

Deployment SetUp(const RunOptions& options, const FeedSizing& sizing,
                 const Feed& feed, SetupTimes* times, double* bulk_load_us) {
  const std::string path = options.out_dir + "/update-base.bin";
  {
    PhaseTimer t("setup.generate");
    if (!semopt::WriteUpdateStreamSnapshot(path, sizing.params).ok()) {
      Die("cannot write the base snapshot");
    }
    times->generate = t.Stop();
  }
  Deployment d;
  semopt::Result<semopt::Program> program = semopt::UpdateStreamProgram();
  if (!program.ok()) Die(program.status().ToString());
  const std::vector<std::string> rules = ProgramStatements(*program);
  {
    PhaseTimer t("setup.load");
    LoadedServer loaded = StartLoadedServer(path, bulk_load_us);
    d.server = std::move(loaded.server);
    d.control = std::move(loaded.control);
    times->load = t.Stop();
  }
  {
    PhaseTimer t("setup.materialize");
    d.writer = std::make_unique<Client>(d.server->port());
    for (const std::string& r : rules) d.writer->MustRequest(r, "added");
    d.writer->MustRequest(".materialize incremental", "materialized ");
    for (int r = 0; r < kReaders; ++r) {
      d.readers.push_back(std::make_unique<Client>(d.server->port()));
      for (const std::string& rule : rules) {
        d.readers.back()->MustRequest(rule, "added");
      }
      // Reads run the morsel-parallel engine, so the exec layer is
      // measured (two lanes, the most any workload uses).
      d.readers.back()->MustRequest(":threads 2", "threads 2");
    }
    times->materialize = t.Stop();
  }
  {
    // Warm-up: a fixed run of write batches fills the churn pipeline
    // (maintenance plans key on delta sizes, which keep varying, so
    // write-side misses never settle on a fixed count); then every read
    // target once, and read rounds until one plans nothing new.
    PhaseTimer t("setup.warmup");
    Clock::time_point acked;
    std::vector<std::string> body;
    auto read = [&](size_t r, size_t i) {
      if (!d.readers[r]->Request(ReadText(feed.targets[i]), &body) ||
          !ReadMatches(body, feed.reachable[i])) {
        Die("wrong answer during warm-up: " + ReadText(feed.targets[i]));
      }
    };
    while (d.next_batch < kWarmupBatches) {
      if (!SendBatch(*d.writer, feed, d.next_batch++, &acked)) {
        Die("write rejected during warm-up");
      }
    }
    for (size_t i = 0; i < feed.targets.size(); ++i) read(i % kReaders, i);
    std::mt19937_64 rng(options.seed ^ 0xfeedULL);
    for (int round = 0; round < 10; ++round) {
      const size_t misses = d.server->plan_cache().misses();
      for (size_t i = 0; i < 16; ++i) {
        read(i % kReaders, feed.Pick(rng()));
      }
      if (d.server->plan_cache().misses() == misses) break;
    }
    times->warmup = t.Stop();
  }
  return d;
}

/// Writer-side measurements of one timed phase.
struct WriterStats {
  Samples lag_us, outside_ivm_us;
  size_t batches = 0;
  size_t backlog = 0;
};

PhaseResult RunPhase(Deployment& d, const Feed& feed, const FeedSizing& sizing,
                     double seconds, uint64_t seed, WriterStats* ws,
                     std::vector<ConnectionTrace>* traces) {
  const Clock::time_point start = Clock::now();
  std::vector<PhaseResult> readers_r(kReaders);
  PhaseResult writer_r;
  const Clock::duration span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const Clock::time_point deadline = start + span;
  const Clock::duration interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / sizing.batches_per_s));
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(seed * 7919ULL + static_cast<uint64_t>(r));
      PhaseResult& res = readers_r[r];
      std::vector<std::string> body;
      while (Clock::now() < deadline) {
        const size_t i = feed.Pick(rng());
        bool sent = false;
        const Clock::time_point t0 = Clock::now();
        {
          semopt::obs::TraceSpan s("client.read");
          sent = d.readers[r]->Request(ReadText(feed.targets[i]), &body);
        }
        const double us = MicrosBetween(t0, Clock::now());
        ++res.attempted;
        if (!sent) {
          ++res.failed;
          break;
        }
        if (!ReadMatches(body, feed.reachable[i])) ++res.failed;
        res.op[0].Add(us);
        if (traces != nullptr) (*traces)[r].sent.push_back({0, us});
      }
    });
  }
  threads.emplace_back([&] {
    semopt::obs::Counter& maintenance =
        semopt::obs::MetricsRegistry::Global().GetCounter(
            "eval.ivm.maintenance_us");
    for (size_t i = 0;; ++i) {
      const Clock::time_point due = start + interval * static_cast<int64_t>(i);
      if (due >= deadline || d.next_batch >= feed.batches.size()) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      ws->lag_us.Add(MicrosBetween(due, sent));
      if (sent > due + interval) ++ws->backlog;  // successor already due
      const uint64_t maint0 = maintenance.value();
      Clock::time_point add_acked;
      bool ok = false;
      {
        semopt::obs::TraceSpan s("client.write");
        ok = SendBatch(*d.writer, feed, d.next_batch++, &add_acked);
      }
      const Clock::time_point done = Clock::now();
      ++writer_r.attempted;
      ++ws->batches;
      if (!ok) {
        ++writer_r.failed;
        break;
      }
      writer_r.op[1].Add(MicrosBetween(due, done));
      writer_r.op[2].Add(MicrosBetween(due, add_acked));
      ws->outside_ivm_us.Add(MicrosBetween(sent, done) -
                             static_cast<double>(maintenance.value() - maint0));
    }
  });
  for (std::thread& t : threads) t.join();
  PhaseResult total = writer_r;
  for (const PhaseResult& r : readers_r) total.Merge(r);
  total.seconds = SecondsSince(start);
  return total;
}

/// The copy-on-write work of one writer batch at the current size.
struct CowCopy {
  bool ok = false;  ///< the batch's writes were acknowledged
  double us = 0;    ///< deep copies of the cloned relations, median of 5
  std::vector<std::string> relations;  ///< one entry per clone
  std::string Names() const {
    std::string out;
    for (const std::string& r : relations) out += (out.empty() ? "" : " ") + r;
    return out;
  }
};

/// Sends the next batch after the timed phases, pinning the generation
/// before its add line, between its two lines and after its retraction.
/// A relation whose pointer differs between two consecutive generations
/// was cloned by that write; the clones are timed by deep-copying the
/// same relations the way the store detaches them.
CowCopy MeasureCowCopy(Deployment& d, const Feed& feed) {
  CowCopy cow;
  if (d.next_batch >= feed.batches.size()) Die("no batch left to measure COW");
  const size_t b = d.next_batch++;
  semopt::SnapshotStore& store = d.server->store();
  std::vector<semopt::DatabaseSnapshot> gens;
  std::vector<std::string> body;
  gens.push_back(store.Pin());
  cow.ok = d.writer->Request(EdgeList(feed.batches[b]), &body) &&
           !body.empty() && body[0].rfind("added ", 0) == 0;
  gens.push_back(store.Pin());
  cow.ok = cow.ok &&
           d.writer->Request("~ " + EdgeList(feed.batches[b - 2]), &body) &&
           !body.empty() && body[0].rfind("retracted ", 0) == 0;
  gens.push_back(store.Pin());
  std::vector<const semopt::Relation*> cloned;
  for (size_t g = 1; g < gens.size(); ++g) {
    const Database& before = gens[g - 1].db();
    const Database& after = gens[g].db();
    for (const PredicateId& pred : after.Predicates()) {
      const semopt::Relation* rel = after.Find(pred);
      const semopt::Relation* old = before.Find(pred);
      if (old == nullptr || old == rel) continue;
      cloned.push_back(rel);
      cow.relations.push_back(semopt::SymbolName(pred.name));
    }
  }
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (const semopt::Relation* rel : cloned) {
      std::shared_ptr<semopt::Relation> copy =
          std::make_shared<semopt::Relation>(*rel);
    }
    reps.push_back(MicrosBetween(t0, Clock::now()));
  }
  cow.us = Median(reps);
  return cow;
}

/// Compares the published view with a from-scratch fixpoint over the
/// final EDB. Returns true when they hold the same facts.
bool FinalViewMatches(QueryServer& server, std::vector<std::string>* table) {
  semopt::DatabaseSnapshot snap = server.store().Pin();
  const Database& db = snap.db();
  Database edb;
  for (const PredicateId& pred : db.Predicates()) {
    const std::string& name = semopt::SymbolName(pred.name);
    if (name != "e" && name != "src" && name != "node") continue;
    semopt::Relation& rel = edb.GetOrCreate(pred);
    for (RowRef row : db.Find(pred)->rows()) rel.Insert(row);
  }
  semopt::Result<semopt::Program> program = semopt::UpdateStreamProgram();
  semopt::Result<Database> scratch = semopt::Evaluate(*program, edb);
  if (!scratch.ok()) return false;
  bool same = true;
  std::string line = "final view check against a from-scratch fixpoint:";
  for (const auto& [name, arity] : {std::pair<const char*, uint32_t>{"reach", 1},
                                    {"linked", 2},
                                    {"dark", 1}}) {
    const PredicateId pred{semopt::InternSymbol(name), arity};
    const Digest view = DigestRelation(db, pred);
    const Digest want = DigestRelation(*scratch, pred);
    same = same && view == want;
    line += " " + std::string(name) + "=" + std::to_string(view.rows) + "/" +
            std::to_string(want.rows);
  }
  table->push_back(line + (same ? " (match)" : " (MISMATCH)"));
  return same;
}

}  // namespace

Outcome RunUpdateFeed(const RunOptions& options) {
  const FeedSizing sizing = SizingFor(options);
  Feed feed = ParseFeed(RunInChild([&] {
    return ComputeFeed(sizing, options.out_dir + "/update-reference.bin");
  }));

  Outcome out;
  out.shape = "connections=3 (1 open-loop writer at " +
              std::to_string(static_cast<int>(sizing.batches_per_s)) +
              " batches/s of " + std::to_string(kEdgesPerBatch) +
              " edges, 2 closed-loop readers); lanes=2 per read, 1 per write; "
              "admission "
              "heavy=2 light=2; base edges=" +
              std::to_string(sizing.params.num_edges) +
              " nodes=" + std::to_string(sizing.params.num_nodes);

  if (options.trace) semopt::obs::StartTracing();
  std::vector<SetupTimes> reps(kSetupRepetitions);
  double bulk_load_us = 0;
  Deployment d;
  for (SetupTimes& rep : reps) {
    d = Deployment();
    d = SetUp(options, sizing, feed, &rep, &bulk_load_us);
  }
  if (options.trace) {
    semopt::obs::StopTracing(options.out_dir + "/trace-setup.json");
  }
  if (options.corrupt_oracle) feed.reachable[0] = !feed.reachable[0];

  // A traced run times its untraced phase as two halves, each reading
  // with the traced phase's seed; the writer's batches go on in order.
  WriterStats untraced_ws;
  UntracedHalves untraced;
  PhaseResult phase;
  if (options.trace) {
    untraced.first = RunPhase(d, feed, sizing, options.seconds / 2,
                              options.seed, &untraced_ws, nullptr);
    untraced.second = RunPhase(d, feed, sizing, options.seconds / 2,
                               options.seed, &untraced_ws, nullptr);
    phase = untraced.Whole();
  } else {
    phase = RunPhase(d, feed, sizing, options.seconds, options.seed,
                     &untraced_ws, nullptr);
  }
  out.attempted = phase.attempted;
  out.failed = phase.failed;
  AddClassTable(phase, kClassNames, &out.table);
  out.table.push_back("generator: " + std::to_string(untraced_ws.batches) +
                      " batches, " + std::to_string(untraced_ws.backlog) +
                      " sent after their successor was due");

  const double peak_rss = PeakRssMb();
  PhaseResult traced;
  WriterStats ws;
  if (options.trace) {
    std::vector<ConnectionTrace> traces(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      traces[r].qlog_path =
          options.out_dir + "/qlog-read-" + std::to_string(r) + ".jsonl";
      d.readers[r]->MustRequest(":qlog " + traces[r].qlog_path,
                                "session query log");
    }
    const ServerCounters before = ReadServerCounters(*d.server, *d.control);
    GenerationSampler sampler(&d.server->store());
    semopt::obs::StartTracing();
    traced = RunPhase(d, feed, sizing, options.seconds, options.seed, &ws,
                      &traces);
    semopt::obs::StopTracing(options.out_dir + "/trace-timed.json");
    const size_t live_max = sampler.Stop();
    for (int r = 0; r < kReaders; ++r) {
      d.readers[r]->MustRequest(":qlog off", "session query log closed");
    }
    const ServerCounters after = ReadServerCounters(*d.server, *d.control);
    out.attempted += traced.attempted;
    out.failed += traced.failed;

    AddQueryLogLayers(traces, {"read"}, &out);
    AddServerCounterLayers(before, after, live_max, &out);
    const double batches = static_cast<double>(ws.batches);
    auto ivm = [&](const char* name) {
      return StatDelta(before.stats, after.stats, name);
    };
    const double overdeleted = ivm("eval.ivm.overdeleted");
    const double rederived = ivm("eval.ivm.rederived");
    const double recounted = ivm("eval.ivm.recounted");
    const double net = ivm("eval.ivm.net_inserted") + ivm("eval.ivm.net_deleted");
    const double touched =
        overdeleted + rederived + recounted + ivm("eval.ivm.net_inserted");
    out.layers["eval.ivm.maintenance_us_per_batch"] =
        ivm("eval.ivm.maintenance_us") / batches;
    out.layers["eval.ivm.overdeleted_per_batch"] = overdeleted / batches;
    out.layers["eval.ivm.rederived_per_batch"] = rederived / batches;
    out.layers["eval.ivm.recounted_per_batch"] = recounted / batches;
    out.layers["eval.ivm.touched"] = touched;
    out.layers["eval.ivm.useful_ratio"] = touched > 0 ? net / touched : 0;
    out.layers["write.outside_ivm_us"] = ws.outside_ivm_us.Percentile(0.5);
    out.layers["generator.lag_us.p99"] = ws.lag_us.Percentile(0.99);
    out.layers["generator.backlog_batches"] = static_cast<double>(ws.backlog);
    out.layers["io.bulk_load_us"] = bulk_load_us;
    out.table.push_back(
        "eval.ivm.useful_ratio: " + std::to_string(net) +
        " net IDB changes over base " + std::to_string(touched) +
        " tuples touched (overdeleted + rederived + recounted + inserted); "
        "per-batch figures are per writer batch (" +
        std::to_string(ws.batches) + " batches, two maintenance passes each)");
    AddTraceOverhead(untraced, traced, &out);

    const CowCopy cow = MeasureCowCopy(d, feed);
    const double write_p50 = phase.op[1].Percentile(0.5);
    out.attempted += 1;
    if (!cow.ok) ++out.failed;
    out.layers["storage.snapshot.cow_copy_us_per_batch"] = cow.us;
    out.layers["storage.snapshot.cow_share_of_write"] = cow.us / write_p50;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "storage.snapshot.cow_share_of_write: %.1f us to deep-copy "
                  "the %zu relations one batch clones (%s) over base "
                  "write_p50_us %.1f us (untraced)",
                  cow.us, cow.relations.size(), cow.Names().c_str(),
                  write_p50);
    out.table.push_back(line);
  }

  ++out.attempted;
  if (!FinalViewMatches(*d.server, &out.table)) ++out.failed;

  AddSetupMetrics(reps, &out.e2e, &out.layers);
  if (!options.trace) {
    out.e2e.push_back({"peak_rss_mb", peak_rss, "MB"});
    AddPhaseMetrics(phase, &out.e2e);
  }
  return out;
}

}  // namespace perfbench
