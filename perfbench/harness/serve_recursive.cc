// serve_recursive: the paper's university program (Examples 3.2/4.2)
// served over loopback sockets. Three closed-loop connections each
// install the program and its ICs, run `.optimize` once at set-up, then
// send a seeded interleaving of three single-shape request classes:
//   op1 lookup   ?- works_with(profK, P).                 (EDB point query)
//   op2 bound    ?- eval(profK, S, T).                    (bound recursive)
//   op3 closure  ?- eval_support(P, S, T, M), M > 10000.  (free recursive)
// Every reply is checked against answers computed from the original,
// unoptimized program in a separate process.

#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "eval/fixpoint.h"
#include "io/binary_io.h"
#include "harness/server_common.h"
#include "harness/workloads.h"
#include "server/server.h"
#include "workload/university.h"

namespace perfbench {
namespace {

using semopt::Database;
using semopt::PredicateId;
using semopt::QueryServer;
using semopt::RowRef;

constexpr int kConnections = 3;
const char* const kClassNames[3] = {"lookup", "bound", "closure"};
const char* const kSpanNames[3] = {"client.lookup", "client.bound",
                                   "client.closure"};

semopt::UniversityParams ParamsFor(const RunOptions& options) {
  semopt::UniversityParams params;
  params.num_students = options.small ? 60 : 240;
  params.num_professors = params.num_students / 2;
  params.fields_per_thesis = 2;
  params.num_departments = options.small ? 4 : 16;
  params.seed = options.seed;
  return params;
}

std::string Prof(size_t k) { return "prof" + std::to_string(k); }

std::string QueryText(int cls, size_t k) {
  if (cls == 0) return "?- works_with(" + Prof(k) + ", P).";
  if (cls == 1) return "?- eval(" + Prof(k) + ", S, T).";
  return "?- eval_support(P, S, T, M), M > 10000.";
}

/// Expected answer digests of every request the workload can send.
struct Expected {
  std::vector<Digest> lookup, bound;  // indexed by professor
  Digest closure;
  const Digest& For(int cls, size_t k) const {
    return cls == 0 ? lookup[k] : cls == 1 ? bound[k] : closure;
  }
};

/// Runs in the reference child: evaluates the original program and
/// serializes one digest per possible request.
std::string ComputeExpected(const semopt::UniversityParams& params) {
  Database edb = semopt::GenerateUniversityDb(params);
  semopt::Result<semopt::Program> program = semopt::UniversityProgram();
  if (!program.ok()) Die(program.status().ToString());
  semopt::Result<Database> idb = semopt::Evaluate(*program, edb);
  if (!idb.ok()) Die(idb.status().ToString());
  const size_t profs = params.num_professors;
  std::vector<Digest> lookup(profs), bound(profs);
  auto prof_index = [](const semopt::Term& t) {
    return static_cast<size_t>(std::stoul(t.name().substr(4)));
  };
  const PredicateId works_with{semopt::InternSymbol("works_with"), 2};
  const PredicateId eval{semopt::InternSymbol("eval"), 3};
  const PredicateId support{semopt::InternSymbol("eval_support"), 4};
  if (const semopt::Relation* rel = edb.Find(works_with)) {
    for (RowRef row : rel->rows()) {
      lookup[prof_index(row[0])].AddLine(RenderRow({"P"}, row.subspan(1)));
    }
  }
  if (const semopt::Relation* rel = idb->Find(eval)) {
    for (RowRef row : rel->rows()) {
      bound[prof_index(row[0])].AddLine(
          RenderRow({"S", "T"}, row.subspan(1)));
    }
  }
  Digest closure;
  if (const semopt::Relation* rel = idb->Find(support)) {
    for (RowRef row : rel->rows()) {
      if (row[3].int_value() > 10000) {
        closure.AddLine(RenderRow({"P", "S", "T", "M"}, row));
      }
    }
  }
  std::ostringstream os;
  for (size_t k = 0; k < profs; ++k) {
    os << lookup[k].rows << " " << lookup[k].hash_sum << " " << bound[k].rows
       << " " << bound[k].hash_sum << "\n";
  }
  os << closure.rows << " " << closure.hash_sum << "\n";
  return os.str();
}

Expected ParseExpected(const std::string& text, size_t profs) {
  Expected e;
  e.lookup.resize(profs);
  e.bound.resize(profs);
  std::istringstream in(text);
  for (size_t k = 0; k < profs; ++k) {
    in >> e.lookup[k].rows >> e.lookup[k].hash_sum >> e.bound[k].rows >>
        e.bound[k].hash_sum;
  }
  in >> e.closure.rows >> e.closure.hash_sum;
  if (!in) Die("malformed reference answers");
  return e;
}

/// True when a query reply carries exactly the expected answer set.
bool ReplyMatches(const std::vector<std::string>& body, const Digest& want) {
  if (body.empty()) return false;
  if (body.back() == "no answers") return body.size() == 1 && want.rows == 0;
  Digest got;
  for (size_t i = 0; i + 1 < body.size(); ++i) got.AddLine(body[i]);
  return body.back() == std::to_string(got.rows) + " answer(s)" &&
         got == want;
}

/// A running server with its control and client connections.
struct Deployment {
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<Client> control;
  std::vector<std::unique_ptr<Client>> clients;
};

Deployment SetUp(const RunOptions& options,
                 const semopt::UniversityParams& params,
                 const Expected& expected, SetupTimes* times,
                 double* bulk_load_us, Samples* optimize_us) {
  const std::string path = options.out_dir + "/university.bin";
  {
    PhaseTimer t("setup.generate");
    Database db = semopt::GenerateUniversityDb(params);
    semopt::Result<size_t> saved = semopt::SaveBinaryFile(path, db);
    if (!saved.ok()) Die(saved.status().ToString());
    times->generate = t.Stop();
  }
  Deployment d;
  {
    PhaseTimer t("setup.load");
    LoadedServer loaded = StartLoadedServer(path, bulk_load_us);
    d.server = std::move(loaded.server);
    d.control = std::move(loaded.control);
    times->load = t.Stop();
  }
  {
    PhaseTimer t("setup.optimize");
    semopt::Result<semopt::Program> program = semopt::UniversityProgram();
    if (!program.ok()) Die(program.status().ToString());
    const std::vector<std::string> statements = ProgramStatements(*program);
    for (int c = 0; c < kConnections; ++c) {
      d.clients.push_back(std::make_unique<Client>(d.server->port()));
      for (const std::string& s : statements) {
        d.clients.back()->MustRequest(s, "added");
      }
      const Clock::time_point t0 = Clock::now();
      const std::string report = d.clients.back()->MustRequest(".optimize", "");
      optimize_us->Add(MicrosBetween(t0, Clock::now()));
      if (report.find("program replaced") == std::string::npos) {
        Die("optimizer applied nothing: " + report);
      }
    }
    times->optimize = t.Stop();
  }
  {
    // Warm-up: every request the timed phase can send, once, then
    // random rounds until one runs without a plan-cache miss.
    PhaseTimer t("setup.warmup");
    std::mt19937_64 rng(options.seed ^ 0x5eedULL);
    std::vector<std::string> body;
    auto send = [&](Client& c, int cls, size_t k) {
      if (!c.Request(QueryText(cls, k), &body) ||
          !ReplyMatches(body, expected.For(cls, k))) {
        Die("wrong answer during warm-up: " + QueryText(cls, k));
      }
    };
    for (size_t k = 0; k < params.num_professors; ++k) {
      send(*d.clients[k % kConnections], 0, k);
      send(*d.clients[k % kConnections], 1, k);
    }
    for (int round = 0; round < 20; ++round) {
      const size_t misses = d.server->plan_cache().misses();
      for (int i = 0; i < 10 * kConnections; ++i) {
        send(*d.clients[static_cast<size_t>(i % kConnections)],
             static_cast<int>(rng() % 3), rng() % params.num_professors);
      }
      if (d.server->plan_cache().misses() == misses) break;
    }
    times->warmup = t.Stop();
  }
  return d;
}

PhaseResult RunPhase(Deployment& d, const Expected& expected, size_t profs,
                     double seconds, uint64_t seed,
                     std::vector<ConnectionTrace>* traces) {
  const Clock::time_point start = Clock::now();
  std::vector<PhaseResult> per_conn(kConnections);
  std::vector<std::thread> threads;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003ULL + static_cast<uint64_t>(c));
      PhaseResult& r = per_conn[static_cast<size_t>(c)];
      Client& client = *d.clients[static_cast<size_t>(c)];
      std::vector<std::string> body;
      while (Clock::now() < deadline) {
        const int cls = static_cast<int>(rng() % 3);
        const size_t k = rng() % profs;
        const std::string text = QueryText(cls, k);
        bool sent = false;
        const Clock::time_point t0 = Clock::now();
        {
          semopt::obs::TraceSpan span(kSpanNames[cls]);
          sent = client.Request(text, &body);
        }
        const double us = MicrosBetween(t0, Clock::now());
        ++r.attempted;
        if (!sent) {
          ++r.failed;
          break;
        }
        if (!ReplyMatches(body, expected.For(cls, k))) ++r.failed;
        r.op[cls].Add(us);
        if (traces != nullptr) {
          (*traces)[static_cast<size_t>(c)].sent.push_back({cls, us});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult total;
  for (const PhaseResult& r : per_conn) total.Merge(r);
  total.seconds = SecondsSince(start);
  return total;
}

}  // namespace

Outcome RunServeRecursive(const RunOptions& options) {
  const semopt::UniversityParams params = ParamsFor(options);
  Expected expected = ParseExpected(
      RunInChild([&] { return ComputeExpected(params); }),
      params.num_professors);

  Outcome out;
  out.shape = "connections=3 closed-loop; lanes=1 per query; admission "
              "heavy=2 light=2; professors=" +
              std::to_string(params.num_professors) +
              " students=" + std::to_string(params.num_students);

  if (options.trace) semopt::obs::StartTracing();
  std::vector<SetupTimes> reps(kSetupRepetitions);
  double bulk_load_us = 0;
  Samples optimize_us;
  Deployment d;
  for (SetupTimes& rep : reps) {
    d = Deployment();  // stops the previous repetition's server
    d = SetUp(options, params, expected, &rep, &bulk_load_us, &optimize_us);
  }
  if (options.trace) {
    semopt::obs::StopTracing(options.out_dir + "/trace-setup.json");
  }
  if (options.corrupt_oracle) expected.closure.hash_sum ^= 1;

  const size_t profs = params.num_professors;
  if (!options.trace) {
    const PhaseResult phase =
        RunPhase(d, expected, profs, options.seconds, options.seed, nullptr);
    out.attempted = phase.attempted;
    out.failed = phase.failed;
    AddClassTable(phase, kClassNames, &out.table);
    AddSetupMetrics(reps, &out.e2e, &out.layers);
    out.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    AddPhaseMetrics(phase, &out.e2e);
    return out;
  }

  // The untraced halves and the traced phase send the same requests.
  UntracedHalves untraced;
  untraced.first = RunPhase(d, expected, profs, options.seconds / 2,
                            options.seed, nullptr);
  untraced.second = RunPhase(d, expected, profs, options.seconds / 2,
                             options.seed, nullptr);
  const PhaseResult phase = untraced.Whole();
  out.attempted = phase.attempted;
  out.failed = phase.failed;
  AddClassTable(phase, kClassNames, &out.table);

  std::vector<ConnectionTrace> traces(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    traces[c].qlog_path =
        options.out_dir + "/qlog-serve-" + std::to_string(c) + ".jsonl";
    d.clients[c]->MustRequest(":qlog " + traces[c].qlog_path,
                              "session query log");
  }
  const ServerCounters before = ReadServerCounters(*d.server, *d.control);
  GenerationSampler sampler(&d.server->store());
  semopt::obs::StartTracing();
  PhaseResult traced =
      RunPhase(d, expected, profs, options.seconds, options.seed, &traces);
  semopt::obs::StopTracing(options.out_dir + "/trace-timed.json");
  const size_t live_max = sampler.Stop();
  for (int c = 0; c < kConnections; ++c) {
    d.clients[c]->MustRequest(":qlog off", "session query log closed");
  }
  const ServerCounters after = ReadServerCounters(*d.server, *d.control);

  out.attempted += traced.attempted;
  out.failed += traced.failed;
  AddSetupMetrics(reps, &out.e2e, &out.layers);
  out.layers["semopt.optimize_us.university"] = optimize_us.Percentile(0.5);
  out.layers["io.bulk_load_us"] = bulk_load_us;
  AddQueryLogLayers(traces, {kClassNames, kClassNames + 3}, &out);
  AddServerCounterLayers(before, after, live_max, &out);
  AddTraceOverhead(untraced, traced, &out);
  return out;
}

}  // namespace perfbench
