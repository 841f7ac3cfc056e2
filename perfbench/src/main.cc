// triq_perfbench: the end-to-end benchmark of the TriQ engine.
//
//   triq_perfbench --workload owl_materialize|sparql_serve
//                  --seed N --seconds S --trace 0|1 --server PATH
//                  --work-dir DIR [--commit TEXT]
//
// Each run generates its input from the seed, sets up several times
// (reporting the median set-up), measures its workload for S seconds,
// checks every answer against computations made apart from the engine
// (dataset.h), and prints as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, measured by timing calls into the public functions of each
// layer (see README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"

#include "dataset.h"
#include "server_client.h"
#include "session.h"
#include "support.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using triq::Engine;

// ---- Fixed configuration (recorded in every result) -------------------

constexpr size_t kSetups = 5;             // set-ups per run; median reported
constexpr size_t kChaseThreads = 1;       // owl_materialize chase threads
constexpr size_t kConnections = 1;        // sparql_serve: one closed loop
constexpr size_t kWarmupRequests = 2000;  // untimed, before sparql_serve
constexpr size_t kTailWindow = 100;       // least operations per op_p90 window
const char* const kFsyncPolicy = "batch";  // the layer probe's journal

DatasetConfig WorkloadDataset(uint64_t seed) {
  DatasetConfig config;
  config.seed = seed;
  config.depth = 3;
  config.fanout = 4;
  config.per_leaf = 40;
  return config;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir;
  std::string commit = "unknown";
};

double Ms(double seconds) { return seconds * 1e3; }

/// Parses a SPARQL reply into canonical rows; false if it is not
/// `ROW ...`* followed by `OK <n>` with n rows.
bool ParseReply(const std::string& reply, RowSet* rows) {
  std::istringstream in(reply);
  std::string line;
  size_t count = 0;
  while (std::getline(in, line)) {
    if (line.rfind("ROW ", 0) == 0) {
      rows->insert(CanonicalRow(line.substr(4)));
      ++count;
    } else if (line.rfind("OK ", 0) == 0) {
      return std::strtoull(line.c_str() + 3, nullptr, 10) == count;
    } else {
      return false;
    }
  }
  return false;
}

/// Order-independent digest of a reply's row lines.
uint64_t ReplyDigest(const std::string& reply) {
  std::vector<std::string> lines;
  std::istringstream in(reply);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& l : lines) {
    for (char c : l) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    h = (h ^ '\n') * 1099511628211ull;
  }
  return h;
}

// ---- Answer checks on a materialized session ---------------------------

/// The closed form from the generator: every individual is typed by its
/// leaf class and each ancestor up to the root, and by no other named
/// class; the chase invents one null per individual under the restricted
/// class.
void CheckClosure(const Dataset& ds, Engine& engine, size_t nulls_created,
                  Outcome* out) {
  auto triples = engine.Answers("triple1");
  if (!triples.ok()) {
    out->Mismatch("reading triple1: " + triples.status().ToString());
    return;
  }
  const triq::Dictionary& dict = engine.dict();
  std::unordered_map<std::string, int> individual;
  for (int j = 0; j < ds.num_individuals(); ++j) individual[ds.Name(j)] = j;
  std::unordered_map<std::string, int> named_class;
  for (int c = 0; c < ds.num_classes(); ++c) {
    named_class[Dataset::ClassName(c)] = c;
  }
  const triq::SymbolId rdf_type = dict.Find("rdf:type");
  std::vector<std::set<int>> types(ds.num_individuals());
  for (const auto& t : *triples) {
    if (t[1].symbol() != rdf_type) continue;
    auto ind = individual.find(dict.Text(t[0].symbol()));
    auto cls = named_class.find(dict.Text(t[2].symbol()));
    if (ind == individual.end() || cls == named_class.end()) continue;
    types[ind->second].insert(cls->second);
  }
  for (int j = 0; j < ds.num_individuals(); ++j) {
    std::vector<int> expected = ds.Ancestors(ds.leaf_of(j));
    std::set<int> want(expected.begin(), expected.end());
    if (types[j] != want) {
      out->Mismatch("named types of " + ds.Name(j) + ": got " +
                    std::to_string(types[j].size()) + ", want " +
                    std::to_string(want.size()));
      return;
    }
  }
  const size_t want_nulls = ds.CountUnder(ds.restricted_class());
  if (nulls_created != want_nulls) {
    out->Mismatch("nulls created: got " + std::to_string(nulls_created) +
                  ", want " + std::to_string(want_nulls));
  }
}

struct Setup {
  std::unique_ptr<Dataset> ds;
  std::string turtle;
};

/// Generation: the dataset, its Turtle text.
Setup Generate(const RunConfig& run) {
  Setup s;
  s.ds = std::make_unique<Dataset>(WorkloadDataset(run.seed));
  s.turtle = s.ds->ToTurtle();
  return s;
}

/// `lat_s` in the order taken. The gated tail is the median over windows
/// of at least kTailWindow operations of each window's p90 (ten samples
/// or more beyond it per window); the run-wide p90 is reported beside it.
void AddSetupMetrics(const std::vector<double>& setups,
                     const std::vector<double>& lat_s, double ops_per_s,
                     double peak_rss_mb, Outcome* out) {
  out->Add("setup_s", Median(setups), "s");
  out->Add("peak_rss_mb", peak_rss_mb, "MB");
  out->Add("op_p50_ms", Ms(Percentile(lat_s, 50)), "ms");
  out->Add("op_p90_ms", Ms(WindowedPercentile(lat_s, kTailWindow, 90)), "ms");
  out->Add("ops_per_s", ops_per_s, "1/s");
  out->detail["op_samples"] = static_cast<double>(lat_s.size());
  out->detail["op_p90_windows"] =
      static_cast<double>(std::max<size_t>(1, lat_s.size() / kTailWindow));
  out->detail["op_p90_run_ms"] = Ms(Percentile(lat_s, 90));
  out->detail["op_p90_run_samples_beyond"] =
      static_cast<double>(SamplesBeyond(lat_s.size(), 90));
}

// ---- owl_materialize ----------------------------------------------------

/// Cold sessions: load the Turtle, then Materialize(). Returns the
/// Materialize latencies and the sessions completed per second. A load
/// or Materialize that fails would fail the same way in every later
/// session, so the first failure ends the loop.
std::vector<double> MaterializeLoop(const Dataset& ds, const std::string& turtle,
                                    double seconds, Tracer* tracer,
                                    Outcome* out, double* per_s) {
  std::vector<double> lat;
  const Clock::time_point start = Clock::now();
  uint64_t op = 0;
  size_t want_derived = 0;
  while (SecondsSince(start) < seconds || lat.empty()) {
    tracer->BeginOperation();
    ScopedSpan session(tracer, "session", -1, ++op);
    Engine engine(SessionOptions(kChaseThreads));
    triq::Status loaded;
    {
      ScopedSpan span(tracer, "engine.load_turtle", session.id(), op);
      loaded = engine.LoadTurtle(turtle);
    }
    out->Count("load", loaded.ok());
    if (!loaded.ok()) break;
    const Clock::time_point t0 = Clock::now();
    triq::Result<triq::chase::ChaseStats> stats = [&] {
      ScopedSpan span(tracer, "engine.materialize", session.id(), op);
      return engine.Materialize();
    }();
    const double dt = SecondsSince(t0);
    out->Count("materialize", stats.ok());
    if (!stats.ok()) break;
    tracer->EndOperation(dt);
    lat.push_back(dt);
    // Every cold session derives the same closure.
    if (want_derived == 0) want_derived = stats->facts_derived;
    if (stats->facts_derived != want_derived ||
        stats->nulls_created !=
            ds.CountUnder(ds.restricted_class())) {
      out->Mismatch("session closure differs from the first session's");
    }
  }
  *per_s = static_cast<double>(lat.size()) / SecondsSince(start);
  return lat;
}

void OwlMaterialize(const RunConfig& run, Tracer* tracer, Outcome* out) {
  std::vector<double> setups;
  Setup s;
  for (size_t i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    s = Generate(run);
    Engine engine(SessionOptions(kChaseThreads));
    triq::Status st = engine.LoadTurtle(s.turtle);
    auto stats = st.ok() ? engine.Materialize()
                         : triq::Result<triq::chase::ChaseStats>(st);
    setups.push_back(SecondsSince(t0));
    out->Count("setup", stats.ok());
    if (!stats.ok()) return;
    if (i + 1 == kSetups) {
      CheckClosure(*s.ds, engine, stats->nulls_created, out);
      out->detail["closure_facts"] = static_cast<double>(
          stats->facts_derived + engine.base().TotalFacts());
      out->detail["rule_firings"] = static_cast<double>(stats->rule_firings);
    }
  }
  double per_s = 0;
  std::vector<double> lat =
      MaterializeLoop(*s.ds, s.turtle, run.seconds, tracer, out, &per_s);
  out->detail["materialize_s"] = Median(lat);
  AddSetupMetrics(setups, lat, per_s, SelfPeakRssMb(), out);
}

// ---- sparql_serve -------------------------------------------------------

struct ServeSample {
  double latency_s;
  size_t rank;
  size_t bytes;
};

/// True for a reply that carries no ERR line.
bool IsAnswer(const std::string& reply) {
  return reply.rfind("ERR", 0) != 0 && reply.find("\nERR") == std::string::npos;
}

/// Starts a server holding the materialized session.
std::unique_ptr<ServerProcess> StartServer(const RunConfig& run,
                                           const std::string& turtle,
                                           Outcome* out) {
  auto server = std::make_unique<ServerProcess>(run.server, ServerArgs());
  out->Count("server_start", server->ok());
  if (!server->ok()) return nullptr;
  Connection conn(server->port());
  std::string reply;
  bool ok = conn.ok();
  for (const std::string& line : LoadLines(turtle)) {
    ok = ok && conn.Request(line, &reply) && reply.rfind("OK", 0) == 0;
  }
  ok = ok && conn.Request("MATERIALIZE", &reply) && reply.rfind("OK", 0) == 0;
  out->Count("server_load", ok);
  if (!ok) return nullptr;
  return server;
}

/// Sends SHUTDOWN and waits for the server to exit.
void StopServer(ServerProcess* server, Outcome* out) {
  Connection conn(server->port());
  std::string reply;
  conn.Request("SHUTDOWN", &reply);
  out->Count("server_shutdown", server->Wait() == 0);
}

/// The server's plan-cache counters (STATS sparql_cache_*), by name.
std::map<std::string, double> CacheStats(Connection* conn, Outcome* out) {
  std::map<std::string, double> stats;
  std::string reply;
  const bool ok = conn->Request("STATS", &reply) && IsAnswer(reply);
  out->Count("stats", ok);
  std::istringstream in(reply);
  std::string word, name;
  double value = 0;
  while (in >> word) {
    if (word != "STAT") continue;
    in >> name >> value;
    if (name.rfind("sparql_cache", 0) == 0) stats[name] = value;
  }
  return stats;
}

struct ServeRun {
  std::vector<ServeSample> samples;
  std::map<size_t, std::string> first_reply;  // by rank
  double warm_rss_mb = 0;  // server peak RSS after the warm-up
  double elapsed_s = 0;
  double miss_share = 0;   // plan-cache misses per timed query
};

/// The closed loop on one connection: untimed warm-up requests fill the
/// plan cache, then each query is drawn and sent once the previous reply
/// is whole. The server's peak RSS is read after the warm-up, a fixed
/// amount of work, unlike the timed window, whose plan-cache misses grow
/// the server with its throughput. A later reply to a text must match its
/// first reply, which the caller checks against the oracle.
ServeRun ServeLoop(const ServerProcess& server,
                   const std::vector<QueryText>& family, uint64_t seed,
                   double seconds, Tracer* tracer, Outcome* out) {
  ServeRun run;
  Connection conn(server.port());
  out->Count("connect", conn.ok());
  if (!conn.ok()) return run;
  const Zipf zipf(family.size(), kZipfS);
  Rng rng(seed * 1000003ull);
  std::string reply;
  for (size_t i = 0; i < kWarmupRequests; ++i) {
    const bool sent =
        conn.Request("SPARQL " + family[zipf.Draw(&rng)].text, &reply);
    out->Count("warmup", sent && IsAnswer(reply));
    if (!sent) return run;
  }
  run.warm_rss_mb = server.PeakRssMb();
  std::map<std::string, double> before = CacheStats(&conn, out);
  std::map<size_t, uint64_t> digests;
  uint64_t op = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    const size_t rank = zipf.Draw(&rng);
    const std::string line = "SPARQL " + family[rank].text;
    tracer->BeginOperation();
    const Clock::time_point t0 = Clock::now();
    bool sent;
    {
      ScopedSpan span(tracer, "client.request", -1, ++op);
      sent = conn.Request(line, &reply);
    }
    const double dt = SecondsSince(t0);
    tracer->EndOperation(dt);
    const bool ok = sent && IsAnswer(reply);
    out->Count("query", ok);
    if (!sent) break;  // the connection is gone
    if (!ok) continue;
    run.samples.push_back(ServeSample{dt, rank, reply.size()});
    const uint64_t digest = ReplyDigest(reply);
    auto [it, fresh] = digests.emplace(rank, digest);
    if (fresh) {
      run.first_reply.emplace(rank, reply);
    } else if (it->second != digest) {
      out->Mismatch("query rank " + std::to_string(rank) +
                    " answered differently on repeat");
    }
  }
  run.elapsed_s = SecondsSince(start);
  std::map<std::string, double> after = CacheStats(&conn, out);
  const double misses =
      after["sparql_cache_misses"] - before["sparql_cache_misses"];
  const double lookups = misses + after["sparql_cache_hits"] -
                         before["sparql_cache_hits"];
  run.miss_share = lookups > 0 ? misses / lookups : 0;
  for (const auto& [name, value] : after) out->detail[name] = value;
  return run;
}

void SparqlServe(const RunConfig& run, Tracer* tracer, Outcome* out) {
  std::vector<double> setups;
  Setup s;
  std::unique_ptr<ServerProcess> server;
  for (size_t i = 0; i < kSetups; ++i) {
    if (server != nullptr) StopServer(server.get(), out);
    server.reset();
    const Clock::time_point t0 = Clock::now();
    s = Generate(run);
    server = StartServer(run, s.turtle, out);
    setups.push_back(SecondsSince(t0));
    if (server == nullptr) return;
  }
  const std::vector<QueryText> family = s.ds->QueryFamily(kFamily);
  const ServeRun served =
      ServeLoop(*server, family, run.seed, run.seconds, tracer, out);
  out->detail["server_peak_rss_end_mb"] = server->PeakRssMb();
  StopServer(server.get(), out);
  // Every distinct query answered is checked against the oracle.
  for (const auto& [rank, reply] : served.first_reply) {
    RowSet got;
    if (!ParseReply(reply, &got)) {
      out->Mismatch("malformed reply to rank " + std::to_string(rank));
      continue;
    }
    const RowSet want = s.ds->ExpectedAnswer(family[rank]);
    if (got != want) {
      std::string diff;
      for (const Row& r : got) {
        if (!want.count(r)) diff += " extra[" + r + "]";
        if (diff.size() > 200) break;
      }
      for (const Row& r : want) {
        if (!got.count(r)) diff += " missing[" + r + "]";
        if (diff.size() > 400) break;
      }
      out->Mismatch("wrong answer to: " + family[rank].text + " got " +
                    std::to_string(got.size()) + " want " +
                    std::to_string(want.size()) + diff);
    }
  }
  std::vector<double> lat;
  double bytes = 0;
  for (const ServeSample& x : served.samples) {
    lat.push_back(x.latency_s);
    bytes += static_cast<double>(x.bytes);
  }
  out->detail["query_p99_ms"] = Ms(Percentile(lat, 99));
  out->detail["query_p99_samples_beyond"] =
      static_cast<double>(SamplesBeyond(lat.size(), 99));
  out->detail["distinct_queries_checked"] =
      static_cast<double>(served.first_reply.size());
  out->detail["reply_bytes_mean"] =
      lat.empty() ? 0 : bytes / static_cast<double>(lat.size());
  out->detail["timed_miss_share"] = served.miss_share;
  AddSetupMetrics(setups, lat,
                  served.elapsed_s > 0
                      ? static_cast<double>(lat.size()) / served.elapsed_s
                      : 0,
                  served.warm_rss_mb, out);
}

using WorkloadFn = void (*)(const RunConfig&, Tracer*, Outcome*);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "owl_materialize") return OwlMaterialize;
  if (name == "sparql_serve") return SparqlServe;
  return nullptr;
}

/// Total and stolen CPU jiffies of the machine (/proc/stat); on a shared
/// host, time the hypervisor gave to other guests explains run-to-run
/// drift that no change to the engine caused.
std::pair<double, double> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintProvenance(const RunConfig& run, const Outcome& out) {
  std::string text = "{\"machine\": {";
  text += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  text += ", \"cpu\": " + JsonString(CpuModel());
  text += ", \"compiler\": " + JsonString(std::string("gcc ") + __VERSION__);
  text += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  text += ", \"commit\": " + JsonString(run.commit);
  text += "}, \"config\": {";
  text += "\"workload\": " + JsonString(run.workload);
  text += ", \"seed\": " + std::to_string(run.seed);
  text += ", \"seconds\": " + JsonNumber(run.seconds);
  text += ", \"trace\": " + std::to_string(run.trace ? 1 : 0);
  text += ", \"regime\": \"active-domain\"";
  text += ", \"chase_threads\": " +
          std::to_string(run.workload == "owl_materialize" ? kChaseThreads : 1);
  text += ", \"server_workers\": " + std::to_string(kServerWorkers);
  text += ", \"connections\": " + std::to_string(kConnections);
  text += ", \"fsync\": " + JsonString(kFsyncPolicy);
  text += ", \"plan_cache_capacity\": " + std::to_string(kPlanCache);
  text += ", \"query_family\": " + std::to_string(kFamily);
  text += ", \"zipf_s\": " + JsonNumber(kZipfS);
  text += ", \"setups\": " + std::to_string(kSetups);
  const DatasetConfig d = WorkloadDataset(run.seed);
  text += ", \"individuals\": " +
          std::to_string(static_cast<int>(std::pow(d.fanout, d.depth)) *
                         d.per_leaf);
  text += "}, \"operations\": {";
  bool first = true;
  for (const auto& [op, c] : out.ops) {
    if (!first) text += ", ";
    first = false;
    text += JsonString(op) + ": {\"attempted\": " + std::to_string(c.first) +
            ", \"failed\": " + std::to_string(c.second) + "}";
  }
  text += "}, \"detail\": {";
  first = true;
  for (const auto& [name, value] : out.detail) {
    if (!first) text += ", ";
    first = false;
    text += JsonString(name) + ": " + JsonNumber(value);
  }
  text += "}}";
  std::printf("%s\n", text.c_str());
}

void PrintSelfTimes(const Tracer& tracer, const char* phase) {
  std::printf("# self time by span (%s)\n", phase);
  for (const auto& [name, t] : tracer.Summarise()) {
    std::printf("#   %-32s n=%-8zu self=%.6fs total=%.6fs\n", name.c_str(),
                t.count, t.self_s, t.total_s);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: triq_perfbench --workload "
               "owl_materialize|sparql_serve --seed N "
               "--seconds S --trace 0|1 --server PATH --work-dir DIR "
               "[--commit TEXT]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig run;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      run.workload = value;
    } else if (arg == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      run.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      run.trace = value == "1";
    } else if (arg == "--server") {
      run.server = value;
    } else if (arg == "--work-dir") {
      run.work_dir = value;
    } else if (arg == "--commit") {
      run.commit = value;
    } else {
      return Usage();
    }
  }
  WorkloadFn workload = FindWorkload(run.workload);
  if (workload == nullptr || run.seconds <= 0 || run.server.empty() ||
      run.work_dir.empty()) {
    return Usage();
  }
  std::error_code ec;
  fs::create_directories(run.work_dir, ec);

  Outcome out;
  std::vector<Metric> result;
  const std::pair<double, double> jiffies_before = CpuJiffies();
  if (!run.trace) {
    Tracer off(false);
    workload(run, &off, &out);
    result = out.metrics;
  } else {
    // One run of the workload in which every other operation is traced:
    // the median ratio of neighbouring traced and untraced operations is
    // the tracing overhead. Then the layer probe.
    RunConfig traced = run;
    traced.seconds = run.seconds * 0.8;
    Tracer alternating(true, /*alternate=*/true);
    workload(traced, &alternating, &out);
    PrintSelfTimes(alternating, "traced operations of the workload");
    out.detail["trace_paired_operations"] =
        static_cast<double>(alternating.operations() / 2);
    Tracer probe_tracer(true);
    Setup s = Generate(run);
    ProbeLayers(*s.ds, s.turtle, run.server, run.work_dir, &probe_tracer,
                &result, &out);
    PrintSelfTimes(probe_tracer, "layer probe");
    result.push_back(
        Metric{"trace.overhead_pct", alternating.OverheadPct(), "%"});
  }

  const std::pair<double, double> jiffies_after = CpuJiffies();
  const double total = jiffies_after.first - jiffies_before.first;
  out.detail["host_steal_pct"] =
      total > 0 ? 100.0 * (jiffies_after.second - jiffies_before.second) / total
                : 0.0;
  PrintProvenance(run, out);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "MISMATCH: %s\n", e.c_str());
  }
  if (result.empty()) {
    // A set-up failed before anything was measured: no result to print.
    std::fprintf(stderr, "triq_perfbench: %s measured nothing\n",
                 run.workload.c_str());
    return 1;
  }
  uint64_t attempted = 0, failed = 0;
  for (const auto& [op, c] : out.ops) {
    attempted += c.first;
    failed += c.second;
  }
  std::string line = "{\"correct\": ";
  line += out.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(result[i].name) + ": {\"value\": " +
            JsonNumber(result[i].value) + ", \"unit\": " +
            JsonString(result[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
