// The layer probe of a traced run: times calls into one public function
// of each layer at a time, over the same generated input the workload
// uses, and turns the spans into the per-layer metrics. Its journaled
// session also checks writes: the answers after the last write against
// BFS over the dataset's own edges, and the session reopened from its
// journal against the one closed.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/fact_dump.h"
#include "engine/engine.h"
#include "engine/journal.h"
#include "owl/rdf_mapping.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "translate/sparql_to_datalog.h"

#include "dataset.h"
#include "server_client.h"
#include "session.h"
#include "support.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using triq::Engine;
using triq::EngineOptions;

constexpr size_t kRepeats = 3;         // bulk steps, median reported
constexpr size_t kBatches = 8;         // incremental steps
constexpr size_t kProbeQueries = 48;   // query-layer steps
constexpr size_t kCacheDraws = 1500;   // Zipf replay for the plan cache

/// Single-source reachability over `knows`, a recursive TriQ query
/// beyond the paper's SPARQL fragment. The answer predicate may not
/// occur in a rule body, so the recursion runs on a helper predicate.
std::string ReachAnswer(int source) { return "reach" + std::to_string(source); }

std::string ReachRules(const Dataset& ds, int source) {
  const std::string walk = "walk" + std::to_string(source);
  return "triple1(" + ds.Name(source) + ", knows, ?Y) -> " + walk +
         "(?Y) .\n" + walk + "(?X), triple1(?X, knows, ?Y) -> " + walk +
         "(?Y) .\n" + walk + "(?Y) -> " + ReachAnswer(source) + "(?Y) .\n";
}

RowSet MappingRows(const triq::sparql::MappingSet& mappings,
                   const triq::Dictionary& dict) {
  RowSet rows;
  for (const auto& m : mappings.mappings()) {
    rows.insert(CanonicalRow(m.ToString(dict)));
  }
  return rows;
}

/// The closure with labeled-null names erased: sorted fact lines plus
/// the null count. Equal for two closures that differ only in how their
/// nulls are numbered.
std::string NullErasedClosure(const triq::chase::Instance& instance) {
  std::istringstream in(instance.ToString());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    std::string erased;
    for (size_t i = 0; i < line.size(); ++i) {
      erased += line[i];
      if (line.compare(i, 3, "_:n") == 0) {
        erased += ":n";
        i += 3;
        while (i < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[i]))) {
          ++i;
        }
        --i;
      }
    }
    lines.push_back(std::move(erased));
  }
  std::sort(lines.begin(), lines.end());
  std::string out = std::to_string(instance.null_count()) + "\n";
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// Checks recursive reachability from a few sources and a few SPARQL
/// texts of the serving family against the dataset's own copy.
void CheckReads(const Dataset& ds, Engine& engine, Outcome* out) {
  const int department = ds.config().department;
  const int departments = ds.num_individuals() / department;
  for (int i = 0; i < 4; ++i) {
    const int source = (i * departments / 4) * department;
    auto q = engine.Prepare(ReachRules(ds, source), ReachAnswer(source));
    auto answers = q.ok() ? q->Evaluate()
                          : triq::Result<std::vector<triq::chase::Tuple>>(
                                q.status());
    out->Count("probe.check_reach", answers.ok());
    if (!answers.ok()) continue;
    std::set<std::string> got;
    for (const auto& t : *answers) got.insert(engine.dict().Text(t[0].symbol()));
    std::set<std::string> want;
    for (int j : ds.Reach(source)) want.insert(ds.Name(j));
    if (got != want) out->Mismatch("reachability from " + ds.Name(source));
  }
  for (const QueryText& text : ds.QueryFamily(8)) {
    auto result = engine.Query(text.text);
    out->Count("probe.check_query", result.ok());
    if (!result.ok()) continue;
    if (MappingRows(*result, engine.dict()) != ds.ExpectedAnswer(text)) {
      out->Mismatch("wrong answer after writes to: " + text.text);
    }
  }
}

/// Times `fn` inside a span named `name`; returns the seconds taken.
template <typename Fn>
double Timed(Tracer* tracer, const std::string& name, int64_t parent,
             uint64_t op, Fn&& fn) {
  ScopedSpan span(tracer, name, parent, op);
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

}  // namespace

void ProbeLayers(const Dataset& ds_in, const std::string& turtle,
                 const std::string& server_binary, const std::string& work_dir,
                 Tracer* tracer, std::vector<Metric>* layer, Outcome* out) {
  auto add = [layer](const std::string& name, double value,
                     const std::string& unit) {
    layer->push_back(Metric{name, value, unit});
  };
  auto count = [out](const std::string& op, bool ok) { out->Count(op, ok); };
  Dataset ds = ds_in;
  const int64_t root = tracer->Begin("probe", -1, 0);

  // ---- rdf, owl, engine load, bulk chase, freeze -----------------------
  std::vector<double> parse_s, to_graph_s, load_s, run_s, freeze_s;
  triq::chase::ChaseStats chase_stats;
  for (size_t i = 0; i < kRepeats; ++i) {
    auto dict = std::make_shared<triq::Dictionary>();
    triq::rdf::Graph graph(dict);
    triq::Status parsed;
    parse_s.push_back(Timed(tracer, "rdf.parse_turtle_stream", root, i, [&] {
      std::istringstream in(turtle);
      parsed = triq::rdf::ParseTurtleStream(in, &graph);
    }));
    count("probe.parse", parsed.ok());
    {
      auto odict = std::make_shared<triq::Dictionary>();
      triq::owl::Ontology ontology = ds.BuildOntology(odict.get());
      triq::rdf::Graph ograph(odict);
      to_graph_s.push_back(Timed(tracer, "owl.ontology_to_graph", root, i, [&] {
        triq::owl::OntologyToGraph(ontology, &ograph);
      }));
    }
    Engine engine(SessionOptions(1));
    triq::Status loaded;
    load_s.push_back(Timed(tracer, "engine.load_graph", root, i,
                           [&] { loaded = engine.LoadGraph(graph); }));
    count("probe.load", loaded.ok());
    triq::chase::Instance instance = engine.base().CloneFacts();
    triq::chase::ChaseStats stats;
    triq::Status chased;
    run_s.push_back(Timed(tracer, "chase.run_chase", root, i, [&] {
      chased = triq::chase::RunChase(engine.program(), &instance,
                                     engine.options().ToChaseOptions(), &stats);
    }));
    count("probe.chase", chased.ok());
    chase_stats = stats;
    freeze_s.push_back(Timed(tracer, "chase.freeze_all_indexes", root, i,
                             [&] { instance.FreezeAllIndexes(); }));
  }
  add("rdf.parse_s", Median(parse_s), "s");
  add("owl.to_graph_s", Median(to_graph_s), "s");
  add("engine.load_s", Median(load_s), "s");
  add("chase.run_s", Median(run_s), "s");
  const double firings = static_cast<double>(chase_stats.rule_firings);
  add("chase.ns_per_firing", firings > 0 ? Median(run_s) * 1e9 / firings : 0,
      "ns");
  add("chase.derive_ratio",
      firings > 0 ? static_cast<double>(chase_stats.facts_derived) / firings : 0,
      "ratio");
  add("chase.rule_firings", firings, "count");
  add("chase.facts_derived", static_cast<double>(chase_stats.facts_derived),
      "count");
  add("chase.nulls_created", static_cast<double>(chase_stats.nulls_created),
      "count");
  add("chase.rounds", static_cast<double>(chase_stats.rounds), "count");
  add("chase.freeze_s", Median(freeze_s), "s");

  // ---- incremental chase: clone the published closure, resume a batch --
  Engine engine(SessionOptions(1));
  count("probe.load", engine.LoadTurtle(turtle).ok());
  count("probe.materialize", engine.Materialize().ok());
  std::vector<double> clone_s, resume_s;
  {
    auto snap = engine.CurrentSnapshot();
    count("probe.snapshot", snap.ok());
    if (snap.ok()) {
      triq::Dictionary& dict = engine.dict();
      const triq::SymbolId triple = dict.Intern("triple");
      uint64_t rng_state = ds.config().seed + 5;
      for (size_t b = 0; b < kBatches; ++b) {
        triq::chase::Instance next(engine.dict_ptr());
        clone_s.push_back(Timed(tracer, "chase.clone_facts", root, b, [&] {
          next = (*snap)->instance.CloneFacts();
        }));
        const Dataset::Batch batch = ds.NextBatch(&rng_state);
        auto c = [&](const std::string& text) {
          return triq::chase::Term::Constant(dict.Intern(text));
        };
        next.AddFact(triple, triq::chase::Tuple{c(batch.individual),
                                                c("rdf:type"),
                                                c(Dataset::ClassName(batch.leaf))});
        for (const auto& [from, to] : batch.edges) {
          next.AddFact(triple, triq::chase::Tuple{c(ds.Name(from)), c("knows"),
                                                  c(ds.Name(to))});
        }
        triq::Status resumed;
        resume_s.push_back(Timed(tracer, "chase.resume_chase", root, b, [&] {
          resumed = triq::chase::ResumeChase(
              engine.program(), &next, (*snap)->saturated,
              engine.options().ToChaseOptions());
        }));
        count("probe.resume", resumed.ok());
      }
    }
  }
  add("chase.clone_s", Median(clone_s), "s");
  add("chase.resume_s", Median(resume_s), "s");

  // ---- sparql, translate, engine query layers --------------------------
  const std::vector<QueryText> family = ds.QueryFamily(kFamily);
  std::vector<double> parse_us, translate_us, prepare_us, overlay_ms,
      cached_us, decode_us;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    // Each text is new to this engine: the first Evaluate runs the
    // overlay chase, the second reads its cached result.
    const QueryText& q = family[i];
    std::unique_ptr<triq::sparql::GraphPattern> pattern;
    triq::Status st;
    parse_us.push_back(1e6 * Timed(tracer, "sparql.parse_pattern", root, i, [&] {
      auto parsed = triq::sparql::ParsePattern(q.text, &engine.dict());
      st = parsed.status();
      if (parsed.ok()) pattern = std::move(*parsed);
    }));
    count("probe.sparql_parse", st.ok());
    if (!st.ok()) continue;
    triq::translate::TranslationOptions options;
    options.regime = triq::translate::Regime::kActiveDomain;
    options.include_owl2ql_core = false;
    triq::Result<triq::translate::TranslatedQuery> translated =
        triq::Status::Internal("not run");
    translate_us.push_back(
        1e6 * Timed(tracer, "translate.translate_pattern", root, i, [&] {
          translated = triq::translate::TranslatePattern(
              *pattern, engine.dict_ptr(), options);
        }));
    count("probe.translate", translated.ok());
    if (!translated.ok()) continue;
    const std::string answer =
        engine.dict().Text(translated->answer_predicate);
    // PreparedQuery is move-only and not assignable: time it in place.
    const int64_t prepare_span = tracer->Begin("engine.prepare", root, i);
    const Clock::time_point prepare_start = Clock::now();
    triq::Result<triq::PreparedQuery> prepared =
        engine.Prepare(std::move(translated->program), answer);
    prepare_us.push_back(1e6 * SecondsSince(prepare_start));
    tracer->End(prepare_span);
    count("probe.prepare", prepared.ok());
    if (!prepared.ok()) continue;
    triq::Result<std::vector<triq::chase::Tuple>> answers =
        triq::Status::Internal("not run");
    overlay_ms.push_back(1e3 * Timed(tracer, "engine.overlay_evaluate", root, i,
                                     [&] { answers = prepared->Evaluate(); }));
    cached_us.push_back(1e6 * Timed(tracer, "engine.cached_evaluate", root, i,
                                    [&] { answers = prepared->Evaluate(); }));
    count("probe.evaluate", answers.ok());
    if (!answers.ok()) continue;
    // Decode the same answer relation AnswersToMappings reads.
    triq::chase::Instance holder(engine.dict_ptr());
    for (const auto& t : *answers) {
      holder.AddFact(translated->answer_predicate, t);
    }
    triq::sparql::MappingSet mappings;
    decode_us.push_back(
        1e6 * Timed(tracer, "translate.answers_to_mappings", root, i, [&] {
          mappings = triq::translate::AnswersToMappings(*translated, holder);
        }));
    count("probe.decode", mappings.size() == answers->size());
  }
  add("sparql.parse_us", Median(parse_us), "us");
  add("translate.translate_us", Median(translate_us), "us");
  add("translate.decode_us", Median(decode_us), "us");
  add("engine.prepare_us", Median(prepare_us), "us");
  add("engine.overlay_eval_ms", Median(overlay_ms), "ms");
  add("engine.cached_eval_us", Median(cached_us), "us");

  // Plan cache under the serving draw, then dictionary growth per miss:
  // texts evicted and asked again miss, and re-intern their predicates.
  {
    Engine cache_engine(SessionOptions(1));
    count("probe.load", cache_engine.LoadTurtle(turtle).ok());
    count("probe.materialize", cache_engine.Materialize().ok());
    const Zipf zipf(family.size(), kZipfS);
    Rng rng(ds.config().seed * 31 + 3);
    ScopedSpan span(tracer, "engine.query_zipf_replay", root, 0);
    for (size_t i = 0; i < kCacheDraws; ++i) {
      count("probe.query", cache_engine.Query(family[zipf.Draw(&rng)].text).ok());
    }
    const triq::EngineStats st = cache_engine.stats();
    const double lookups =
        static_cast<double>(st.sparql_cache_hits + st.sparql_cache_misses);
    add("engine.plan_cache_hit_ratio",
        lookups > 0 ? static_cast<double>(st.sparql_cache_hits) / lookups : 0,
        "ratio");
    add("engine.plan_cache_evictions",
        static_cast<double>(st.sparql_cache_evictions), "count");
    // Fill the cache with kPlanCache texts beyond the first 32, so the
    // first 32 were seen once and evicted.
    for (size_t i = 0; i < 32 + kPlanCache; ++i) {
      count("probe.query", cache_engine.Query(family[i].text).ok());
    }
    const triq::EngineStats before = cache_engine.stats();
    const size_t symbols = cache_engine.dict().size();
    for (size_t i = 0; i < 32; ++i) {
      count("probe.query", cache_engine.Query(family[i].text).ok());
    }
    const triq::EngineStats after = cache_engine.stats();
    const double misses =
        static_cast<double>(after.sparql_cache_misses - before.sparql_cache_misses);
    add("common.dict_symbols_per_miss",
        misses > 0 ? static_cast<double>(cache_engine.dict().size() - symbols) /
                         misses
                   : 0,
        "count");
  }

  // ---- engine journal --------------------------------------------------
  {
    const std::string path = (fs::path(work_dir) /
                              ("probe-" + std::to_string(::getpid()) + ".journal"))
                                 .string();
    auto remove = [](const std::string& p) {
      std::error_code ec;
      fs::remove(p, ec);
      fs::remove(p + ".ckpt", ec);
      fs::remove(p + ".ckpt.tmp", ec);
    };
    remove(path);
    EngineOptions jopts = SessionOptions(1)
                              .SetJournalPath(path)
                              .SetJournalFsync(triq::JournalFsync::kBatch);
    std::vector<double> append_us, checkpoint_ms, replay_s;
    double journal_bytes = 0, text_bytes = 0;
    // The oracle's copy takes the same writes as the session.
    Dataset written = ds_in;
    std::string closed_closure;
    uint64_t closed_fingerprint = 0;
    {
      auto opened = Engine::Open(jopts);
      count("probe.journal_open", opened.ok());
      if (opened.ok()) {
        std::unique_ptr<Engine> je = std::move(*opened);
        count("probe.load", je->LoadTurtle(turtle).ok());
        count("probe.materialize", je->Materialize().ok());
        uint64_t rng_state = ds.config().seed + 11;
        for (size_t b = 0; b < kBatches; ++b) {
          const Dataset::Batch batch = written.NextBatch(&rng_state);
          std::vector<std::array<std::string, 3>> triples;
          triples.push_back({batch.individual, "rdf:type",
                             Dataset::ClassName(batch.leaf)});
          for (const auto& [from, to] : batch.edges) {
            triples.push_back({written.Name(from), "knows", written.Name(to)});
          }
          const uint64_t bytes_before = je->stats().journal_bytes;
          for (const auto& t : triples) {
            triq::Status st;
            append_us.push_back(
                1e6 * Timed(tracer, "engine.add_triple_journaled", root, b,
                            [&] { st = je->AddTriple(t[0], t[1], t[2]); }));
            count("probe.journal_append", st.ok());
            text_bytes += static_cast<double>(t[0].size() + t[1].size() +
                                              t[2].size() + 4);
          }
          count("probe.materialize", je->Materialize().ok());
          std::error_code ec;
          const auto ckpt = fs::file_size(path + ".ckpt", ec);
          journal_bytes +=
              static_cast<double>(je->stats().journal_bytes - bytes_before) +
              (ec ? 0.0 : static_cast<double>(ckpt));
        }
        CheckReads(written, *je, out);
        auto snap = je->CurrentSnapshot();
        count("probe.snapshot", snap.ok());
        if (snap.ok()) {
          closed_closure = NullErasedClosure((*snap)->instance);
          closed_fingerprint = triq::chase::FactFingerprint((*snap)->instance);
        }
        // The checkpoint a publish writes: the base's fact dump, then
        // Journal::Checkpoint, into a journal of the probe's own.
        const std::string side = path + ".side";
        remove(side);
        {
          triq::Journal::Recovery recovery;
          auto journal = triq::Journal::Open(side, triq::JournalFsync::kBatch,
                                             64, &recovery);
          count("probe.journal_open", journal.ok());
          for (size_t i = 0; journal.ok() && i < kRepeats; ++i) {
            triq::Status st;
            checkpoint_ms.push_back(
                1e3 * Timed(tracer, "engine.journal_checkpoint", root, i, [&] {
                  std::string blob;
                  st = triq::chase::SaveFactsToString(je->base(), &blob);
                  if (st.ok()) st = (*journal)->Checkpoint("", blob, true);
                }));
            count("probe.checkpoint", st.ok());
          }
        }
        remove(side);
      }
    }
    // Reopen from the journal. The reopened closure must equal the one
    // closed once nulls are renumbered: replay rebuilds the closure in
    // one chase, which numbers nulls differently from the incremental
    // publishes it replaces, and chase::FactFingerprint hashes null
    // numbers, so its verdict is reported rather than required.
    for (size_t i = 0; i < kRepeats; ++i) {
      triq::Result<std::unique_ptr<Engine>> reopened =
          triq::Status::Internal("not run");
      replay_s.push_back(Timed(tracer, "engine.open_replay", root, i, [&] {
        reopened = Engine::Open(jopts);
      }));
      count("probe.replay", reopened.ok());
      if (i > 0 || !reopened.ok()) continue;
      auto snap = (*reopened)->CurrentSnapshot();
      count("probe.snapshot", snap.ok());
      if (!snap.ok()) continue;
      if (NullErasedClosure((*snap)->instance) != closed_closure) {
        out->Mismatch("reopened session's closure differs");
      }
      out->detail["reopen_fact_fingerprint_equal"] =
          triq::chase::FactFingerprint((*snap)->instance) == closed_fingerprint;
      CheckReads(written, **reopened, out);
    }
    remove(path);
    add("engine.journal_append_us", Median(append_us), "us");
    add("engine.journal_checkpoint_ms", Median(checkpoint_ms), "ms");
    add("engine.journal_write_amplification",
        text_bytes > 0 ? journal_bytes / text_bytes : 0, "ratio");
    add("engine.journal_replay_s", Median(replay_s), "s");
  }

  // ---- triq_server wire -------------------------------------------------
  {
    ServerProcess server(server_binary, ServerArgs());
    count("probe.server_start", server.ok());
    std::vector<double> round_trip_us, in_process_us;
    double reply_bytes = 0;
    if (server.ok()) {
      Connection conn(server.port());
      std::string reply;
      bool ok = conn.ok();
      for (const std::string& line : LoadLines(turtle)) {
        ok = ok && conn.Request(line, &reply);
      }
      ok = ok && conn.Request("MATERIALIZE", &reply);
      count("probe.server_load", ok);
      for (size_t i = 0; ok && i < kProbeQueries; ++i) {
        const std::string& text = family[i].text;
        // Second asks on both sides: plan and answers cached, so the
        // difference is the server's read, reply rendering and the wire.
        conn.Request("SPARQL " + text, &reply);
        (void)engine.Query(text);
        triq::Status st = triq::Status::OK();
        round_trip_us.push_back(
            1e6 * Timed(tracer, "triq_server.request", root, i,
                        [&] { ok = conn.Request("SPARQL " + text, &reply); }));
        in_process_us.push_back(
            1e6 * Timed(tracer, "engine.query_cached", root, i,
                        [&] { st = engine.Query(text).status(); }));
        count("probe.server_query", ok && reply.rfind("ERR", 0) != 0);
        count("probe.query", st.ok());
        reply_bytes += static_cast<double>(reply.size());
      }
      conn.Request("SHUTDOWN", &reply);
      count("probe.server_shutdown", server.Wait() == 0);
    }
    add("triq_server.wire_us", Median(round_trip_us) - Median(in_process_us),
        "us");
    add("triq_server.reply_bytes",
        round_trip_us.empty()
            ? 0
            : reply_bytes / static_cast<double>(round_trip_us.size()),
        "bytes");
  }
  tracer->End(root);
}

}  // namespace perfbench
