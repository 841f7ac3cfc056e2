// The session configuration the workloads and the layer probe share.
#ifndef TRIQ_PERFBENCH_SESSION_H_
#define TRIQ_PERFBENCH_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

#include "dataset.h"
#include "support.h"

namespace perfbench {

// The serving traffic. These three figures are assumptions, not taken
// from a measured query log: an exponent of 1 (the classic Zipf law), a
// family four times the plan cache, and equal shares of the four query
// kinds. Together they fix the plan-cache miss share near a third, which
// sets sparql_serve's tail and throughput; every run reports the share
// it measured (detail.timed_miss_share). README.md says more.
constexpr size_t kPlanCache = 128;  // EngineOptions::sparql_cache_capacity
constexpr size_t kFamily = 512;     // distinct SPARQL texts served
constexpr double kZipfS = 1.0;      // Zipf exponent of the query draw

inline triq::EngineOptions SessionOptions(size_t chase_threads) {
  return triq::EngineOptions()
      .SetRegime(triq::EntailmentRegime::kActiveDomain)
      .SetNumThreads(chase_threads)
      .SetSparqlCacheCapacity(kPlanCache);
}

/// Everything one run found: operation counts, failures, metrics.
struct Outcome {
  std::vector<std::string> errors;  // answer mismatches (correct=false)
  std::map<std::string, std::pair<uint64_t, uint64_t>> ops;  // att, failed
  std::vector<Metric> metrics;
  std::map<std::string, double> detail;

  void Count(const std::string& op, bool ok) {
    auto& c = ops[op];
    ++c.first;
    if (!ok) ++c.second;
  }
  void Mismatch(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// The per-layer measurements of a traced run (probe.cc): times calls
/// into one public function of each layer at a time over `ds`, appends
/// one metric per layer figure to `layer`, and counts each operation and
/// checks its answers into `out`. Its journaled session also takes the
/// reopen check and the reachability checks after writes.
void ProbeLayers(const Dataset& ds, const std::string& turtle,
                 const std::string& server, const std::string& work_dir,
                 Tracer* tracer, std::vector<Metric>* layer, Outcome* out);

}  // namespace perfbench

#endif  // TRIQ_PERFBENCH_SESSION_H_
