// The benchmark's own checks: percentile ranks and the sample counts
// behind each tail, the Zipf draw, and the answer oracles against
// hand-sized inputs. Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dataset.h"
#include "support.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void TestPercentiles() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  Check(Percentile(xs, 50) == 50, "p50 of 1..100 is 50");
  Check(Percentile(xs, 90) == 90, "p90 of 1..100 is 90");
  Check(Percentile(xs, 99) == 99, "p99 of 1..100 is 99");
  Check(Percentile(xs, 100) == 100, "p100 is the maximum");
  Check(Percentile({7}, 99) == 7, "one sample is every percentile");
  Check(Percentile({}, 50) == 0, "empty sample reads 0");
  Check(SamplesBeyond(100, 90) == 10, "p90 of 100 rests on 10 samples");
  Check(SamplesBeyond(1000, 99) == 10, "p99 of 1000 rests on 10 samples");
  Check(SamplesBeyond(99, 99) == 0, "p99 of 99 has no tail");
  Check(Median({3, 1, 2}) == 2, "odd median");
  Check(Median({4, 1, 3, 2}) == 2.5, "even median");

  // Five windows of 1..100, one of them a burst of stalls: the burst
  // leaves p90 at 90.
  std::vector<double> runs;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) runs.push_back(w == 2 ? 1000 + i : i);
  }
  Check(WindowedPercentile(runs, 100, 90) == 90, "windowed p90 skips a burst");
  Check(Percentile(runs, 90) > 1000, "run-wide p90 does not");
  Check(WindowedPercentile({3, 1, 2}, 100, 50) == 2,
        "fewer samples than a window: one window");
  // 190 samples make one window of all 190, not one of 100 and a
  // dropped rest; 250 make two windows of 125.
  std::vector<double> ramp;
  for (int i = 1; i <= 190; ++i) ramp.push_back(i);
  Check(WindowedPercentile(ramp, 100, 90) == 171, "every sample counts");
  for (int i = 191; i <= 250; ++i) ramp.push_back(i);
  Check(WindowedPercentile(ramp, 100, 90) == (113 + 238) / 2.0,
        "near-equal windows");

  // Traced operations alternate with untraced ones, second in even pairs
  // and first in odd ones.
  Check(!TracedOperation(0) && TracedOperation(1) && TracedOperation(2) &&
            !TracedOperation(3) && !TracedOperation(4),
        "traced operations alternate, order swapped every pair");
  // Traced operations 10% slower, while the host slows threefold halfway
  // through, and the second operation of each pair is 5% faster than the
  // first. The pairs cancel the drift, the swapped order the position.
  std::vector<double> alternating;
  for (size_t i = 0; i < 80; ++i) {
    const double base = i < 40 ? 1.0 : 3.0;
    alternating.push_back(base * (TracedOperation(i) ? 1.1 : 1.0) *
                          (i % 2 == 1 ? 0.95 : 1.0));
  }
  alternating.push_back(100.0);  // an unpaired trailing operation
  const double overhead = PairedOverheadPct(alternating);
  Check(std::fabs(overhead - 10.0) < 1.0, "paired overhead cancels drift");
  Check(PairedOverheadPct({2.0}) == 0, "no pair, no overhead");
  Tracer tracer(true, true);
  for (size_t i = 0; i < 4; ++i) {
    tracer.BeginOperation();
    Check(tracer.enabled() == TracedOperation(i), "tracer follows the order");
    const int64_t id = tracer.Begin("op", -1, i);
    tracer.End(id);
    tracer.EndOperation(TracedOperation(i) ? 1.5 : 1.0);
  }
  Check(tracer.Summarise()["op"].count == 2, "spans of traced operations only");
  Check(std::fabs(tracer.OverheadPct() - 50.0) < 1e-9, "tracer overhead");
}

void TestZipf() {
  const Zipf zipf(512, 1.0);
  double total = 0;
  for (size_t k = 0; k < zipf.size(); ++k) total += zipf.Probability(k);
  Check(std::fabs(total - 1.0) < 1e-9, "Zipf probabilities sum to 1");
  Check(std::fabs(zipf.Probability(0) / zipf.Probability(1) - 2.0) < 1e-9,
        "Zipf(1): rank 0 is twice as likely as rank 1");
  Rng a(42), b(42), c(43);
  bool same = true, differ = false;
  for (int i = 0; i < 1000; ++i) {
    const size_t x = zipf.Draw(&a), y = zipf.Draw(&b), z = zipf.Draw(&c);
    same = same && x == y;
    differ = differ || x != z;
    Check(x < 512, "draw within range");
  }
  Check(same, "same seed, same draws");
  Check(differ, "another seed, other draws");
  std::vector<size_t> hits(512, 0);
  Rng rng(7);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++hits[zipf.Draw(&rng)];
  for (size_t k : {0, 1, 10}) {
    const double expected = zipf.Probability(k) * n;
    Check(std::fabs(hits[k] - expected) < 5 * std::sqrt(expected),
          "Zipf frequency of rank " + std::to_string(k));
  }
}

/// depth 1, fanout 2: h0 with leaves h1 and h2; two individuals per leaf
/// (hx0, hx1 under h1; hx2, hx3 under h2), one department of four.
DatasetConfig Tiny() {
  DatasetConfig c;
  c.depth = 1;
  c.fanout = 2;
  c.per_leaf = 2;
  c.department = 4;
  c.out_degree = 1;
  c.silent_every = 4;
  c.seed = 5;
  return c;
}

/// Transitive closure by repeated squaring of the adjacency matrix — an
/// algorithm unlike the BFS under test.
std::vector<std::vector<bool>> Closure(const Dataset& ds) {
  const int n = ds.num_individuals();
  std::vector<std::vector<bool>> r(n, std::vector<bool>(n, false));
  for (int i = 0; i < n; ++i) {
    for (int j : ds.knows(i)) r[i][j] = true;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) r[i][j] = r[i][j] || (r[i][k] && r[k][j]);
    }
  }
  return r;
}

void TestOracles() {
  Check(CanonicalRow("{?Y->b, ?X->a}") == "?X->a, ?Y->b", "canonical row");
  Check(CanonicalRow("{}") == "", "empty row");

  Dataset ds(Tiny());
  Check(ds.num_classes() == 3 && ds.first_leaf() == 1, "tiny hierarchy");
  Check(ds.num_individuals() == 4, "four individuals");
  Check(ds.leaf_of(0) == 1 && ds.leaf_of(3) == 2, "leaf assignment");
  Check(ds.Ancestors(2) == std::vector<int>({2, 0}), "ancestors of h2");
  Check(ds.CountUnder(0) == 4 && ds.CountUnder(1) == 2, "class sizes");
  Check(ds.knows(3).empty(), "every 4th individual knows nobody");
  Check(ds.knows(0).size() == 1 && ds.knows(0)[0] != 0, "one edge, no loop");

  QueryText cls{QueryText::Kind::kClass, 1, "{ ?X0 rdf:type h1 }"};
  Check(ds.ExpectedAnswer(cls) == RowSet({"?X0->hx0", "?X0->hx1"}),
        "class lookup answer");

  // OPT keeps the silent individual hx3 unbound on ?Y; AND drops it.
  QueryText opt{QueryText::Kind::kOpt, 2,
                "OPT({ ?X3 rdf:type h2 }, { ?X3 knows ?Y3 })"};
  QueryText conj{QueryText::Kind::kAnd, 2,
                 "AND({ ?X2 rdf:type h2 }, { ?X2 knows ?Y2 })"};
  const RowSet opt_rows = ds.ExpectedAnswer(opt);
  const RowSet and_rows = ds.ExpectedAnswer(conj);
  Check(opt_rows.count("?X3->hx3") == 1, "OPT keeps an unmatched row");
  Check(and_rows.size() == 1, "AND over h2: only hx2 knows someone");
  Check(opt_rows.size() == 2, "OPT over h2: hx2's edge plus bare hx3");

  const auto closure = Closure(ds);
  for (int s = 0; s < ds.num_individuals(); ++s) {
    std::set<int> want;
    for (int j = 0; j < ds.num_individuals(); ++j) {
      if (closure[s][j]) want.insert(j);
    }
    Check(ds.Reach(s) == want, "reachability from hx" + std::to_string(s));
  }

  // Two hops over the symmetric `linked`: brute force over all pairs.
  QueryText hop{QueryText::Kind::kTwoHop, 0, "{ hx0 linked ?Y1 . ?Y1 linked ?Z1 }"};
  auto linked = [&](int a, int b) {
    for (int t : ds.knows(a)) {
      if (t == b) return true;
    }
    for (int t : ds.knows(b)) {
      if (t == a) return true;
    }
    return false;
  };
  RowSet want_hop;
  for (int y = 0; y < ds.num_individuals(); ++y) {
    for (int z = 0; z < ds.num_individuals(); ++z) {
      if (linked(0, y) && linked(y, z)) {
        want_hop.insert("?Y1->" + ds.Name(y) + ", ?Z1->" + ds.Name(z));
      }
    }
  }
  Check(ds.ExpectedAnswer(hop) == want_hop, "two-hop answer");

  // A write batch: a new individual under a leaf, wired into a department.
  uint64_t state = 9;
  const Dataset::Batch batch = ds.NextBatch(&state);
  Check(batch.individual == "hy4" && ds.num_individuals() == 5, "batch adds hy4");
  Check(ds.CountUnder(0) == 5, "the newcomer is under the root");
  bool into = false;
  for (const auto& [from, to] : batch.edges) into = into || to == 4;
  const auto closure2 = Closure(ds);
  std::set<int> want;
  for (int j = 0; j < ds.num_individuals(); ++j) {
    if (closure2[4][j]) want.insert(j);
  }
  Check(ds.Reach(4) == want, "reachability after a write");
  Check(into || batch.edges.size() < 3, "an edge leads into the newcomer");

  // The serving family: distinct texts, fixed kinds per rank.
  Dataset big(DatasetConfig{});
  const std::vector<QueryText> family = big.QueryFamily(512);
  std::set<std::string> texts;
  for (const QueryText& q : family) texts.insert(q.text);
  Check(texts.size() == 512, "family texts are distinct");
  Check(family[0].kind == QueryText::Kind::kClass &&
            family[1].kind == QueryText::Kind::kTwoHop &&
            family[2].kind == QueryText::Kind::kAnd &&
            family[3].kind == QueryText::Kind::kOpt,
        "kinds rotate by rank");
  Dataset same(DatasetConfig{});
  Check(same.QueryFamily(512)[5].text == family[5].text,
        "same seed, same family");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestZipf();
  perfbench::TestOracles();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self test: all checks passed\n");
  return 0;
}
