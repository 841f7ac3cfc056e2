// The benchmark's generated input and the answer checks made apart from
// the program: a LUBM-style class hierarchy of individuals
// (owl::HierarchyOntology) with a `knows` property, the super-property
// `linked` that `knows` and its inverse both entail, one existential
// restriction and one disjointness axiom the data respects. The dataset
// keeps its own copy of the hierarchy and the edges, so every expected
// answer is computed here by closed form or BFS, never read back from
// the engine.
#ifndef TRIQ_PERFBENCH_DATASET_H_
#define TRIQ_PERFBENCH_DATASET_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/dictionary.h"
#include "owl/ontology.h"

namespace perfbench {

struct DatasetConfig {
  int depth = 3;          // hierarchy levels below the root
  int fanout = 4;         // children per class
  int per_leaf = 40;      // individuals asserted at each leaf class
  int department = 32;    // knows edges stay inside blocks of this size
  int out_degree = 3;     // knows edges per individual (next on a cycle)...
  int silent_every = 8;   // ...except every 8th, which has none (OPT)
  uint64_t seed = 1;
};

/// One `SPARQL` query of the serving family, with its expected answer.
struct QueryText {
  enum class Kind { kClass, kTwoHop, kAnd, kOpt };
  Kind kind = Kind::kClass;
  int param = 0;  // class id, or individual id for kTwoHop
  std::string text;
};

/// A mapping rendered canonically: sorted "?var->value" entries joined
/// by ", " (the server's ROW payload with its entries sorted).
using Row = std::string;
using RowSet = std::set<Row>;

class Dataset {
 public:
  explicit Dataset(const DatasetConfig& config);

  const DatasetConfig& config() const { return config_; }
  int num_classes() const { return static_cast<int>(parent_.size()); }
  int num_individuals() const { return static_cast<int>(names_.size()); }
  int first_leaf() const { return first_leaf_; }
  int num_leaves() const { return num_classes() - first_leaf_; }
  int restricted_class() const { return 1; }
  /// Classes h1 and h2 are declared disjoint; no individual is under both.
  int disjoint_a() const { return 1; }
  int disjoint_b() const { return 2; }

  static std::string ClassName(int c) { return "h" + std::to_string(c); }
  const std::string& Name(int individual) const { return names_[individual]; }

  /// The ontology (TBox and ABox) over `dict`, as owl::HierarchyOntology
  /// plus this dataset's property axioms and assertions.
  triq::owl::Ontology BuildOntology(triq::Dictionary* dict) const;
  /// The whole dataset as Turtle (OntologyToGraph + WriteTurtle).
  std::string ToTurtle() const;

  // ---- Writes (the layer probe's journaled session) ---------------
  struct Batch {
    std::string individual;
    int leaf = 0;
    std::vector<std::pair<int, int>> edges;  // (from, to) individual ids
  };
  /// Draws the next batch (a new individual, its leaf and knows edges to
  /// and from its department) and records it in the dataset's own copy.
  Batch NextBatch(uint64_t* rng_state);

  // ---- Oracles -------------------------------------------------------
  bool IsUnder(int individual, int cls) const;
  size_t CountUnder(int cls) const;
  std::vector<int> Ancestors(int cls) const;  // cls itself up to the root
  RowSet ExpectedAnswer(const QueryText& query) const;
  /// Individuals reachable from `source` over one or more knows edges.
  std::set<int> Reach(int source) const;

  /// The serving family: `size` query texts whose rank order (and so
  /// their Zipf popularity) depends only on the rank; the bound
  /// individuals and classes are drawn from the seed.
  std::vector<QueryText> QueryFamily(size_t size) const;

  int leaf_of(int individual) const { return leaf_[individual]; }
  const std::vector<int>& knows(int individual) const {
    return out_[individual];
  }

 private:
  std::vector<int> Linked(int individual) const;

  DatasetConfig config_;
  std::vector<int> parent_;  // class -> parent class (-1 for the root)
  int first_leaf_ = 0;
  std::vector<std::string> names_;
  std::vector<int> leaf_;                // individual -> leaf class
  std::vector<std::vector<int>> out_;    // knows out-edges
  std::vector<std::vector<int>> in_;     // knows in-edges
};

/// Canonical form of one ROW payload "{?X->a, ?Y->b}".
Row CanonicalRow(const std::string& payload);

}  // namespace perfbench

#endif  // TRIQ_PERFBENCH_DATASET_H_
