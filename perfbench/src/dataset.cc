#include "dataset.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "owl/generator.h"
#include "owl/rdf_mapping.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "support.h"

namespace perfbench {

namespace {

using triq::owl::BasicClass;
using triq::owl::BasicProperty;

std::string Join(std::vector<std::string> entries) {
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ", ";
    out += entries[i];
  }
  return out;
}

}  // namespace

Row CanonicalRow(const std::string& payload) {
  std::string body = payload;
  if (!body.empty() && body.front() == '{') body.erase(0, 1);
  if (!body.empty() && body.back() == '}') body.pop_back();
  std::vector<std::string> entries;
  size_t start = 0;
  while (start < body.size()) {
    size_t comma = body.find(", ", start);
    if (comma == std::string::npos) comma = body.size();
    if (comma > start) entries.push_back(body.substr(start, comma - start));
    start = comma + 2;
  }
  return Join(std::move(entries));
}

Dataset::Dataset(const DatasetConfig& config) : config_(config) {
  // Classes in owl::HierarchyOntology's order: breadth first, h0 the
  // root, then `fanout` children per class and level.
  parent_.push_back(-1);
  std::vector<int> frontier = {0};
  for (int level = 1; level <= config.depth; ++level) {
    std::vector<int> next;
    for (int p : frontier) {
      for (int f = 0; f < config.fanout; ++f) {
        next.push_back(static_cast<int>(parent_.size()));
        parent_.push_back(p);
      }
    }
    frontier = std::move(next);
  }
  first_leaf_ = frontier.front();
  // Individuals hx<j>, `per_leaf` per leaf in leaf order (as generated).
  for (int leaf : frontier) {
    for (int i = 0; i < config.per_leaf; ++i) {
      names_.push_back("hx" + std::to_string(names_.size()));
      leaf_.push_back(leaf);
    }
  }
  const int n = num_individuals();
  out_.assign(n, {});
  in_.assign(n, {});
  // Each department is laid out on a cycle in an order drawn from the
  // seed, and each member knows the next `out_degree` members on it.
  // Every seed gives the same degrees and the same distinct values per
  // column, so the planner sees the same statistics and each seed does
  // the same work; only who knows whom changes.
  Rng rng(config.seed * 0x2545F4914F6CDD1Dull + 17);
  for (int dept_start = 0; dept_start < n; dept_start += config.department) {
    const int size = std::min(config.department, n - dept_start);
    std::vector<int> cycle(size);
    for (int i = 0; i < size; ++i) cycle[i] = dept_start + i;
    for (int i = size - 1; i > 0; --i) {
      std::swap(cycle[i], cycle[rng.Below(static_cast<uint64_t>(i) + 1)]);
    }
    for (int p = 0; p < size; ++p) {
      const int j = cycle[p];
      if (j % config.silent_every == config.silent_every - 1) continue;
      for (int k = 1; k <= config.out_degree && k < size; ++k) {
        const int target = cycle[(p + k) % size];
        out_[j].push_back(target);
        in_[target].push_back(j);
      }
    }
  }
}

triq::owl::Ontology Dataset::BuildOntology(triq::Dictionary* dict) const {
  triq::owl::Ontology ontology = triq::owl::HierarchyOntology(
      config_.depth, config_.fanout, config_.per_leaf, dict);
  const triq::SymbolId knows = dict->Intern("knows");
  const triq::SymbolId linked = dict->Intern("linked");
  const triq::SymbolId advisor = dict->Intern("advisor");
  ontology.DeclareProperty(knows);
  ontology.DeclareProperty(linked);
  ontology.DeclareProperty(advisor);
  ontology.AddSubPropertyOf(BasicProperty{knows, false},
                            BasicProperty{linked, false});
  ontology.AddSubPropertyOf(BasicProperty{knows, true},
                            BasicProperty{linked, false});
  ontology.AddSubClassOf(
      BasicClass::Named(dict->Intern(ClassName(restricted_class()))),
      BasicClass::Exists(BasicProperty{advisor, false}));
  ontology.AddDisjointClasses(
      BasicClass::Named(dict->Intern(ClassName(disjoint_a()))),
      BasicClass::Named(dict->Intern(ClassName(disjoint_b()))));
  for (int j = 0; j < num_individuals(); ++j) {
    for (int target : out_[j]) {
      ontology.AddPropertyAssertion(knows, dict->Intern(names_[j]),
                                    dict->Intern(names_[target]));
    }
  }
  return ontology;
}

std::string Dataset::ToTurtle() const {
  auto dict = std::make_shared<triq::Dictionary>();
  triq::owl::Ontology ontology = BuildOntology(dict.get());
  triq::rdf::Graph graph(dict);
  triq::owl::OntologyToGraph(ontology, &graph);
  return triq::rdf::WriteTurtle(graph);
}

Dataset::Batch Dataset::NextBatch(uint64_t* rng_state) {
  Rng rng(*rng_state);
  *rng_state = rng.Next();
  Batch batch;
  const int id = num_individuals();
  batch.individual = "hy" + std::to_string(id);
  batch.leaf = first_leaf_ + static_cast<int>(rng.Below(num_leaves()));
  // Join the department of a random generated individual: two edges out
  // of the newcomer, one edge into it.
  const int generated = num_leaves() * config_.per_leaf;
  const int anchor = static_cast<int>(rng.Below(generated));
  const int dept_start = anchor / config_.department * config_.department;
  const int dept_size = std::min(config_.department, generated - dept_start);
  names_.push_back(batch.individual);
  leaf_.push_back(batch.leaf);
  out_.emplace_back();
  in_.emplace_back();
  auto add_edge = [&](int from, int to) {
    if (std::find(out_[from].begin(), out_[from].end(), to) !=
        out_[from].end()) {
      return;
    }
    out_[from].push_back(to);
    in_[to].push_back(from);
    batch.edges.emplace_back(from, to);
  };
  add_edge(id, dept_start + static_cast<int>(rng.Below(dept_size)));
  add_edge(id, dept_start + static_cast<int>(rng.Below(dept_size)));
  add_edge(dept_start + static_cast<int>(rng.Below(dept_size)), id);
  return batch;
}

std::vector<int> Dataset::Ancestors(int cls) const {
  std::vector<int> out;
  for (int c = cls; c >= 0; c = parent_[c]) out.push_back(c);
  return out;
}

bool Dataset::IsUnder(int individual, int cls) const {
  for (int c = leaf_[individual]; c >= 0; c = parent_[c]) {
    if (c == cls) return true;
  }
  return false;
}

size_t Dataset::CountUnder(int cls) const {
  size_t n = 0;
  for (int j = 0; j < num_individuals(); ++j) n += IsUnder(j, cls) ? 1 : 0;
  return n;
}

std::vector<int> Dataset::Linked(int individual) const {
  std::vector<int> out = out_[individual];
  out.insert(out.end(), in_[individual].begin(), in_[individual].end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::set<int> Dataset::Reach(int source) const {
  std::set<int> seen;
  std::deque<int> queue = {source};
  while (!queue.empty()) {
    const int x = queue.front();
    queue.pop_front();
    for (int y : out_[x]) {
      if (seen.insert(y).second) queue.push_back(y);
    }
  }
  return seen;
}

RowSet Dataset::ExpectedAnswer(const QueryText& query) const {
  // Variable names carry the query's rank suffix; recover them from the
  // text so the expected rows use the same spelling.
  std::vector<std::string> vars;
  {
    std::string token;
    std::set<std::string> seen;
    std::string text = query.text;
    for (char& c : text) {
      if (c == '{' || c == '}' || c == '(' || c == ')' || c == ',') c = ' ';
    }
    std::istringstream words(text);
    while (words >> token) {
      if (token[0] == '?' && seen.insert(token).second) vars.push_back(token);
    }
  }
  RowSet rows;
  auto bind = [](const std::string& var, const std::string& value) {
    return var + "->" + value;
  };
  switch (query.kind) {
    case QueryText::Kind::kClass:
      for (int j = 0; j < num_individuals(); ++j) {
        if (IsUnder(j, query.param)) rows.insert(bind(vars[0], names_[j]));
      }
      break;
    case QueryText::Kind::kTwoHop:
      for (int y : Linked(query.param)) {
        for (int z : Linked(y)) {
          rows.insert(Join({bind(vars[0], names_[y]), bind(vars[1], names_[z])}));
        }
      }
      break;
    case QueryText::Kind::kAnd:
    case QueryText::Kind::kOpt:
      for (int j = 0; j < num_individuals(); ++j) {
        if (!IsUnder(j, query.param)) continue;
        if (out_[j].empty() && query.kind == QueryText::Kind::kOpt) {
          rows.insert(bind(vars[0], names_[j]));
        }
        for (int y : out_[j]) {
          rows.insert(Join({bind(vars[0], names_[j]), bind(vars[1], names_[y])}));
        }
      }
      break;
  }
  return rows;
}

std::vector<QueryText> Dataset::QueryFamily(size_t size) const {
  Rng rng(config_.seed * 0x9E3779B97F4A7C15ull + 99);
  std::vector<QueryText> family;
  for (size_t r = 0; r < size; ++r) {
    QueryText q;
    const std::string x = "?X" + std::to_string(r);
    const std::string y = "?Y" + std::to_string(r);
    const std::string z = "?Z" + std::to_string(r);
    switch (r % 4) {
      case 0: {
        // Alternate between the level above the leaves and the leaves,
        // so a rank's answer size does not depend on the seed.
        q.kind = QueryText::Kind::kClass;
        const int leaves_above = num_leaves() / config_.fanout;
        q.param = (r / 4) % 2 == 0
                      ? first_leaf_ - leaves_above +
                            static_cast<int>(rng.Below(leaves_above))
                      : first_leaf_ + static_cast<int>(rng.Below(num_leaves()));
        q.text = "{ " + x + " rdf:type " + ClassName(q.param) + " }";
        break;
      }
      case 1:
        q.kind = QueryText::Kind::kTwoHop;
        q.param = static_cast<int>(rng.Below(num_individuals()));
        q.text = "{ " + names_[q.param] + " linked " + y + " . " + y +
                 " linked " + z + " }";
        break;
      case 2:
      case 3: {
        q.kind = r % 4 == 2 ? QueryText::Kind::kAnd : QueryText::Kind::kOpt;
        q.param = first_leaf_ + static_cast<int>(rng.Below(num_leaves()));
        q.text = std::string(r % 4 == 2 ? "AND" : "OPT") + "({ " + x +
                 " rdf:type " + ClassName(q.param) + " }, { " + x +
                 " knows " + y + " })";
        break;
      }
    }
    family.push_back(std::move(q));
  }
  return family;
}

}  // namespace perfbench
