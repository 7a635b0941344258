// Shared pieces of the benchmark: the seeded input generator, the
// reference graph and the computations every reply is checked against,
// the seeded operation scripts, and small statistics helpers.
//
// Nothing here includes the program's headers: the references are
// computed apart from src/mining, src/csg and src/query.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

// ------------------------------------------------------------------ rng

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t s_;
};

inline uint64_t Mix(uint64_t a, uint64_t b) {
  Rng r(a * 1000003ull + b);
  return r.Next();
}

// ------------------------------------------------------------ the graph

/// The benchmark's own view of a generated graph: undirected, no self
/// loops, no duplicate edges, every node of degree >= 1.
struct RefGraph {
  uint32_t n = 0;
  std::vector<uint64_t> offset;     // CSR, size n + 1
  std::vector<uint32_t> adj;        // sorted per node
  std::vector<std::string> labels;  // labels[id]

  uint64_t num_edges() const { return adj.size() / 2; }
  uint32_t degree(uint32_t v) const {
    return static_cast<uint32_t>(offset[v + 1] - offset[v]);
  }
  bool HasEdge(uint32_t u, uint32_t v) const {
    return std::binary_search(adj.begin() + offset[u],
                              adj.begin() + offset[u + 1], v);
  }
};

inline RefGraph MakeRefGraph(uint32_t n,
                             std::vector<std::pair<uint32_t, uint32_t>> e) {
  RefGraph g;
  g.n = n;
  for (auto& p : e) {
    if (p.first > p.second) std::swap(p.first, p.second);
  }
  std::sort(e.begin(), e.end());
  e.erase(std::unique(e.begin(), e.end()), e.end());
  std::vector<uint64_t> deg(n + 1, 0);
  for (auto& [u, v] : e) {
    if (u == v) continue;
    ++deg[u];
    ++deg[v];
  }
  g.offset.assign(n + 1, 0);
  for (uint32_t i = 0; i < n; ++i) g.offset[i + 1] = g.offset[i] + deg[i];
  g.adj.resize(g.offset[n]);
  std::vector<uint64_t> pos(g.offset.begin(), g.offset.end() - 1);
  for (auto& [u, v] : e) {
    if (u == v) continue;
    g.adj[pos[u]++] = v;
    g.adj[pos[v]++] = u;
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::sort(g.adj.begin() + g.offset[i], g.adj.begin() + g.offset[i + 1]);
  }
  return g;
}

/// Edge list of a RefGraph (u < v), for rebuilding with extra edges.
inline std::vector<std::pair<uint32_t, uint32_t>> EdgeList(const RefGraph& g) {
  std::vector<std::pair<uint32_t, uint32_t>> e;
  e.reserve(g.num_edges());
  for (uint32_t u = 0; u < g.n; ++u) {
    for (uint64_t i = g.offset[u]; i < g.offset[u + 1]; ++i) {
      if (u < g.adj[i]) e.emplace_back(u, g.adj[i]);
    }
  }
  return e;
}

// ------------------------------------------------------------ generator

/// Generator parameters. The planted hierarchy has `fanout`-ary levels
/// over leaf communities of 64..192 members; degrees follow a Pareto
/// tail (alpha 1.6, minimum 3, capped at 400); 75% of a node's edges
/// stay in its leaf community, 17% in its parent's subtree and 8% go
/// anywhere. Ids are shuffled so communities are not id ranges.
struct GenParams {
  uint32_t nodes = 100000;
  uint32_t fanout = 5;
};

inline const char* const kFirst[] = {
    "Ada",    "Alan",   "Anna",   "Boris",  "Chen",   "Clara",  "Dana",
    "Diego",  "Elena",  "Emil",   "Farah",  "Felix",  "Grace",  "Hana",
    "Hideo",  "Ines",   "Ivan",   "Jiawei", "Jorge",  "Karim",  "Lena",
    "Liang",  "Lucia",  "Maria",  "Mehmet", "Minos",  "Nadia",  "Nikos",
    "Olga",   "Omar",   "Priya",  "Quinn",  "Rafael", "Rosa",   "Sanjay",
    "Sofia",  "Tariq",  "Tomas",  "Uma",    "Umar",   "Vera",   "Viktor",
    "Wei",    "Xenia",  "Yusuf",  "Yara",   "Zhenya", "Zoran"};
inline const char* const kSyl[] = {
    "ka", "lo", "mi", "ren", "sa", "to", "vel", "an", "bor", "cin", "da",
    "el", "for", "gu", "han", "is", "jo", "ker", "lun", "mar", "nor", "os",
    "pel", "ri"};
constexpr uint32_t kNumFirst = sizeof(kFirst) / sizeof(kFirst[0]);
constexpr uint32_t kNumSyl = sizeof(kSyl) / sizeof(kSyl[0]);

/// Unique author label for label index `i` (mixed radix, so distinct
/// indices give distinct labels up to 48 * 24^4 names).
inline std::string LabelFor(uint32_t i) {
  std::string last;
  uint32_t r = i / kNumFirst;
  for (int k = 0; k < 4 && (k < 2 || r > 0); ++k) {
    last += kSyl[r % kNumSyl];
    r /= kNumSyl;
  }
  last[0] = static_cast<char>(last[0] - 'a' + 'A');
  return std::string(kFirst[i % kNumFirst]) + " " + last;
}

/// Generates the graph for `seed` (pure function of seed and params).
inline RefGraph Generate(uint64_t seed, const GenParams& p) {
  Rng rng(Mix(seed, 0x67656e));
  const uint32_t n = p.nodes;
  // Leaf communities in generation order.
  std::vector<uint32_t> leaf_start;
  for (uint32_t at = 0; at < n;) {
    leaf_start.push_back(at);
    at += 64 + static_cast<uint32_t>(rng.Below(129));
  }
  const uint32_t leaves = static_cast<uint32_t>(leaf_start.size());
  leaf_start.push_back(n);
  std::vector<uint32_t> leaf_of(n);
  for (uint32_t l = 0; l < leaves; ++l) {
    for (uint32_t v = leaf_start[l]; v < std::min(leaf_start[l + 1], n); ++v) {
      leaf_of[v] = l;
    }
  }
  const uint32_t group = p.fanout;  // leaves per parent subtree
  auto pick_in = [&](uint32_t lo, uint32_t hi) {
    return lo + static_cast<uint32_t>(rng.Below(hi - lo));
  };
  std::vector<std::pair<uint32_t, uint32_t>> e;
  e.reserve(static_cast<size_t>(n) * 5);
  for (uint32_t l = 0; l < leaves; ++l) {  // a path keeps communities whole
    for (uint32_t v = leaf_start[l] + 1; v < std::min(leaf_start[l + 1], n);
         ++v) {
      e.emplace_back(v - 1, v);
    }
  }
  for (uint32_t v = 0; v < n; ++v) {
    double d = 3.0 / std::pow(1.0 - rng.Unit(), 1.0 / 1.6);
    uint32_t stubs = static_cast<uint32_t>(std::min(d, 400.0) / 2.0);
    const uint32_t l = leaf_of[v];
    const uint32_t g0 = (l / group) * group;
    const uint32_t g1 = std::min(g0 + group, leaves);
    for (uint32_t s = 0; s < stubs; ++s) {
      double r = rng.Unit();
      uint32_t u;
      if (r < 0.75) {
        u = pick_in(leaf_start[l], leaf_start[l + 1]);
      } else if (r < 0.92) {
        u = pick_in(leaf_start[g0], leaf_start[g1]);
      } else {
        u = static_cast<uint32_t>(rng.Below(n));
      }
      if (u != v) e.emplace_back(v, u);
    }
  }
  // Seeded id shuffle; labels follow a second shuffle.
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  for (auto& [a, b] : e) {
    a = perm[a];
    b = perm[b];
  }
  RefGraph g = MakeRefGraph(n, std::move(e));
  std::vector<uint32_t> name(n);
  std::iota(name.begin(), name.end(), 0u);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(name[i - 1], name[rng.Below(i)]);
  }
  g.labels.resize(n);
  for (uint32_t v = 0; v < n; ++v) g.labels[v] = LabelFor(name[v]);
  return g;
}

inline bool WriteInputs(const RefGraph& g, const std::string& prefix) {
  std::string edges;
  edges.reserve(g.adj.size() * 8);
  char buf[48];
  for (uint32_t u = 0; u < g.n; ++u) {
    for (uint64_t i = g.offset[u]; i < g.offset[u + 1]; ++i) {
      if (u < g.adj[i]) {
        int k = std::snprintf(buf, sizeof(buf), "%u %u 1\n", u, g.adj[i]);
        edges.append(buf, static_cast<size_t>(k));
      }
    }
  }
  std::string labels;
  for (uint32_t v = 0; v < g.n; ++v) {
    labels += std::to_string(v) + "\t" + g.labels[v] + "\n";
  }
  std::ofstream ef(prefix + ".edges", std::ios::binary);
  std::ofstream lf(prefix + ".labels", std::ios::binary);
  ef << edges;
  lf << labels;
  return static_cast<bool>(ef) && static_cast<bool>(lf);
}

// ------------------------------------------------------------ references

/// Weak components by union-find; returns a component id per node.
inline std::vector<uint32_t> Components(const RefGraph& g) {
  std::vector<uint32_t> parent(g.n);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (uint32_t u = 0; u < g.n; ++u) {
    for (uint64_t i = g.offset[u]; i < g.offset[u + 1]; ++i) {
      uint32_t a = find(u), b = find(g.adj[i]);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::vector<uint32_t> comp(g.n);
  for (uint32_t v = 0; v < g.n; ++v) comp[v] = find(v);
  return comp;
}

/// True when `w` lies within `k` (1 or 2) hops of `v`.
inline bool WithinHops(const RefGraph& g, uint32_t v, uint32_t w, uint32_t k) {
  if (v == w) return true;
  if (g.HasEdge(v, w)) return true;
  if (k < 2) return false;
  // Sorted-list intersection of the two neighbourhoods.
  auto a = g.adj.begin() + g.offset[v], ae = g.adj.begin() + g.offset[v + 1];
  auto b = g.adj.begin() + g.offset[w], be = g.adj.begin() + g.offset[w + 1];
  while (a != ae && b != be) {
    if (*a == *b) return true;
    if (*a < *b) ++a; else ++b;
  }
  return false;
}

/// Ids whose label starts with `prefix`, ascending.
inline std::vector<uint32_t> PrefixFilter(const RefGraph& g,
                                          std::string_view prefix) {
  std::vector<uint32_t> out;
  for (uint32_t v = 0; v < g.n; ++v) {
    if (std::string_view(g.labels[v]).substr(0, prefix.size()) == prefix) {
      out.push_back(v);
    }
  }
  return out;
}

/// True when the subgraph of `g` induced on `nodes` is connected.
inline bool InducedConnected(const RefGraph& g,
                             const std::vector<uint32_t>& nodes) {
  if (nodes.empty()) return false;
  std::set<uint32_t> in(nodes.begin(), nodes.end());
  std::set<uint32_t> seen{nodes[0]};
  std::vector<uint32_t> stack{nodes[0]};
  while (!stack.empty()) {
    uint32_t u = stack.back();
    stack.pop_back();
    for (uint64_t i = g.offset[u]; i < g.offset[u + 1]; ++i) {
      uint32_t w = g.adj[i];
      if (in.count(w) && seen.insert(w).second) stack.push_back(w);
    }
  }
  return seen.size() == in.size();
}

/// PageRank by power iteration: damping 0.85, uniform teleport, the
/// mass of dangling nodes spread uniformly, stop at L1 change < 1e-9.
inline std::vector<double> PageRank(const RefGraph& g, int* iterations) {
  const double d = 0.85;
  const uint32_t n = g.n;
  std::vector<double> r(n, 1.0 / n), next(n);
  int it = 0;
  for (; it < 200; ++it) {
    double dangling = 0;
    for (uint32_t v = 0; v < n; ++v) {
      if (g.degree(v) == 0) dangling += r[v];
    }
    const double base = (1.0 - d) / n + d * dangling / n;
    std::fill(next.begin(), next.end(), base);
    for (uint32_t u = 0; u < n; ++u) {
      const uint32_t du = g.degree(u);
      if (du == 0) continue;
      const double share = d * r[u] / du;
      for (uint64_t i = g.offset[u]; i < g.offset[u + 1]; ++i) {
        next[g.adj[i]] += share;
      }
    }
    double delta = 0;
    for (uint32_t v = 0; v < n; ++v) delta += std::fabs(next[v] - r[v]);
    r.swap(next);
    if (delta < 1e-9) {
      ++it;
      break;
    }
  }
  if (iterations) *iterations = it;
  return r;
}

/// Absolute tolerance on a PageRank score reported by the program.
constexpr double kPageRankTol = 1e-6;

/// Checks a reported top-k list: every score matches the reference
/// within kPageRankTol, scores descend, and no unreported node beats the
/// last reported one by more than the tolerance.
inline bool CheckPageRankTop(const std::vector<double>& ref,
                             const std::vector<std::pair<uint32_t, double>>& top,
                             std::string* why) {
  if (top.empty()) {
    *why = "empty top list";
    return false;
  }
  std::set<uint32_t> ids;
  for (size_t i = 0; i < top.size(); ++i) {
    auto [id, s] = top[i];
    if (id >= ref.size() || std::fabs(ref[id] - s) > kPageRankTol) {
      *why = "score of node " + std::to_string(id) + " off the reference";
      return false;
    }
    if (i > 0 && s > top[i - 1].second + 1e-12) {
      *why = "scores not descending";
      return false;
    }
    ids.insert(id);
  }
  const double last = top.back().second;
  for (uint32_t v = 0; v < ref.size(); ++v) {
    if (!ids.count(v) && ref[v] > last + kPageRankTol) {
      *why = "node " + std::to_string(v) + " missing from the top list";
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------- op scripts

/// One interactive operation of a navigator, with what its reply must
/// satisfy.
struct NavOp {
  enum Kind : uint8_t {
    kLocate, kLoad, kSummary, kConnectivity, kNeighbors, kSummarize,
    kParent, kChild, kBack, kRender, kRoot
  };
  Kind kind;
  std::string line;     // the op line as sent
  uint32_t node = 0;    // locate / neighbors / summarize target
  uint32_t hops = 0;    // neighbors depth
};

inline const char* NavKindName(NavOp::Kind k) {
  static const char* names[] = {"locate", "load", "summary", "connectivity",
                                "neighbors", "summarize", "parent", "child",
                                "back", "render", "root"};
  return names[k];
}

/// The seeded walk of one navigator: locate a label, load its leaf,
/// summary, connectivity, MATCH NEIGHBORS, SUMMARIZE NODE, parent,
/// child 0, back, and every 16th step on average a `render svg`.
///
/// With `beside_edits`, no op depends on the focus a previous op set:
/// every committed edit resets each session to the root, so `load`
/// after `locate` (or `parent`/`back`) would fail depending on timing.
/// That walk is locate, summary, connectivity, MATCH NEIGHBORS,
/// SUMMARIZE NODE, root, child 0, summary and the rare render.
class NavScript {
 public:
  NavScript(const RefGraph* g, uint64_t seed, uint32_t client,
            bool beside_edits = false)
      : g_(g), rng_(Mix(seed, 0x6e6176 + client)), edits_(beside_edits) {}

  NavOp Next() {
    if (pos_ == steps_.size()) Refill();
    return steps_[pos_++];
  }

 private:
  void Refill() {
    steps_.clear();
    pos_ = 0;
    const uint32_t v = static_cast<uint32_t>(rng_.Below(g_->n));
    const uint32_t k = 1 + static_cast<uint32_t>(rng_.Below(2));
    steps_.push_back({NavOp::kLocate, "locate " + g_->labels[v], v, 0});
    if (!edits_) steps_.push_back({NavOp::kLoad, "load", 0, 0});
    steps_.push_back({NavOp::kSummary, "summary", 0, 0});
    steps_.push_back({NavOp::kConnectivity, "connectivity", 0, 0});
    steps_.push_back({NavOp::kNeighbors,
                      "query MATCH NEIGHBORS(" + std::to_string(v) + ", " +
                          std::to_string(k) + ") LIMIT 50",
                      v, k});
    steps_.push_back({NavOp::kSummarize,
                      "query SUMMARIZE NODE " + std::to_string(v), v, 0});
    if (edits_) {
      steps_.push_back({NavOp::kRoot, "root", 0, 0});
      steps_.push_back({NavOp::kChild, "child 0", 0, 0});
      steps_.push_back({NavOp::kSummary, "summary", 0, 0});
    } else {
      steps_.push_back({NavOp::kParent, "parent", 0, 0});
      steps_.push_back({NavOp::kChild, "child 0", 0, 0});
      steps_.push_back({NavOp::kBack, "back", 0, 0});
    }
    if (rng_.Below(16) == 0) {
      steps_.push_back({NavOp::kRender, "render svg", 0, 0});
    }
  }

  const RefGraph* g_;
  Rng rng_;
  bool edits_;
  std::vector<NavOp> steps_;
  size_t pos_ = 0;
};

/// One request of the REST analyst.
struct AnalystOp {
  enum Kind : uint8_t { kMatch, kCsg, kPageRank };
  Kind kind;
  std::string statement;           // GQL for kMatch / kCsg
  std::string prefix;              // kMatch
  std::vector<uint32_t> sources;   // kCsg
  uint32_t budget = 0;             // kCsg
  double think_s = 0;              // think time before this op
};

/// The seeded analyst: 55% selective label-prefix MATCH, 25% EXTRACT
/// CSG between two authors of one weak component, 20% MINE PAGERANK
/// jobs, in a fixed interleaved order of 20 requests so that every part
/// of a run holds the same shares; the targets are seeded and the think
/// time is uniform in 300..500 ms.
class AnalystScript {
 public:
  AnalystScript(const RefGraph* g, const std::vector<uint32_t>* comp,
                uint64_t seed)
      : g_(g), comp_(comp), rng_(Mix(seed, 0x616e61)) {}

  AnalystOp Next() {
    static const char kOrder[] = "MCMPMCMMPMCMMPCMMPCM";
    const double think = 0.3 + 0.2 * rng_.Unit();
    const char kind = kOrder[step_++ % 20];
    if (kind == 'M') return Match(think);
    if (kind == 'C') return Csg(think);
    AnalystOp op;
    op.kind = AnalystOp::kPageRank;
    op.think_s = think;
    return op;
  }

  AnalystOp Match(double think) {
    AnalystOp op;
    op.kind = AnalystOp::kMatch;
    op.think_s = think;
    const std::string& l = g_->labels[rng_.Below(g_->n)];
    // First name, space and the first three letters of the surname.
    op.prefix = l.substr(0, l.find(' ') + 4);
    op.statement = "MATCH NODES WHERE label PREFIX \"" + op.prefix + "\"";
    return op;
  }

  AnalystOp Csg(double think) {
    AnalystOp op;
    op.kind = AnalystOp::kCsg;
    op.think_s = think;
    const uint32_t a = static_cast<uint32_t>(rng_.Below(g_->n));
    uint32_t b = a;
    while (b == a || (*comp_)[b] != (*comp_)[a]) {
      b = static_cast<uint32_t>(rng_.Below(g_->n));
    }
    op.sources = {a, b};
    op.budget = 20;
    op.statement = "EXTRACT CSG FROM {" + std::to_string(a) + ", " +
                   std::to_string(b) + "} BUDGET 20";
    return op;
  }

 private:
  const RefGraph* g_;
  const std::vector<uint32_t>* comp_;
  Rng rng_;
  uint64_t step_ = 0;
};

/// Edges a writer adds: each writer owns the node ids congruent to its
/// index mod `writers`, so no two writers add the same edge, and an
/// edge already present (or already added) is never drawn.
class EditScript {
 public:
  EditScript(const RefGraph* g, uint64_t seed, uint32_t writer,
             uint32_t writers)
      : g_(g), rng_(Mix(seed, 0x656469 + writer)), w_(writer), ws_(writers) {}

  std::pair<uint32_t, uint32_t> NextEdge() {
    for (;;) {
      uint32_t u = Pick(), v = Pick();
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (g_->HasEdge(u, v) || !added_.insert({u, v}).second) continue;
      return {u, v};
    }
  }

 private:
  uint32_t Pick() {
    uint32_t x = static_cast<uint32_t>(rng_.Below(g_->n / ws_));
    return x * ws_ + w_;
  }
  const RefGraph* g_;
  Rng rng_;
  uint32_t w_, ws_;
  std::set<std::pair<uint32_t, uint32_t>> added_;
};

// ------------------------------------------------------------ workloads

/// Fixed shape of each workload (sizes, budgets, clients, rates).
struct WorkloadSpec {
  std::string name;
  uint32_t nodes = 0;
  uint32_t mem_budget_mb = 0;
  uint32_t navigators = 0;
  double nav_rate_per_s = 0;  // > 0: open loop at this rate per navigator
  double nav_think_s = 0;     // closed loop: pause between a reply and the next op
  bool analyst = false;
  uint32_t writers = 0;
  uint32_t edits_per_batch = 0;
};

inline bool LookupWorkload(const std::string& name, WorkloadSpec* w) {
  if (name == "navigate_hot") {
    *w = {name, 100000, 64, 4, 0, 0, false, 0, 0};
  } else if (name == "navigate_cold") {
    *w = {name, 120000, 3, 4, 0, 0, false, 0, 0};
  } else if (name == "analyst_mix") {
    *w = {name, 50000, 2, 2, 250, 0, true, 0, 0};
  } else if (name == "edit_mix") {
    *w = {name, 100000, 64, 2, 0, 0.001, false, 2, 4};
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------ statistics

/// Samples of one latency class. Report() follows the rule that a
/// percentile needs at least ten samples beyond it: the tail figure is
/// the highest such percentile up to p99, and with fewer than forty
/// samples it is the median.
struct Samples {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  size_t size() const { return v.size(); }
  double Quantile(double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    double pos = q * (v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - lo);
  }
  double Median() { return Quantile(0.5); }
  /// The tail percentile the sample supports, as a fraction.
  double TailQ() const {
    if (v.size() < 40) return 0.5;
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(v.size()));
  }
  double Tail() { return Quantile(TailQ()); }
};

// ------------------------------------------------------------ tiny JSON

/// Value of `"key":` in a flat JSON text as a raw token (string values
/// unquoted, unescaped for \" and \\ only). Empty when absent.
inline std::string JsonField(std::string_view s, std::string_view key,
                             size_t from = 0) {
  std::string pat = "\"" + std::string(key) + "\":";
  size_t p = s.find(pat, from);
  if (p == std::string_view::npos) return {};
  p += pat.size();
  if (p < s.size() && s[p] == '"') {
    std::string out;
    for (++p; p < s.size() && s[p] != '"'; ++p) {
      if (s[p] == '\\' && p + 1 < s.size()) {
        ++p;
        out += s[p] == 'n' ? '\n' : s[p];
      } else {
        out += s[p];
      }
    }
    return out;
  }
  size_t e = p;
  while (e < s.size() && s[e] != ',' && s[e] != '}' && s[e] != ']') ++e;
  return std::string(s.substr(p, e - p));
}

/// Rows of a query result body {"columns":[...],"rows":[[..],..],...}:
/// each row's cells as strings.
inline bool ParseRows(std::string_view s,
                      std::vector<std::vector<std::string>>* rows) {
  rows->clear();
  size_t p = s.find("\"rows\":[");
  if (p == std::string_view::npos) return false;
  p += 8;
  while (p < s.size() && s[p] != ']') {
    if (s[p] == ',') { ++p; continue; }
    if (s[p] != '[') return false;
    ++p;
    std::vector<std::string> row;
    while (p < s.size() && s[p] != ']') {
      if (s[p] == ',') { ++p; continue; }
      if (s[p] != '"') return false;
      std::string cell;
      for (++p; p < s.size() && s[p] != '"'; ++p) {
        if (s[p] == '\\' && p + 1 < s.size()) ++p;
        cell += s[p];
      }
      ++p;
      row.push_back(std::move(cell));
    }
    ++p;
    rows->push_back(std::move(row));
  }
  return p < s.size();
}

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
