// Reply checks shared by the load generator, the traced replay and the
// self-test. Each returns an empty string when the reply passes and the
// reason otherwise. Every check compares against the benchmark's own
// references (common.h), never against the program's code.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include "common.h"

namespace pb {

/// Counts attempts and failures and keeps the first failure's reason.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;     // the operation errored
  bool correct = true;     // every successful reply passed its check
  std::string why;         // first failure and first wrong reply

  void Fail(const std::string& what) {
    if (failed++ == 0) why += "failed: " + what + "; ";
  }
  void Wrong(const std::string& what) {
    if (correct) why += "wrong: " + what + "; ";
    correct = false;
  }
};

// -------------------------------------------------------------- drivers

/// Edges added while a check runs (writers beside navigators): a reply
/// may already show them, so checks accept base edges and these.
struct Overlay {
  std::map<uint32_t, std::vector<uint32_t>> adj;
  void Add(uint32_t u, uint32_t v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  bool Has(uint32_t u, uint32_t v) const {
    auto it = adj.find(u);
    return it != adj.end() &&
           std::find(it->second.begin(), it->second.end(), v) != it->second.end();
  }
  uint32_t Degree(uint32_t v) const {
    auto it = adj.find(v);
    return it == adj.end() ? 0 : static_cast<uint32_t>(it->second.size());
  }
};

/// WithinHops over the base graph plus an overlay.
inline bool WithinHopsOver(const RefGraph& g, const Overlay* o, uint32_t v,
                           uint32_t w, uint32_t k) {
  if (WithinHops(g, v, w, k)) return true;
  if (o == nullptr || o->adj.empty()) return false;
  auto adjacent = [&](uint32_t a, uint32_t b) { return g.HasEdge(a, b) || o->Has(a, b); };
  if (adjacent(v, w)) return true;
  if (k < 2) return false;
  for (uint64_t i = g.offset[v]; i < g.offset[v + 1]; ++i) {
    if (adjacent(g.adj[i], w)) return true;
  }
  auto it = o->adj.find(v);
  if (it != o->adj.end()) {
    for (uint32_t x : it->second) {
      if (adjacent(x, w)) return true;
    }
  }
  return false;
}

/// Value of the unsigned integer that follows `key` in `text`, or
/// UINT64_MAX when `key` is absent.
inline uint64_t FieldAfter(const std::string& text, const std::string& key) {
  size_t p = text.find(key);
  if (p == std::string::npos) return UINT64_MAX;
  return std::strtoull(text.c_str() + p + key.size(), nullptr, 10);
}

/// Checks a navigator reply; empty string when it passes.
inline std::string CheckNav(const RefGraph& g, const NavOp& op,
                            const std::string& text, const std::string& body,
                            const Overlay* overlay = nullptr) {
  auto degree = [&](uint32_t v) {
    return g.degree(v) + (overlay ? overlay->Degree(v) : 0);
  };
  switch (op.kind) {
    case NavOp::kLocate: {
      if (text.rfind("node ", 0) != 0) return "locate reply: " + text;
      uint64_t id = std::strtoull(text.c_str() + 5, nullptr, 10);
      if (id != op.node) {
        return "locate '" + g.labels[op.node] + "' gave node " +
               std::to_string(id) + ", generated " + std::to_string(op.node);
      }
      return {};
    }
    case NavOp::kLoad:
      if (FieldAfter(text, " n=") == UINT64_MAX) return "load reply: " + text;
      return {};
    case NavOp::kNeighbors: {
      std::vector<std::vector<std::string>> rows;
      if (!ParseRows(body, &rows)) return "neighbors body unparsable";
      for (auto& row : rows) {
        uint32_t w = static_cast<uint32_t>(std::strtoul(row.at(0).c_str(), nullptr, 10));
        if (w >= g.n || !WithinHopsOver(g, overlay, op.node, w, op.hops)) {
          return "NEIGHBORS(" + std::to_string(op.node) + "," +
                 std::to_string(op.hops) + ") row " + row[0] +
                 " is not within reach";
        }
        if (row.size() > 3 && std::strtoul(row[3].c_str(), nullptr, 10) > degree(w)) {
          return "degree of " + row[0] + " above its edge-list degree";
        }
      }
      return {};
    }
    case NavOp::kSummarize: {
      std::vector<std::vector<std::string>> rows;
      if (!ParseRows(body, &rows)) return "summarize body unparsable";
      for (auto& row : rows) {
        if (row.size() < 2) continue;
        if (row[0] == "degree" &&
            std::strtoul(row[1].c_str(), nullptr, 10) > degree(op.node)) {
          return "SUMMARIZE degree above the edge-list degree";
        }
        if (row[0] == "neighbors" && !row[1].empty()) {
          std::stringstream ss(row[1]);
          std::string tok;
          while (std::getline(ss, tok, ',')) {
            uint32_t w = static_cast<uint32_t>(std::strtoul(tok.c_str(), nullptr, 10));
            if (w >= g.n || !(g.HasEdge(op.node, w) || (overlay && overlay->Has(op.node, w)))) {
              return "SUMMARIZE lists " + tok + " as a neighbour of " +
                     std::to_string(op.node);
            }
          }
        }
      }
      return {};
    }
    case NavOp::kRender:
      if (body.find("<svg") == std::string::npos) return "render body is not SVG";
      return {};
    default:
      if (text.empty()) return "empty reply";
      return {};
  }
}

/// MATCH NODES WHERE label PREFIX: rows equal the benchmark's own
/// filter, labels match, and no degree exceeds the edge-list degree.
inline std::string CheckMatch(const RefGraph& g, const std::string& prefix,
                       const std::string& body) {
  std::vector<std::vector<std::string>> rows;
  if (!ParseRows(body, &rows)) return "match body unparsable";
  std::vector<uint32_t> got;
  for (auto& row : rows) {
    uint32_t id = static_cast<uint32_t>(std::strtoul(row.at(0).c_str(), nullptr, 10));
    if (id >= g.n) return "match row id out of range";
    if (row.size() > 1 && row[1] != g.labels[id]) return "match row label mismatch";
    if (row.size() > 3 && std::strtoul(row[3].c_str(), nullptr, 10) > g.degree(id)) {
      return "match degree of " + row[0] + " above its edge-list degree";
    }
    got.push_back(id);
  }
  std::sort(got.begin(), got.end());
  if (got != PrefixFilter(g, prefix)) {
    return "MATCH label PREFIX \"" + prefix + "\" rows differ from the filter";
  }
  return {};
}

/// EXTRACT CSG: holds every source, stays within the budget and is
/// connected in the generated graph.
inline std::string CheckCsg(const RefGraph& g, const std::vector<uint32_t>& sources,
                     uint32_t budget, const std::string& body) {
  std::vector<std::vector<std::string>> rows;
  if (!ParseRows(body, &rows)) return "csg body unparsable";
  std::vector<uint32_t> nodes;
  for (auto& row : rows) {
    nodes.push_back(static_cast<uint32_t>(std::strtoul(row.at(0).c_str(), nullptr, 10)));
    if (nodes.back() >= g.n) return "csg node out of range";
  }
  if (nodes.size() > budget) return "csg exceeds its budget";
  for (uint32_t s : sources) {
    if (std::find(nodes.begin(), nodes.end(), s) == nodes.end()) {
      return "csg misses source " + std::to_string(s);
    }
  }
  if (!InducedConnected(g, nodes)) return "csg is not connected";
  return {};
}

/// Parses the `top` list of a pagerank job result or a MINE PAGERANK
/// table and checks it against the reference.
inline std::string CheckPageRank(const std::vector<double>& ref, const std::string& body,
                          bool job_json) {
  std::vector<std::pair<uint32_t, double>> top;
  if (job_json) {
    size_t p = body.find("\"top\":[");
    if (p == std::string::npos) return "pagerank result has no top list";
    while ((p = body.find("{\"id\":", p)) != std::string::npos) {
      uint32_t id = static_cast<uint32_t>(std::strtoul(body.c_str() + p + 6, nullptr, 10));
      size_t s = body.find("\"score\":", p);
      top.emplace_back(id, std::strtod(body.c_str() + s + 8, nullptr));
      p = s;
    }
  } else {
    std::vector<std::vector<std::string>> rows;
    if (!ParseRows(body, &rows)) return "pagerank body unparsable";
    for (auto& row : rows) {
      top.emplace_back(static_cast<uint32_t>(std::strtoul(row.at(0).c_str(), nullptr, 10)),
                       std::strtod(row.back().c_str(), nullptr));
    }
  }
  std::string why;
  if (!CheckPageRankTop(ref, top, &why)) return "pagerank " + why;
  return {};
}

/// After a restart: the edge count, read from MINE DEGREES's mean
/// degree over `n` nodes, equals `expected` (generated edges plus every
/// acknowledged added edge).
inline std::string CheckEdgeCount(const std::string& degrees_body, uint32_t n,
                                  uint64_t expected) {
  std::vector<std::vector<std::string>> rows;
  if (!ParseRows(degrees_body, &rows)) return "MINE DEGREES body unparsable";
  for (auto& row : rows) {
    if (row.size() == 2 && row[0] == "mean_degree") {
      const double mean = std::strtod(row[1].c_str(), nullptr);
      const uint64_t edges = static_cast<uint64_t>(std::llround(mean * n / 2.0));
      if (edges == expected) return {};
      return "the store holds " + std::to_string(edges) + " edges, expected " +
             std::to_string(expected);
    }
  }
  return "MINE DEGREES has no mean_degree";
}

}  // namespace pb

#endif  // PERFBENCH_CHECKS_H_
