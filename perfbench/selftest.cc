// pb_selftest: the benchmark's own tests. Each reply check must pass on
// a correct reply and fail on a perturbed one: a wrong id for a label, a
// PageRank score off by 1e-4, a disconnected CSG, a dropped acknowledged
// edge, a missing MATCH row and a NEIGHBORS row out of reach.
//
//   pb_selftest            (or: python3 perfbench/run.py --selftest 1)

#include <cstdio>

#include "checks.h"

namespace pb {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

std::string RowsJson(const std::vector<std::vector<std::string>>& rows) {
  std::string s = "{\"columns\":[\"id\"],\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    s += i ? ",[" : "[";
    for (size_t j = 0; j < rows[i].size(); ++j) {
      s += (j ? ",\"" : "\"") + rows[i][j] + "\"";
    }
    s += "]";
  }
  return s + "],\"stats\":{}}";
}

std::string PageRankJob(const std::vector<std::pair<uint32_t, double>>& top) {
  char buf[64];
  std::string s = "{\"state\":\"done\",\"result\":{\"top\":[";
  for (size_t i = 0; i < top.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s{\"id\":%u,\"score\":%.12f}", i ? "," : "",
                  top[i].first, top[i].second);
    s += buf;
  }
  return s + "]}}";
}

void TestLocate(const RefGraph& g) {
  NavOp op{NavOp::kLocate, "locate " + g.labels[7], 7, 0};
  Expect(CheckNav(g, op, "node 7 focus=s001 display=9", "").empty(), "locate: right id passes");
  Expect(!CheckNav(g, op, "node 8 focus=s001 display=9", "").empty(), "locate: wrong id fails");
}

void TestPageRank(const RefGraph& g) {
  int it = 0;
  std::vector<double> pr = PageRank(g, &it);
  std::vector<uint32_t> order(g.n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) { return pr[a] > pr[b]; });
  std::vector<std::pair<uint32_t, double>> top;
  for (int i = 0; i < 10; ++i) top.emplace_back(order[i], pr[order[i]]);
  Expect(CheckPageRank(pr, PageRankJob(top), true).empty(), "pagerank: reference top-10 passes");
  auto off = top;
  off[3].second += 1e-4;
  Expect(!CheckPageRank(pr, PageRankJob(off), true).empty(), "pagerank: score off by 1e-4 fails");
  auto skip = top;
  skip.erase(skip.begin() + 2);
  Expect(!CheckPageRank(pr, PageRankJob(skip), true).empty(), "pagerank: skipped top node fails");
  double sum = 0;
  for (double x : pr) sum += x;
  Expect(std::fabs(sum - 1.0) < 1e-9, "pagerank: reference sums to 1");
}

void TestCsg(const RefGraph& g) {
  // A shortest path between two nodes of one component is connected.
  const uint32_t a = 0;
  std::vector<int64_t> parent(g.n, -1);
  std::vector<uint32_t> queue{a};
  parent[a] = a;
  for (size_t i = 0; i < queue.size(); ++i) {
    uint32_t u = queue[i];
    for (uint64_t k = g.offset[u]; k < g.offset[u + 1]; ++k) {
      if (parent[g.adj[k]] < 0) {
        parent[g.adj[k]] = u;
        queue.push_back(g.adj[k]);
      }
    }
  }
  const uint32_t b = queue[queue.size() / 2];
  std::vector<std::vector<std::string>> rows;
  for (uint32_t v = b; v != a; v = static_cast<uint32_t>(parent[v])) {
    rows.push_back({std::to_string(v)});
  }
  rows.push_back({std::to_string(a)});
  const uint32_t budget = static_cast<uint32_t>(rows.size()) + 5;
  Expect(CheckCsg(g, {a, b}, budget, RowsJson(rows)).empty(), "csg: connected path passes");
  if (rows.size() >= 3) {
    auto cut = rows;
    cut.erase(cut.begin() + 1);  // drop an interior node: disconnected
    Expect(!CheckCsg(g, {a, b}, budget, RowsJson(cut)).empty(), "csg: disconnected output fails");
  }
  Expect(!CheckCsg(g, {a, b}, static_cast<uint32_t>(rows.size()) - 1, RowsJson(rows)).empty(),
         "csg: output over budget fails");
  auto nosrc = rows;
  nosrc.pop_back();
  Expect(!CheckCsg(g, {a, b}, budget, RowsJson(nosrc)).empty(), "csg: missing source fails");
}

void TestEdgeCount(const RefGraph& g) {
  const uint64_t expected = g.num_edges() + 40;  // 40 acknowledged additions
  auto body = [&](uint64_t edges) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%f", 2.0 * edges / g.n);
    return RowsJson({{"min_degree", "1"}, {"mean_degree", buf}});
  };
  Expect(CheckEdgeCount(body(expected), g.n, expected).empty(), "restart: all acked edges pass");
  Expect(!CheckEdgeCount(body(expected - 1), g.n, expected).empty(),
         "restart: a dropped acknowledged edge fails");
}

void TestMatch(const RefGraph& g) {
  const std::string prefix = g.labels[3].substr(0, g.labels[3].find(' ') + 4);
  std::vector<std::vector<std::string>> rows;
  for (uint32_t v : PrefixFilter(g, prefix)) {
    rows.push_back({std::to_string(v), g.labels[v], "s001", std::to_string(g.degree(v))});
  }
  Expect(CheckMatch(g, prefix, RowsJson(rows)).empty(), "match: filter rows pass");
  auto missing = rows;
  missing.pop_back();
  Expect(!CheckMatch(g, prefix, RowsJson(missing)).empty(), "match: a missing row fails");
  auto degree = rows;
  degree[0][3] = std::to_string(g.degree(std::stoul(degree[0][0])) + 1);
  Expect(!CheckMatch(g, prefix, RowsJson(degree)).empty(),
         "match: degree above the edge-list degree fails");
}

void TestNeighbors(const RefGraph& g) {
  const uint32_t v = 5;
  NavOp op{NavOp::kNeighbors, "query MATCH NEIGHBORS(5, 1)", v, 1};
  std::vector<std::vector<std::string>> rows{{"5"}};
  for (uint64_t k = g.offset[v]; k < g.offset[v + 1]; ++k) {
    rows.push_back({std::to_string(g.adj[k])});
  }
  Expect(CheckNav(g, op, "rows", RowsJson(rows)).empty(), "neighbors: 1-hop rows pass");
  uint32_t far = 0;
  while (WithinHops(g, v, far, 2)) ++far;
  rows.push_back({std::to_string(far)});
  Expect(!CheckNav(g, op, "rows", RowsJson(rows)).empty(), "neighbors: row out of reach fails");
  Overlay o;
  o.Add(v, far);
  Expect(CheckNav(g, op, "rows", RowsJson(rows), &o).empty(),
         "neighbors: a concurrently added edge is accepted");
}

void TestGenerator() {
  RefGraph a = Generate(42, {3000, 5}), b = Generate(42, {3000, 5}), c = Generate(43, {3000, 5});
  Expect(a.adj == b.adj && a.labels == b.labels, "generator: same seed, same inputs");
  Expect(a.adj != c.adj, "generator: another seed, other inputs");
  std::set<std::string> names(a.labels.begin(), a.labels.end());
  Expect(names.size() == a.n, "generator: labels are unique");
  bool min1 = true;
  for (uint32_t v = 0; v < a.n; ++v) min1 = min1 && a.degree(v) >= 1;
  Expect(min1, "generator: every node has an edge");
}

}  // namespace
}  // namespace pb

int main() {
  pb::RefGraph g = pb::Generate(7, {2000, 5});
  pb::TestGenerator();
  pb::TestLocate(g);
  pb::TestPageRank(g);
  pb::TestCsg(g);
  pb::TestEdgeCount(g);
  pb::TestMatch(g);
  pb::TestNeighbors(g);
  std::printf("%s: %d failure(s)\n", pb::g_failures ? "FAILED" : "passed", pb::g_failures);
  return pb::g_failures ? 1 : 0;
}
