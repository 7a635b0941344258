// pb_trace: the traced run. Replays a workload's seeded operation
// sequence in-process against the library, wrapping each call into a
// layer's public function in a span, and writes the per-layer metrics.
//
//   pb_trace --workload W --seed S --seconds T --dir WORK --out FILE
//
// Spans carry a name, start, end, parent and request id; they are kept
// in memory and written to WORK/spans.tsv when the run ends. A layer's
// self time is its span minus its children. Sub-layers that a public
// function hides (store open inside a catalog lease, WAL sync inside a
// group commit, the engine's apply and compaction inside the queue) are
// timed by calling their own public functions directly.

#include <chrono>
#include <filesystem>
#include <future>
#include <iostream>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "checks.h"
#include "core/catalog.h"
#include "core/edit_queue.h"
#include "core/engine.h"
#include "core/views.h"
#include "csg/extraction.h"
#include "graph/graph_edit.h"
#include "graph/graph_io.h"
#include "graph/labels.h"
#include "gtree/builder.h"
#include "gtree/connectivity.h"
#include "gtree/navigation.h"
#include "gtree/store.h"
#include "gtree/stream_build.h"
#include "http/gateway.h"
#include "http/http.h"
#include "http/websocket.h"
#include "mining/pagescan_kernels.h"
#include "net/protocol.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "wire.h"

namespace pb {
namespace {

namespace fs = std::filesystem;
using namespace gmine;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "pb_trace: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T Must(gmine::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void Must(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  double start = 0, end = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// In-memory span recorder. Spans nest per thread; every span of one
/// request shares its id.
class Tracer {
 public:
  /// Off: Begin records nothing (used to measure the tracing overhead).
  void set_enabled(bool on) { enabled_ = on; }

  int Begin(std::string name) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), Now(), 0, current_, request_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = Now();
    current_ = spans_[id].parent;
  }
  void Rename(int id, std::string name) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].name = std::move(name);
  }
  void NewRequest() { ++request_; }

  /// Per span name: count, total seconds and self seconds.
  struct Agg {
    uint64_t n = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Agg> Aggregate() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, Agg> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Agg& a = out[spans_[i].name];
      ++a.n;
      a.total += spans_[i].end - spans_[i].start;
      a.self += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::ofstream f(path);
    f << "id\tparent\trequest\tname\tstart_s\tend_s\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << i << "\t" << s.parent << "\t" << s.request << "\t" << s.name << "\t"
        << s.start << "\t" << s.end << "\n";
    }
  }

  size_t size() const { return spans_.size(); }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  int current_ = -1;
  uint64_t request_ = 0;
  bool enabled_ = true;
};

Tracer g_trace;

/// RAII span.
class Scope {
 public:
  explicit Scope(std::string name) : id_(g_trace.Begin(std::move(name))) {}
  ~Scope() { g_trace.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

template <typename F>
auto Traced(const char* name, F&& fn) {
  Scope s(name);
  return fn();
}

// ------------------------------------------------------------- the run

struct Run {
  WorkloadSpec spec;
  uint64_t seed = 0;
  double seconds = 10;
  std::string dir;
  RefGraph g;
  std::vector<uint32_t> comp;
  std::vector<double> pr;
  Tally tally;
  std::map<std::string, double> metrics;
  uint64_t nav_ops = 0;
  uint64_t rest_requests = 0;
  uint64_t opens_during_rest = 0;
};

std::string NavStoreName(const Run& r) { return r.spec.analyst ? "big" : "s"; }

/// Builds s.gtree (in memory) and big.gtree (--stream) of the generated
/// graph through the library, timing each builder stage.
void Setup(Run& r) {
  const std::string inputs = r.dir + "/g";
  Must(WriteInputs(r.g, inputs) ? Status::OK() : Status::IOError("inputs"), "write inputs");
  fs::create_directories(r.dir + "/stores");
  graph::Graph graph = Must(graph::ReadEdgeListFile(inputs + ".edges"), "read edges");
  graph::LabelStore labels(r.g.labels);
  gtree::GTreeBuildOptions bopts;  // the CLI's defaults: levels 3, fanout 5
  bopts.fanout = 5;
  double t = Now();
  gtree::GTree tree = Must(gtree::BuildGTree(graph, bopts), "build gtree");
  r.metrics["builder.gtree_s"] = Now() - t;
  t = Now();
  gtree::ConnectivityIndex conn = gtree::ConnectivityIndex::Build(graph, tree);
  r.metrics["connectivity.build_s"] = Now() - t;
  t = Now();
  Must(gtree::GTreeStore::Create(r.dir + "/stores/s.gtree", graph, tree, conn, labels),
       "create store");
  r.metrics["store.create_s"] = Now() - t;
  t = Now();
  gtree::StreamBuildOptions sopts;
  sopts.tmp_prefix = r.dir + "/sort";
  Must(gtree::StreamBuildStore(inputs + ".edges", r.dir + "/stores/big.gtree", labels, sopts),
       "stream build");
  r.metrics["stream_build.s"] = Now() - t;
}

/// One navigation op through the same calls the WebSocket path makes:
/// frame decode, request parse, catalog session dispatch, the
/// navigation/store/view call, response encode and frame encode.
net::Response ServeNav(core::CatalogSession& lease, const NavOp& op, uint64_t* hits,
                       uint64_t* loads) {
  g_trace.NewRequest();
  Scope req("request");
  const std::string frame = WsFrame(op.line, 0x5a5a5a5a);
  std::string line;
  {
    Scope s("http.ws_frame");
    http::WsFrameParser parser;
    Must(parser.Feed(frame), "ws frame");
    if (parser.HasFrame()) line = parser.TakeFrame().payload;
  }
  net::Request request;
  {
    Scope s("net.parse");
    request = Must(net::ParseRequest(line), "parse request");
  }
  net::Response response;
  const gtree::GTree& tree = lease.store()->tree();
  if (request.op == net::RequestOp::kQuery) {
    query::Executor exec(lease.store());
    auto res = Traced("query.statement", [&] { return exec.ExecuteText(request.arg); });
    if (!res.ok()) {
      response.status = res.status();
    } else {
      response.body = query::ResultToJson(res.value());
      response.has_body = true;
    }
  } else {
    Scope w("session.with");
    response.status = lease.With([&](gtree::NavigationSession& nav) -> Status {
      switch (request.op) {
        case net::RequestOp::kLocate: {
          auto v = Traced("navigation.locate", [&] { return nav.LocateByLabel(request.arg); });
          if (!v.ok()) return v.status();
          response.text = "node " + std::to_string(v.value()) + " ";
          return Status::OK();
        }
        case net::RequestOp::kLoad: {
          const gtree::GTreeStoreStats before = nav.store()->stats();
          Scope s("store.load_leaf");
          auto p = nav.LoadFocusSubgraph();
          const gtree::GTreeStoreStats after = nav.store()->stats();
          const bool miss = after.leaf_loads > before.leaf_loads;
          g_trace.Rename(s.id(), miss ? "store.load_leaf_miss" : "store.load_leaf_hit");
          (miss ? *loads : *hits) += 1;
          if (!p.ok()) return p.status();
          response.text = "leaf=x n=" + std::to_string(p.value()->subgraph.graph.num_nodes());
          return Status::OK();
        }
        case net::RequestOp::kRender: {
          auto doc = Traced("views.render_svg", [&] {
            return core::HierarchyViewSvgString(tree, nav.context(),
                                                nav.store()->connectivity());
          });
          if (!doc.ok()) return doc.status();
          response.body = std::move(doc).value();
          response.has_body = true;
          return Status::OK();
        }
        case net::RequestOp::kSummary:
          response.text = "focus=" + tree.node(nav.focus()).name;
          return Status::OK();
        case net::RequestOp::kConnectivity:
          response.text = "edges=" + std::to_string(nav.ContextConnectivity().size());
          return Status::OK();
        case net::RequestOp::kParent:
          return Traced("navigation.focus", [&] { return nav.FocusParent(); });
        case net::RequestOp::kChild:
          return Traced("navigation.focus", [&] { return nav.FocusChild(0); });
        case net::RequestOp::kBack:
          return Traced("navigation.focus", [&] { return nav.Back(); });
        case net::RequestOp::kRoot:
          return Traced("navigation.focus", [&] { return nav.FocusRoot(); });
        default:
          return Status::InvalidArgument("op not replayed");
      }
    });
    if (response.text.empty()) response.text = "ok";
  }
  std::string encoded;
  {
    Scope s("net.encode");
    encoded = net::EncodeResponse(response, /*json=*/true);
  }
  {
    Scope s("http.ws_frame");
    encoded = http::EncodeWsFrame(http::WsOpcode::kText, encoded, /*mask=*/false);
  }
  return response;
}

/// Serves one navigation op and checks its reply.
void NavOp1(Run& r, core::CatalogSession& lease, const NavOp& op, uint64_t* hits,
            uint64_t* loads) {
  net::Response response = ServeNav(lease, op, hits, loads);
  ++r.tally.attempted;
  if (!response.status.ok()) {
    r.tally.Fail(std::string(NavKindName(op.kind)) + ": " + response.status.ToString());
    return;
  }
  std::string bad = CheckNav(r.g, op, response.text, response.body);
  if (!bad.empty()) r.tally.Wrong(bad);
}

/// The workload's navigators, round-robin, for `budget_s` seconds.
void ReplayNavigation(Run& r, core::Catalog& catalog, double budget_s) {
  std::vector<core::CatalogSession> leases;
  std::vector<NavScript> scripts;
  const uint32_t navs = std::max<uint32_t>(1, r.spec.navigators);
  for (uint32_t i = 0; i < navs; ++i) {
    leases.push_back(Must(catalog.AcquireSession(NavStoreName(r)), "acquire nav"));
    scripts.emplace_back(&r.g, r.seed, i);
  }
  gtree::GTreeStore* store = leases[0].store();
  const gtree::GTreeStoreStats s0 = store->stats();
  uint64_t hits = 0, loads = 0, ops = 0;
  const double end = Now() + budget_s;
  while (Now() < end) {
    for (uint32_t i = 0; i < navs; ++i) {
      NavOp1(r, leases[i], scripts[i].Next(), &hits, &loads);
      ++ops;
    }
  }
  const gtree::GTreeStoreStats s1 = store->stats();
  r.nav_ops = ops;
  const double lookups = static_cast<double>((s1.cache_hits - s0.cache_hits) +
                                             (s1.leaf_loads - s0.leaf_loads));
  r.metrics["buffer_pool.hit_rate"] =
      lookups > 0 ? (s1.cache_hits - s0.cache_hits) / lookups : 1.0;
  r.metrics["buffer_pool.evictions_per_op"] =
      static_cast<double>(s1.evictions - s0.evictions) / ops;
  r.metrics["store.read_bytes_per_op"] =
      static_cast<double>(s1.bytes_read - s0.bytes_read) / ops;
  r.metrics["buffer_pool.resident_mb"] =
      storage::BufferPool::Global().stats().resident_bytes / 1048576.0;
  // Tracing overhead: the same ops with spans off and on, after one
  // untimed pass over them so that both timed passes find the pool warm.
  {
    NavScript w(&r.g, Mix(r.seed, 0x6f7665), 0), a(&r.g, Mix(r.seed, 0x6f7665), 0),
        b(&r.g, Mix(r.seed, 0x6f7665), 0);
    uint64_t h = 0, l = 0;
    g_trace.set_enabled(false);
    for (int i = 0; i < 3000; ++i) ServeNav(leases[0], w.Next(), &h, &l);
    double t = Now();
    for (int i = 0; i < 3000; ++i) ServeNav(leases[0], a.Next(), &h, &l);
    const double off = Now() - t;
    g_trace.set_enabled(true);
    t = Now();
    for (int i = 0; i < 3000; ++i) ServeNav(leases[0], b.Next(), &h, &l);
    const double on = Now() - t;
    std::fprintf(stderr, "tracing overhead: %.2f us per op (%.2f us untraced, %.2f us traced)\n",
                 (on - off) / 3000 * 1e6, off / 3000 * 1e6, on / 3000 * 1e6);
  }
  // The wire: the same ops over a real loopback WebSocket to an
  // in-process gateway, against their untraced in-process time.
  std::vector<NavOp> wire_ops;
  NavScript wire_script(&r.g, Mix(r.seed, 0x77697265), 0);
  for (int i = 0; i < 400; ++i) wire_ops.push_back(wire_script.Next());
  Samples inproc;
  {
    core::CatalogSession lease = Must(catalog.AcquireSession(NavStoreName(r)), "acquire");
    uint64_t h = 0, l = 0;
    g_trace.set_enabled(false);
    for (const NavOp& op : wire_ops) {
      const double t = Now();
      ServeNav(lease, op, &h, &l);
      inproc.Add((Now() - t) * 1e6);
    }
    g_trace.set_enabled(true);
  }
  http::Gateway gw(&catalog);
  Must(gw.Start(), "gateway start");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(gw.port());
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) Die("connect");
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string up = "GET /api/v1/stores/" + NavStoreName(r) +
                   "/ws HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\nConnection: "
                   "Upgrade\r\nSec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                   "Sec-WebSocket-Version: 13\r\n\r\n";
  (void)!::write(fd, up.data(), up.size());
  std::string in;
  char buf[65536];
  while (in.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) Die("upgrade");
    in.append(buf, static_cast<size_t>(n));
  }
  in.erase(0, in.find("\r\n\r\n") + 4);
  Samples rtt;
  for (const NavOp& op : wire_ops) {
    std::string f = WsFrame(op.line, 0x01020304);
    const double t0 = Now();
    (void)!::write(fd, f.data(), f.size());
    Reply rep;
    while (!PopReply(Proto::kWs, in, &rep)) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) Die("wire read");
      in.append(buf, static_cast<size_t>(n));
    }
    rtt.Add((Now() - t0) * 1e6);
    ++r.tally.attempted;
    if (!rep.ok) r.tally.Fail("wire " + op.line + ": " + rep.text);
  }
  ::close(fd);
  gw.Stop();
  r.metrics["http.wire_us"] = rtt.Median() - inproc.Median();
}

/// One REST query the way the gateway serves it: parse the HTTP
/// request, lease the store from the catalog, parse, plan and execute
/// with a fresh executor, serialise, release.
std::string RestQuery(Run& r, core::Catalog& catalog, const std::string& store,
                      const std::string& statement, bool sublayers) {
  g_trace.NewRequest();
  Scope req("rest");
  ++r.rest_requests;
  const std::string bytes =
      HttpRequestBytes("POST", "/api/v1/stores/" + store + "/query", statement);
  std::string body;
  {
    Scope s("http.request_parse");
    http::HttpRequestParser parser;
    Must(parser.Feed(bytes), "http parse");
    if (parser.HasRequest()) body = parser.TakeRequest().body;
  }
  const uint64_t opens0 = catalog.stats().opens;
  auto lease = Traced("catalog.acquire", [&] { return catalog.AcquireSession(store); });
  if (!lease.ok()) Die("acquire: " + lease.status().ToString());
  r.opens_during_rest += catalog.stats().opens - opens0;
  core::CatalogSession session = std::move(lease).value();
  query::Executor exec(session.store());
  auto stmt = Traced("query.parse", [&] { return query::Parse(body); });
  if (!stmt.ok()) Die("parse: " + stmt.status().ToString());
  auto plan = Traced("query.plan", [&] {
    return query::PlanStatement(std::move(stmt).value(), exec.plan_context());
  });
  if (!plan.ok()) Die("plan: " + plan.status().ToString());
  if (plan.value().extract() != nullptr && sublayers) {
    // EXTRACT CSG: the executor materializes the full graph and runs
    // the extraction; time the two public calls it makes.
    const query::ExtractPlan& ep = *plan.value().extract();
    graph::Graph full = Must(
        Traced("store.materialize_graph", [&] { return session.store()->MaterializeFullGraph(); }),
        "materialize");
    csg::ExtractionOptions eo;
    eo.budget = ep.budget;
    auto cs = Must(Traced("csg.extract", [&] {
      return csg::ExtractConnectionSubgraph(full, ep.sources, eo);
    }), "extract");
    query::QueryResult qr;
    qr.columns = {"id"};
    for (graph::NodeId v : cs.subgraph.to_parent) qr.rows.push_back({std::to_string(v)});
    return Traced("serialise", [&] { return query::ResultToJson(qr); });
  }
  auto res = Traced("query.execute", [&] { return exec.Execute(plan.value()); });
  if (!res.ok()) Die("execute: " + res.status().ToString());
  if (plan.value().match() != nullptr) {
    r.metrics["query.pages_scanned"] += res.value().stats.pages_scanned;
    r.metrics["query.pages_pruned"] += res.value().stats.pages_pruned;
  }
  return Traced("serialise", [&] { return query::ResultToJson(res.value()); });
}

/// The analyst's MATCH / CSG / PageRank requests for `budget_s` seconds
/// (at least 3 MATCH, 1 CSG and 1 PageRank), without think time.
void ReplayAnalyst(Run& r, core::Catalog& catalog, double budget_s) {
  const std::string rest_store = "s";
  AnalystScript script(&r.g, &r.comp, r.seed);
  int matches = 0, csgs = 0, pageranks = 0;
  const double end = Now() + budget_s;
  while (Now() < end || matches < 3 || csgs < 1 || pageranks < 1) {
    AnalystOp op = script.Next();
    if (Now() >= end) {
      op = matches < 3 ? script.Match(0) : csgs < 1 ? script.Csg(0) : AnalystOp{};
      if (matches >= 3 && csgs >= 1) op.kind = AnalystOp::kPageRank;
    }
    ++r.tally.attempted;
    if (op.kind == AnalystOp::kPageRank) {
      ++pageranks;
      // Page-at-a-time PageRank on the streamed store under the budget.
      auto lease = Must(catalog.AcquireSession("big"), "acquire big");
      gtree::GTreeStore* store = lease.store();
      const gtree::GTreeStoreStats s0 = store->stats();
      auto scan = store->NewPageScan();
      mining::PageRankOverPagesOptions o;
      auto pr = Must(Traced("mining.pagerank", [&] { return mining::PageRankOverPages(*scan, o); }),
                     "pagerank");
      const gtree::GTreeStoreStats s1 = store->stats();
      r.metrics["mining.pagerank_iterations"] = pr.iterations;
      r.metrics["page_scan.loads_per_sweep"] =
          static_cast<double>((s1.leaf_loads - s0.leaf_loads) + (s1.cache_hits - s0.cache_hits)) /
          std::max(1, pr.iterations);
      std::vector<std::pair<uint32_t, double>> top;
      std::vector<uint32_t> order(pr.score.size());
      std::iota(order.begin(), order.end(), 0u);
      std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                        [&](uint32_t a, uint32_t b) { return pr.score[a] > pr.score[b]; });
      for (int i = 0; i < 10; ++i) top.emplace_back(order[i], pr.score[order[i]]);
      std::string why;
      if (!CheckPageRankTop(r.pr, top, &why)) r.tally.Wrong("pagerank " + why);
      continue;
    }
    const std::string body = RestQuery(r, catalog, rest_store, op.statement, true);
    if (op.kind == AnalystOp::kMatch) {
      ++matches;
      std::string bad = CheckMatch(r.g, op.prefix, body);
      if (!bad.empty()) r.tally.Wrong(bad);
    } else {
      ++csgs;
      std::string bad = CheckCsg(r.g, op.sources, op.budget, body);
      if (!bad.empty()) r.tally.Wrong(bad);
    }
  }
  r.metrics["query.pages_scanned"] /= std::max(1, matches);
  r.metrics["query.pages_pruned"] /= std::max(1, matches);
  // The store open a lease may hide, timed on its own.
  Samples open_ms;
  for (int i = 0; i < 3; ++i) {
    const double t = Now();
    auto st = gtree::GTreeStore::Open(r.dir + "/stores/" + rest_store + ".gtree");
    open_ms.Add((Now() - t) * 1e3);
    if (!st.ok()) r.tally.Fail("store open: " + st.status().ToString());
  }
  r.metrics["store.open_ms"] = open_ms.Median();
}

/// Two writers group-committing 4-edge batches through the EditQueue
/// with the WAL on, a navigator dispatching beside them, for
/// `budget_s` seconds (at least 20 commits); then the queue's hidden
/// sub-layers on their own.
void ReplayEdits(Run& r, double budget_s) {
  const std::string path = r.dir + "/stores/e.gtree";
  fs::copy_file(r.dir + "/stores/s.gtree", path, fs::copy_options::overwrite_existing);
  core::EngineOptions eo;
  eo.wal.enabled = true;
  auto engine = Must(core::GMineEngine::Open(path, eo), "engine open");
  core::EditQueue queue(engine.get());
  std::mutex mu;
  Samples commit_ms, group, epoch_wait_us;
  std::atomic<uint64_t> commits{0};
  std::atomic<bool> stop{false};
  uint64_t acked = 0;
  const double end = Now() + budget_s;
  auto writer = [&](uint32_t w) {
    EditScript script(&r.g, r.seed, w, 2);
    while (Now() < end || commits.load() < 20) {
      graph::GraphEdit edit(queue.tip_nodes());
      for (int i = 0; i < 4; ++i) {
        auto e = script.NextEdge();
        edit.AddEdge(e.first, e.second);
      }
      const double t = Now();
      auto fut = queue.Submit(std::move(edit));
      if (!fut.ok()) continue;
      core::EditCommit c = fut.value().get();
      std::lock_guard<std::mutex> lock(mu);
      ++r.tally.attempted;
      if (!c.status.ok()) {
        r.tally.Fail("commit: " + c.status.ToString());
        continue;
      }
      commit_ms.Add((Now() - t) * 1e3);
      group.Add(static_cast<double>(c.group_size));
      acked += 4;
      commits.fetch_add(1);
    }
  };
  std::thread nav([&] {
    auto id = engine->sessions().OpenSession();
    if (!id.ok()) return;
    while (!stop.load()) {
      const double t = Now();
      double entered = 0;
      (void)engine->sessions().WithSession(id.value(), [&](gtree::NavigationSession& s) {
        entered = Now();
        return s.FocusRoot();
      });
      std::lock_guard<std::mutex> lock(mu);
      epoch_wait_us.Add((entered - t) * 1e6);
    }
    (void)engine->sessions().CloseSession(id.value());
  });
  std::thread w0(writer, 0), w1(writer, 1);
  w0.join();
  w1.join();
  stop = true;
  nav.join();
  queue.Stop();
  r.metrics["edit_queue.commit_ms"] = commit_ms.Median();
  r.metrics["edit_queue.group_size"] = std::accumulate(group.v.begin(), group.v.end(), 0.0) /
                                       std::max<size_t>(1, group.size());
  // Time the navigator spent held at the epoch gate, per commit.
  r.metrics["session.epoch_wait_us"] =
      std::accumulate(epoch_wait_us.v.begin(), epoch_wait_us.v.end(), 0.0) /
      std::max<size_t>(1, commit_ms.size());
  engine.reset();

  // Sub-layers: ApplyEdit (and its compactions) on a fresh copy without
  // a log, and WAL append + sync on a scratch log.
  fs::copy_file(r.dir + "/stores/s.gtree", path, fs::copy_options::overwrite_existing);
  fs::remove(path + ".wal");
  auto plain = Must(core::GMineEngine::Open(path, core::EngineOptions()), "engine open");
  EditScript script(&r.g, Mix(r.seed, 0x73756221), 0, 1);
  Samples apply_ms, compact_ms;
  const int applies = 70;  // crosses the 64-op journal compaction
  for (int i = 0; i < applies; ++i) {
    graph::GraphEdit edit(r.g.n);
    auto e = script.NextEdge();
    edit.AddEdge(e.first, e.second);
    core::EditStats st;
    const double t = Now();
    Status s = Traced("engine.apply_edit", [&] { return plain->ApplyEdit(edit, {}, &st); });
    const double ms = (Now() - t) * 1e3;
    ++r.tally.attempted;
    if (!s.ok()) {
      r.tally.Fail("apply: " + s.ToString());
      continue;
    }
    (st.compacted ? compact_ms : apply_ms).Add(ms);
  }
  r.metrics["engine.apply_edit_ms"] = apply_ms.Median();
  r.metrics["store.compaction_ms"] = compact_ms.size() ? compact_ms.Median() : 0.0;
  r.metrics["store.compactions_per_kedit"] = 1000.0 * compact_ms.size() / applies;
  plain.reset();
  storage::WalOptions wo;
  wo.enabled = true;
  wo.path = r.dir + "/scratch.wal";
  auto wal = Must(storage::Wal::Open(wo.path, wo), "wal open");
  Samples sync_ms;
  for (int i = 0; i < 20; ++i) {
    graph::GraphEdit edit(r.g.n);
    edit.AddEdge(0, 1 + i);
    Must(wal->Append(edit, {}).status(), "wal append");
    const double t = Now();
    Must(Traced("wal.sync", [&] { return wal->Sync(); }), "wal sync");
    sync_ms.Add((Now() - t) * 1e3);
  }
  r.metrics["wal.sync_ms"] = sync_ms.Median();
  (void)acked;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[std::string(argv[i]).substr(2)] = argv[i + 1];
  Run r;
  if (!LookupWorkload(kv["workload"], &r.spec)) Die("unknown workload");
  r.seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
  r.seconds = std::strtod(kv["seconds"].c_str(), nullptr);
  r.dir = kv["dir"];
  r.g = Generate(r.seed, {r.spec.nodes, 5});
  r.comp = Components(r.g);
  int iters = 0;
  r.pr = PageRank(r.g, &iters);
  Setup(r);

  core::CatalogOptions copts;
  copts.mem_budget_bytes = static_cast<uint64_t>(r.spec.mem_budget_mb) << 20;
  auto catalog = Must(core::Catalog::OpenDirectory(r.dir + "/stores", copts), "catalog");

  // The workload's own mix gets most of the run; the other classes a
  // short fixed share, so every layer is measured on every workload.
  const bool nav_main = !r.spec.analyst && r.spec.writers == 0;
  const double t_nav = r.seconds * (nav_main ? 0.5 : 0.1);
  const double t_an = r.seconds * (r.spec.analyst ? 0.5 : 0.05);
  const double t_ed = r.seconds * (r.spec.writers ? 0.5 : 0.05);
  {
    // Navigators hold their leases while the analyst runs, as the
    // WebSocket sessions do in the end-to-end run.
    ReplayNavigation(r, *catalog, t_nav);
    std::vector<core::CatalogSession> held;
    for (uint32_t i = 0; i < r.spec.navigators; ++i) {
      held.push_back(Must(catalog->AcquireSession(NavStoreName(r)), "hold"));
    }
    ReplayAnalyst(r, *catalog, t_an);
  }
  ReplayEdits(r, t_ed);

  auto agg = g_trace.Aggregate();
  auto mean_us = [&](const std::string& n, bool self = false) {
    const Tracer::Agg& a = agg[n];
    return a.n ? 1e6 * (self ? a.self : a.total) / a.n : 0.0;
  };
  r.metrics["http.ws_frame_us"] = mean_us("http.ws_frame");
  r.metrics["http.request_parse_us"] = mean_us("http.request_parse");
  r.metrics["net.parse_us"] = mean_us("net.parse");
  r.metrics["net.encode_us"] = mean_us("net.encode");
  r.metrics["catalog.acquire_ms"] = mean_us("catalog.acquire") / 1e3;
  r.metrics["catalog.opens_per_request"] =
      static_cast<double>(r.opens_during_rest) / std::max<uint64_t>(1, r.rest_requests);
  r.metrics["session.dispatch_us"] = mean_us("session.with", /*self=*/true);
  r.metrics["navigation.focus_us"] = mean_us("navigation.focus");
  r.metrics["navigation.locate_us"] = mean_us("navigation.locate");
  r.metrics["views.render_svg_us"] = mean_us("views.render_svg");
  r.metrics["store.load_leaf_hit_us"] = mean_us("store.load_leaf_hit");
  r.metrics["store.load_leaf_miss_us"] = mean_us("store.load_leaf_miss");
  r.metrics["query.parse_us"] = mean_us("query.parse");
  r.metrics["query.plan_us"] = mean_us("query.plan");
  r.metrics["query.execute_ms"] = mean_us("query.execute") / 1e3;
  r.metrics["store.materialize_graph_ms"] = mean_us("store.materialize_graph") / 1e3;
  r.metrics["csg.extract_ms"] = mean_us("csg.extract") / 1e3;
  r.metrics["mining.pagerank_ms"] = mean_us("mining.pagerank") / 1e3;

  g_trace.Write(r.dir + "/spans.tsv");
  std::ofstream out(kv["out"]);
  out.precision(10);
  out << "{\"correct\":" << (r.tally.correct ? "true" : "false")
      << ",\"attempted\":" << r.tally.attempted << ",\"failed\":" << r.tally.failed
      << ",\"metrics\":{";
  static const std::map<std::string, std::string> kUnits = {
      {"http.wire_us", "us"}, {"http.ws_frame_us", "us"}, {"net.parse_us", "us"},
      {"net.encode_us", "us"}, {"http.request_parse_us", "us"},
      {"catalog.acquire_ms", "ms"}, {"catalog.opens_per_request", "count"},
      {"store.open_ms", "ms"}, {"session.dispatch_us", "us"},
      {"session.epoch_wait_us", "us"}, {"navigation.focus_us", "us"},
      {"navigation.locate_us", "us"}, {"views.render_svg_us", "us"},
      {"store.load_leaf_hit_us", "us"}, {"store.load_leaf_miss_us", "us"},
      {"store.read_bytes_per_op", "bytes"}, {"buffer_pool.hit_rate", "ratio"},
      {"buffer_pool.evictions_per_op", "count"}, {"buffer_pool.resident_mb", "MiB"},
      {"query.parse_us", "us"}, {"query.plan_us", "us"}, {"query.execute_ms", "ms"},
      {"query.pages_scanned", "count"}, {"query.pages_pruned", "count"},
      {"store.materialize_graph_ms", "ms"}, {"csg.extract_ms", "ms"},
      {"mining.pagerank_ms", "ms"}, {"mining.pagerank_iterations", "count"},
      {"page_scan.loads_per_sweep", "count"}, {"edit_queue.commit_ms", "ms"},
      {"edit_queue.group_size", "count"}, {"wal.sync_ms", "ms"},
      {"engine.apply_edit_ms", "ms"}, {"store.compaction_ms", "ms"},
      {"store.compactions_per_kedit", "count"}, {"builder.gtree_s", "s"},
      {"connectivity.build_s", "s"}, {"store.create_s", "s"}, {"stream_build.s", "s"}};
  bool first = true;
  for (const auto& [name, unit] : kUnits) {
    auto it = r.metrics.find(name);
    if (it == r.metrics.end()) Die("metric not measured: " + name);
    out << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << it->second
        << ",\"unit\":\"" << unit << "\"}";
    first = false;
  }
  out << "}}\n";
  std::fprintf(stderr, "trace: %zu spans, %llu nav ops replayed\n", g_trace.size(),
               static_cast<unsigned long long>(r.nav_ops));
  if (!r.tally.why.empty()) std::fprintf(stderr, "check: %s\n", r.tally.why.c_str());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) { return pb::Main(argc, argv); }
