// pb_load: the benchmark's input generator and load generator.
//
//   pb_load gen --workload W --seed S --out PREFIX
//       writes PREFIX.edges ("u v w") and PREFIX.labels ("id<TAB>label")
//   pb_load spec --workload W
//       prints the workload's server kind, pool budget and stores as JSON
//   pb_load drive --workload W --seed S --seconds T --port P
//                 --phase main|verify --out FILE --acked FILE --stores DIR
//       drives a running `gmine gateway` or `gmine server` over loopback
//       from one epoll loop, checks every reply against the benchmark's
//       own references, and writes the phase's figures as JSON to FILE.
//
// Phases: `main` runs the workload's timed mix, then walks every leaf
// and reads the pool's resident bytes; it writes the acknowledged edges
// to the --acked file. `verify` checks, after a restart of the edited
// store, that it holds every acknowledged edge.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>

#include "checks.h"
#include "wire.h"

namespace pb {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "pb_load: %s\n", msg.c_str());
  std::exit(2);
}

// -------------------------------------------------------------- the loop

struct Conn;

struct Pending {
  std::string bytes;
  double due = 0;  // latency is measured from here
  std::function<void(Reply&, double latency_s)> done;
};

struct Conn {
  int fd = -1;
  Proto proto = Proto::kLine;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<Pending> inflight;
};

/// One epoll loop over every client connection, with one-shot timers.
class Loop {
 public:
  Loop() : ep_(epoll_create1(0)) {}
  ~Loop() {
    for (auto& c : conns_) ::close(c->fd);
    ::close(ep_);
  }

  Conn* Connect(uint16_t port, Proto proto, const std::string& ws_store) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
      Die("connect failed on port " + std::to_string(port));
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->proto = proto;
    if (proto == Proto::kWs) {
      std::string req =
          "GET /api/v1/stores/" + ws_store +
          "/ws HTTP/1.1\r\nHost: 127.0.0.1\r\nUpgrade: websocket\r\n"
          "Connection: Upgrade\r\nSec-WebSocket-Key: "
          "dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\n\r\n";
      if (::write(fd, req.data(), req.size()) != static_cast<ssize_t>(req.size())) {
        Die("upgrade write failed");
      }
      std::string head;
      char ch;
      while (head.find("\r\n\r\n") == std::string::npos) {
        if (::read(fd, &ch, 1) != 1) Die("upgrade read failed");
        head += ch;
      }
      if (head.find(" 101 ") == std::string::npos) Die("upgrade refused: " + head);
    } else if (proto == Proto::kLine) {
      // The line server greets every connection with one OK line.
      std::string greeting;
      char ch = 0;
      while (ch != '\n') {
        if (::read(fd, &ch, 1) != 1) Die("no greeting from the line server");
        greeting += ch;
      }
      if (greeting.rfind("OK", 0) != 0) Die("line server refused: " + greeting);
    }
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.ptr = c.get();
    epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
    conns_.push_back(std::move(c));
    return conns_.back().get();
  }

  /// Queues one request on `c`; `due` is when it was due to be sent.
  void Send(Conn* c, std::string bytes, double due,
            std::function<void(Reply&, double)> done) {
    if (c->proto == Proto::kWs) bytes = WsFrame(bytes, mask_++ * 2654435761u);
    if (c->proto == Proto::kLine) bytes += '\n';
    c->out += bytes;
    c->inflight.push_back({std::string(), due, std::move(done)});
    Flush(c);
  }

  void At(double t, std::function<void()> fn) { timers_.emplace(t, std::move(fn)); }

  /// Runs until `stop()` holds. The loop never sleeps: a load generator
  /// that blocks must be woken for every reply, and on a virtual machine
  /// that wake-up varies from run to run more than the server does.
  /// busy_s() counts only the time spent on timers and replies.
  void Run(const std::function<bool()>& stop) {
    epoll_event evs[16];
    while (!stop()) {
      const double t0 = Now();
      bool worked = false;
      while (!timers_.empty() && timers_.begin()->first <= t0) {
        auto fn = std::move(timers_.begin()->second);
        timers_.erase(timers_.begin());
        fn();
        worked = true;
        if (stop()) break;
      }
      int n = epoll_wait(ep_, evs, 16, 0);
      for (int i = 0; i < n; ++i) {
        Conn* c = static_cast<Conn*>(evs[i].data.ptr);
        if (evs[i].events & EPOLLOUT) Flush(c);
        if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Read(c);
      }
      if (worked || n > 0) busy_s_ += Now() - t0;
    }
  }

  double busy_s() const { return busy_s_; }

  bool Idle() const {
    for (auto& c : conns_) {
      if (!c->inflight.empty()) return false;
    }
    return true;
  }

 private:
  void Flush(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t w = ::send(c->fd, c->out.data() + c->out_off,
                         c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN) return;
        Die("send failed");
      }
      c->out_off += static_cast<size_t>(w);
    }
    c->out.clear();
    c->out_off = 0;
  }

  void Read(Conn* c) {
    char buf[65536];
    for (;;) {
      ssize_t r = ::read(c->fd, buf, sizeof(buf));
      if (r > 0) {
        c->in.append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r == 0) {
        if (!c->inflight.empty()) Die("server closed a connection mid-request");
        break;
      }
      if (errno == EAGAIN) break;
      Die("read failed");
    }
    Reply reply;
    while (!c->inflight.empty() && PopReply(c->proto, c->in, &reply)) {
      Pending p = std::move(c->inflight.front());
      c->inflight.pop_front();
      const double lat = Now() - p.due;
      p.done(reply, lat);
      reply = Reply();
    }
  }

  int ep_;
  double busy_s_ = 0;
  uint32_t mask_ = 1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::multimap<double, std::function<void()>> timers_;
};

// ------------------------------------------------------------- checking

struct Args {
  std::map<std::string, std::string> kv;
  std::string Get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
};

/// Everything one phase measured.
struct Result {
  Tally tally;
  Samples nav, match, csg, pagerank, commit;
  uint64_t nav_done = 0, edits_acked = 0;
  double window_s = 0;
  double client_busy_s = 0;
  uint64_t client_ops = 0;
  double max_late_ms = 0, sum_late_ms = 0;
  uint64_t late_n = 0;
  uint64_t leaf_walk_nodes = 0;
  uint64_t pool_checks = 0;
  double store_bytes_sum = 0;
  uint64_t store_samples = 0;
  std::vector<std::pair<uint32_t, uint32_t>> acked;
};

/// The state shared by a phase's agents.
struct Ctx {
  Loop loop;
  RefGraph g;
  std::vector<uint32_t> comp;
  std::vector<double> pr;
  WorkloadSpec spec;
  uint64_t seed = 0;
  uint16_t port = 0;
  bool gateway = true;
  double window_end = 0;
  Overlay overlay;  // edges submitted so far, visible to navigators
  bool measuring = false;
  Result res;
};

/// A navigator: closed loop, or open loop at spec.nav_rate_per_s.
void StartNavigator(Ctx& ctx, Conn* c, uint32_t index) {
  auto script = std::make_shared<NavScript>(&ctx.g, ctx.seed, index, ctx.spec.writers > 0);
  auto issue = std::make_shared<std::function<void(double)>>();
  *issue = [&ctx, c, script, issue](double due) {
    if (Now() >= ctx.window_end) return;
    NavOp op = script->Next();
    const bool counted = ctx.measuring;
    if (ctx.spec.nav_rate_per_s > 0) {
      const double late = (Now() - due) * 1e3;
      ctx.res.max_late_ms = std::max(ctx.res.max_late_ms, late);
      ctx.res.sum_late_ms += late;
      ++ctx.res.late_n;
      const double next = due + 1.0 / ctx.spec.nav_rate_per_s;
      ctx.loop.At(next, [issue, next] { (*issue)(next); });
    }
    ctx.loop.Send(c, op.line, due, [&ctx, op, counted, issue](Reply& r, double lat) {
      if (counted) ++ctx.res.tally.attempted;
      if (!r.ok) {
        ctx.res.tally.Fail(std::string(NavKindName(op.kind)) + ": " + r.text);
      } else {
        std::string bad = CheckNav(ctx.g, op, r.text, r.body, &ctx.overlay);
        if (!bad.empty()) ctx.res.tally.Wrong(bad);
      }
      if (counted) {
        ctx.res.nav.Add(lat * 1e3);
        ++ctx.res.nav_done;
      }
      if (ctx.spec.nav_rate_per_s > 0) return;
      if (ctx.spec.nav_think_s > 0) {
        const double at = Now() + ctx.spec.nav_think_s;
        ctx.loop.At(at, [issue, at] { (*issue)(at); });
      } else {
        (*issue)(Now());
      }
    });
  };
  (*issue)(Now());
}

/// The REST analyst: closed loop with seeded think time.
void StartAnalyst(Ctx& ctx, Conn* c) {
  auto script = std::make_shared<AnalystScript>(&ctx.g, &ctx.comp, ctx.seed);
  auto next = std::make_shared<std::function<void()>>();
  *next = [&ctx, c, script, next] {
    AnalystOp op = script->Next();
    ctx.loop.At(Now() + op.think_s, [&ctx, c, op, next] {
      if (Now() >= ctx.window_end) return;
      const bool counted = ctx.measuring;
      if (counted) ++ctx.res.tally.attempted;
      if (op.kind == AnalystOp::kPageRank) {
        const double t0 = Now();
        ctx.loop.Send(c, HttpRequestBytes("POST", "/api/v1/stores/big/mine?kernel=pagerank&top=10"),
                      t0, [&ctx, c, t0, counted, next](Reply& r, double) {
          if (!r.ok) {
            ctx.res.tally.Fail("mine submit: " + r.body);
            (*next)();
            return;
          }
          const std::string poll = "/api/v1/jobs/" + JsonField(r.body, "job");
          auto poller = std::make_shared<std::function<void()>>();
          *poller = [&ctx, c, t0, counted, next, poll, poller] {
            ctx.loop.Send(c, HttpRequestBytes("GET", poll), Now(),
                          [&ctx, t0, counted, next, poller](Reply& pr, double) {
              const std::string state = JsonField(pr.body, "state");
              if (pr.ok && state == "running") {
                ctx.loop.At(Now() + 0.01, [poller] { (*poller)(); });
                return;
              }
              if (!pr.ok || state != "done") {
                ctx.res.tally.Fail("pagerank job: " + pr.body);
              } else {
                std::string bad = CheckPageRank(ctx.pr, pr.body, true);
                if (!bad.empty()) ctx.res.tally.Wrong(bad);
                if (counted) ctx.res.pagerank.Add(Now() - t0);
              }
              (*next)();
            });
          };
          (*poller)();
        });
        return;
      }
      ctx.loop.Send(c, HttpRequestBytes("POST", "/api/v1/stores/s/query", op.statement),
                    Now(), [&ctx, op, counted, next](Reply& r, double lat) {
        if (!r.ok) {
          ctx.res.tally.Fail(op.statement + ": " + r.body);
        } else {
          std::string bad = op.kind == AnalystOp::kMatch
                                ? CheckMatch(ctx.g, op.prefix, r.body)
                                : CheckCsg(ctx.g, op.sources, op.budget, r.body);
          if (!bad.empty()) ctx.res.tally.Wrong(bad);
          if (counted) (op.kind == AnalystOp::kMatch ? ctx.res.match : ctx.res.csg).Add(lat * 1e3);
        }
        (*next)();
      });
    });
  };
  (*next)();
}

/// A writer: closed loop of `edit add-edge` batches ended by `apply`,
/// until the window ends. Every navigator may see an edge as soon as it
/// is sent, so it joins the overlay then; it joins `acked` once its
/// batch commits.
void StartWriter(Ctx& ctx, Conn* c, std::shared_ptr<EditScript> script) {
  auto next = std::make_shared<std::function<void()>>();
  *next = [&ctx, c, script, next] {
    if (Now() >= ctx.window_end) return;
    auto batch = std::make_shared<std::vector<std::pair<uint32_t, uint32_t>>>();
    for (uint32_t i = 0; i < ctx.spec.edits_per_batch; ++i) {
      auto e = script->NextEdge();
      batch->push_back(e);
      ctx.overlay.Add(e.first, e.second);
      ctx.loop.Send(c, "edit add-edge " + std::to_string(e.first) + " " +
                           std::to_string(e.second),
                    Now(), [&ctx](Reply& r, double) {
        if (!r.ok) ctx.res.tally.Fail("edit add-edge: " + r.text);
      });
    }
    ctx.loop.Send(c, "edit apply", Now(), [&ctx, batch, next](Reply& r, double lat) {
      ++ctx.res.tally.attempted;
      if (!r.ok || r.text.find("committed ops=") != 0) {
        ctx.res.tally.Fail("edit apply: " + r.text);
      } else {
        ctx.res.acked.insert(ctx.res.acked.end(), batch->begin(), batch->end());
        ctx.res.commit.Add(lat * 1e3);
        ctx.res.edits_acked += batch->size();
      }
      (*next)();
    });
  };
  (*next)();
}

/// Sends one request on `c` and runs the loop until it is answered.
Reply Call(Ctx& ctx, Conn* c, const std::string& bytes) {
  Reply out;
  bool done = false;
  ctx.loop.Send(c, bytes, Now(), [&](Reply& r, double) {
    out = r;
    done = true;
  });
  ctx.loop.Run([&] { return done; });
  return out;
}

/// Walks the whole hierarchy depth first with child/parent and sums the
/// `load` node counts of its leaves.
uint64_t LeafWalk(Ctx& ctx, Conn* c) {
  auto op = [&](const std::string& line) {
    Reply r = Call(ctx, c, line);
    if (!r.ok) ctx.res.tally.Fail("leaf walk " + line + ": " + r.text);
    return r.text;
  };
  uint64_t total = 0;
  std::function<void()> visit = [&] {
    const uint64_t kids = FieldAfter(op("summary"), "children=");
    if (kids == 0) {
      total += FieldAfter(op("load"), " n=");
      return;
    }
    for (uint64_t i = 0; i < kids && i < 1000; ++i) {
      op("child " + std::to_string(i));
      visit();
      op("parent");
    }
  };
  op("root");
  visit();
  return total;
}

/// Total size of the regular files in `dir`.
uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::error_code ec;
    const uint64_t n = e.file_size(ec);
    if (!ec) total += n;
  }
  return total;
}

/// Checks a gateway /stats reply: the pool's resident bytes stay within
/// its budget.
void CheckPool(Ctx& ctx, const Reply& r) {
  size_t p = r.body.find("\"pool\":");
  const double budget = std::strtod(JsonField(r.body, "budget_bytes", p).c_str(), nullptr);
  const double resident = std::strtod(JsonField(r.body, "resident_bytes", p).c_str(), nullptr);
  ++ctx.res.pool_checks;
  if (!r.ok || budget <= 0) ctx.res.tally.Fail("stats: " + r.text);
  if (resident > budget) ctx.res.tally.Wrong("pool resident bytes exceed the budget");
}

std::vector<std::pair<uint32_t, uint32_t>> ReadAcked(const std::string& path) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  std::ifstream f(path);
  uint32_t u, v;
  while (f >> u >> v) out.emplace_back(u, v);
  return out;
}

void WriteAcked(const std::string& path,
                const std::vector<std::pair<uint32_t, uint32_t>>& acked) {
  std::ofstream f(path);
  for (auto& [u, v] : acked) f << u << " " << v << "\n";
}

void WriteResult(Ctx& ctx, const std::string& path) {
  Result& r = ctx.res;
  std::ostringstream o;
  o.precision(10);
  auto stat = [&](const char* name, Samples& s) {
    o << "\"" << name << "_n\":" << s.size() << ",";
    if (s.size() == 0) return;
    o << "\"" << name << "_p50\":" << s.Median() << ",\"" << name
      << "_tail\":" << s.Tail() << ",\"" << name << "_tail_q\":" << s.TailQ() << ",";
  };
  o << "{";
  stat("nav", r.nav);
  stat("match", r.match);
  stat("csg", r.csg);
  stat("pagerank", r.pagerank);
  stat("commit", r.commit);
  o << "\"nav_done\":" << r.nav_done << ",\"edits_acked\":" << r.edits_acked
    << ",\"window_s\":" << r.window_s << ",\"client_busy_s\":" << r.client_busy_s
    << ",\"client_ops\":" << r.client_ops << ",\"max_late_ms\":" << r.max_late_ms
    << ",\"mean_late_ms\":" << (r.late_n ? r.sum_late_ms / r.late_n : 0)
    << ",\"leaf_walk_nodes\":" << r.leaf_walk_nodes
    << ",\"pool_checks\":" << r.pool_checks
    << ",\"store_mb\":" << r.store_bytes_sum / std::max<uint64_t>(1, r.store_samples) / 1048576.0
    << ",\"attempted\":" << r.tally.attempted << ",\"failed\":" << r.tally.failed
    << ",\"correct\":" << (r.tally.correct ? "true" : "false") << ",\"why\":\"";
  for (char ch : r.tally.why) o << (ch == '"' || ch == '\\' ? '\'' : ch);
  o << "\"}\n";
  std::ofstream(path) << o.str();
}

/// After a restart of the edited store: its edge count is the generated
/// count plus every acknowledged added edge.
void Verify(Ctx& ctx, const std::string& acked_path) {
  const uint64_t generated = ctx.g.num_edges();
  const uint64_t expected = generated + ReadAcked(acked_path).size();
  Conn* c = ctx.loop.Connect(ctx.port, Proto::kLine, "");
  ++ctx.res.tally.attempted;
  Reply r = Call(ctx, c, "query MINE DEGREES");
  if (!r.ok) {
    ctx.res.tally.Fail("MINE DEGREES: " + r.text);
    return;
  }
  std::string bad = CheckEdgeCount(r.body, ctx.g.n, expected);
  if (!bad.empty()) {
    ctx.res.tally.Wrong("after restart " + bad + " (" + std::to_string(generated) +
                        " generated + acknowledged)");
  }
}

/// Runs every navigator's walk, untimed, for two seconds, so that lazy
/// opens, first page loads and an idle machine's slow start fall
/// outside the timed window.
void WarmNavigators(Ctx& ctx, const std::vector<Conn*>& navs) {
  const double end = Now() + 2.0;
  size_t running = navs.size();
  for (size_t i = 0; i < navs.size(); ++i) {
    auto script = std::make_shared<NavScript>(&ctx.g, Mix(ctx.seed, 0x7761726d),
                                              static_cast<uint32_t>(i), ctx.spec.writers > 0);
    auto step = std::make_shared<std::function<void()>>();
    *step = [&ctx, &running, end, i, navs, script, step] {
      if (Now() >= end) {
        --running;
        return;
      }
      NavOp op = script->Next();
      ctx.loop.Send(navs[i], op.line, Now(), [&ctx, op, step](Reply& r, double) {
        if (!r.ok) ctx.res.tally.Fail("warm-up " + std::string(NavKindName(op.kind)) + ": " + r.text);
        (*step)();
      });
    };
    (*step)();
  }
  ctx.loop.Run([&] { return running == 0; });
}

int Drive(const Args& a) {
  Ctx ctx;
  if (!LookupWorkload(a.Get("workload"), &ctx.spec)) Die("unknown workload");
  const WorkloadSpec& w = ctx.spec;
  ctx.seed = std::strtoull(a.Get("seed", "1").c_str(), nullptr, 10);
  ctx.port = static_cast<uint16_t>(std::atoi(a.Get("port").c_str()));
  const double seconds = std::strtod(a.Get("seconds").c_str(), nullptr);
  if (seconds <= 0) Die("--seconds must be positive");
  const std::string acked_path = a.Get("acked");
  ctx.gateway = w.writers == 0;
  // The files `pb_load gen` wrote come from this same function.
  ctx.g = Generate(ctx.seed, {w.nodes, 5});

  if (a.Get("phase", "main") == "verify") {
    Verify(ctx, acked_path);
    WriteResult(ctx, a.Get("out"));
    return 0;
  }

  if (w.analyst) {
    ctx.comp = Components(ctx.g);
    int iters = 0;
    ctx.pr = PageRank(ctx.g, &iters);
  }
  const std::string nav_store = w.analyst ? "big" : "s";
  std::vector<Conn*> navs;
  for (uint32_t i = 0; i < w.navigators; ++i) {
    navs.push_back(ctx.loop.Connect(ctx.port, ctx.gateway ? Proto::kWs : Proto::kLine, nav_store));
  }
  Conn* analyst = w.analyst ? ctx.loop.Connect(ctx.port, Proto::kHttp, "") : nullptr;
  std::vector<Conn*> writers;
  for (uint32_t i = 0; i < w.writers; ++i) {
    writers.push_back(ctx.loop.Connect(ctx.port, Proto::kLine, ""));
  }
  ctx.window_end = 1e300;
  WarmNavigators(ctx, navs);
  if (analyst) {
    // The first full-graph extractions and store opens of a process run
    // slower than later ones.
    AnalystScript warm(&ctx.g, &ctx.comp, Mix(ctx.seed, 0x7761726d));
    for (int i = 0; i < 3; ++i) {
      for (const AnalystOp& op : {warm.Csg(0), warm.Match(0)}) {
        Reply r = Call(ctx, analyst, HttpRequestBytes("POST", "/api/v1/stores/s/query", op.statement));
        if (!r.ok) ctx.res.tally.Fail("warm-up " + op.statement + ": " + r.body);
      }
    }
  }

  // The timed window.
  ctx.measuring = true;
  const double busy0 = ctx.loop.busy_s();
  const double t0 = Now();
  ctx.window_end = t0 + seconds;
  for (uint32_t i = 0; i < navs.size(); ++i) StartNavigator(ctx, navs[i], i);
  if (analyst) StartAnalyst(ctx, analyst);
  for (uint32_t i = 0; i < writers.size(); ++i) {
    StartWriter(ctx, writers[i], std::make_shared<EditScript>(&ctx.g, ctx.seed, i, w.writers));
  }
  Conn* stats_conn = ctx.gateway ? ctx.loop.Connect(ctx.port, Proto::kHttp, "") : nullptr;
  auto pool_tick = std::make_shared<std::function<void()>>();
  *pool_tick = [&ctx, stats_conn, pool_tick] {
    if (Now() >= ctx.window_end) return;
    ctx.loop.Send(stats_conn, HttpRequestBytes("GET", "/stats"), Now(), [&ctx, pool_tick](Reply& r, double) {
      CheckPool(ctx, r);
      ctx.loop.At(Now() + 0.5, [pool_tick] { (*pool_tick)(); });
    });
  };
  if (stats_conn) (*pool_tick)();
  // The store files' size through the window: an edited store grows by
  // appends and shrinks at each compaction.
  const std::string stores = a.Get("stores");
  auto size_tick = std::make_shared<std::function<void()>>();
  *size_tick = [&ctx, &stores, size_tick] {
    if (Now() >= ctx.window_end) return;
    ctx.res.store_bytes_sum += static_cast<double>(DirBytes(stores));
    ++ctx.res.store_samples;
    ctx.loop.At(Now() + 0.2, [size_tick] { (*size_tick)(); });
  };
  (*size_tick)();
  ctx.loop.Run([&] { return Now() >= ctx.window_end && ctx.loop.Idle(); });
  ctx.res.window_s = Now() - t0;
  ctx.res.client_busy_s = ctx.loop.busy_s() - busy0;
  ctx.res.client_ops = ctx.res.tally.attempted;
  ctx.measuring = false;

  // Structural checks after the window.
  WriteAcked(acked_path, ctx.res.acked);
  Conn* walker = ctx.gateway ? ctx.loop.Connect(ctx.port, Proto::kWs, nav_store) : navs.at(0);
  ++ctx.res.tally.attempted;
  ctx.res.leaf_walk_nodes = LeafWalk(ctx, walker);
  if (ctx.res.leaf_walk_nodes != ctx.g.n) {
    ctx.res.tally.Wrong("leaf walk counted " + std::to_string(ctx.res.leaf_walk_nodes) +
                        " nodes, generated " + std::to_string(ctx.g.n));
  }
  if (stats_conn) CheckPool(ctx, Call(ctx, stats_conn, HttpRequestBytes("GET", "/stats")));
  WriteResult(ctx, a.Get("out"));
  return 0;
}

int Gen(const Args& a) {
  WorkloadSpec w;
  if (!LookupWorkload(a.Get("workload"), &w)) Die("unknown workload");
  const uint64_t seed = std::strtoull(a.Get("seed", "1").c_str(), nullptr, 10);
  RefGraph g = Generate(seed, {w.nodes, 5});
  if (!WriteInputs(g, a.Get("out"))) Die("cannot write inputs");
  std::printf("generated n=%u e=%llu\n", g.n, static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

/// Prints the workload's shape for the runner: the server it starts,
/// the pool budget it passes and the stores it builds.
int Spec(const Args& a) {
  WorkloadSpec w;
  if (!LookupWorkload(a.Get("workload"), &w)) Die("unknown workload " + a.Get("workload"));
  std::printf("{\"server\":\"%s\",\"mem_budget_mb\":%u,\"stores\":[\"s\"%s]}\n",
              w.writers ? "server" : "gateway", w.mem_budget_mb, w.analyst ? ",\"big\"" : "");
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  if (argc < 2) pb::Die("usage: pb_load gen|spec|drive --key value ...");
  pb::Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) pb::Die("bad argument " + k);
    a.kv[k.substr(2)] = argv[i + 1];
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return pb::Gen(a);
  if (cmd == "spec") return pb::Spec(a);
  if (cmd == "drive") return pb::Drive(a);
  pb::Die("unknown command " + cmd);
}
