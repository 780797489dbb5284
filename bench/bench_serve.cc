// Load harness for `anonsafe serve` over the epoll TCP event loop.
//
// Starts an in-process server (ServeTcp on a kernel-assigned loopback
// port), then drives it from a single-threaded nonblocking epoll client:
// `--connections` concurrent sockets, each sending
// `--requests-per-conn` pipelage-free `assess_risk` requests (one in
// flight per connection, matching the server's ordering contract)
// against one cached dataset. Per-request latency is measured from
// first byte written to response newline; the summary reports
// p50/p95/p99/max and aggregate requests-per-second.
//
// A second, in-process phase measures the batch amortization claim:
// 40 interleaved repetitions each of a single `assess_risk` and a 16-item
// `assess_risk_batch` whose items repeat one configuration (the
// sweep shape the intra-batch memo amortizes), plus a bit-identity
// check of a mixed four-configuration grid against its sequential
// single-request equivalents.
//
// Output is one raw JSON record on stdout; scripts/check_perf.py gates
// on it (>=1000 connections served with zero errors; the fastest
// batch-of-16 < 3x the fastest single request, and bit-identical) and
// emits it, stamped, as
// BENCH_serve.json. When loopback TCP is unavailable (sandboxed
// builds), the TCP phase reports "skipped": true and the load gates
// pass vacuously.

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "serve/transport.h"
#include "util/json.h"

namespace anonsafe {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kDataset[] =
    "0 1 2\n0 1\n1 2 3\n0 2 3\n1 3\n0 1 3\n2 3\n0 3\n1 2\n0 1 2 3\n";

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string EscapedDataset() {
  std::string escaped;
  for (char c : std::string(kDataset)) {
    if (c == '\n') {
      escaped += "\\n";
    } else {
      escaped += c;
    }
  }
  return escaped;
}

json::Value Send(Server& server, const std::string& line) {
  auto parsed = json::Value::Parse(server.HandleLine(line));
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_serve: unparseable response to: %s\n",
                 line.c_str());
    std::exit(1);
  }
  return *parsed;
}

bool IsOk(const json::Value& response) {
  const json::Value* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

std::string LoadDataset(Server& server) {
  json::Value response =
      Send(server,
           "{\"schema_version\":2,\"id\":1,\"verb\":\"load_dataset\","
           "\"params\":{\"content\":\"" +
               EscapedDataset() + "\"}}");
  if (!IsOk(response)) {
    std::fprintf(stderr, "bench_serve: load_dataset failed\n");
    std::exit(1);
  }
  return response.Find("result")->GetString("dataset").value_or("");
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t index = static_cast<size_t>(p * static_cast<double>(n));
  if (index >= n) index = n - 1;
  return sorted[index];
}

/// Raises RLIMIT_NOFILE toward its hard cap; the harness needs roughly
/// two descriptors per connection (client end + accepted end).
void RaiseFdLimit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

// ------------------------------------------------------------------ TCP load

struct ClientConn {
  int fd = -1;
  bool connecting = true;
  size_t sent = 0;          // bytes of the current request already written
  size_t remaining = 0;     // requests still to send after the current one
  bool awaiting = false;    // request fully written, response pending
  std::string in;
  Clock::time_point t0;
};

struct LoadResult {
  bool skipped = false;
  std::string skip_reason;
  size_t connections = 0;
  size_t requests = 0;
  size_t errors = 0;
  double wall_s = 0.0;
  std::vector<double> latencies_ms;
};

/// One nonblocking epoll client loop: every connection keeps exactly one
/// request in flight, mirroring how a well-behaved fleet client uses the
/// protocol. Returns skipped=true when loopback TCP is unusable.
LoadResult RunLoadPhase(uint16_t port, const std::string& request,
                        size_t connections, size_t requests_per_conn) {
  LoadResult out;
  const int ep = epoll_create1(0);
  if (ep < 0) {
    out.skipped = true;
    out.skip_reason = "epoll_create1 failed";
    return out;
  }

  std::map<int, ClientConn> conns;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < connections; ++i) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      out.skipped = true;
      out.skip_reason = "socket() failed (fd limit?)";
      break;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      out.skipped = true;
      out.skip_reason = std::string("connect failed: ") + strerror(errno);
      break;
    }
    ClientConn conn;
    conn.fd = fd;
    conn.remaining = requests_per_conn - 1;
    conn.t0 = Clock::now();
    conns.emplace(fd, conn);
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.fd = fd;
    epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  }
  if (out.skipped) {
    for (auto& [fd, conn] : conns) ::close(fd);
    ::close(ep);
    return out;
  }
  out.connections = conns.size();
  out.latencies_ms.reserve(connections * requests_per_conn);

  auto rearm = [&](int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    epoll_ctl(ep, EPOLL_CTL_MOD, fd, &ev);
  };
  auto close_conn = [&](int fd) {
    epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(fd);
  };

  // Writes as much of the current request as the socket accepts and
  // keeps EPOLLOUT armed only while bytes are still pending.
  auto pump_write = [&](ClientConn& conn) -> bool {
    while (conn.sent < request.size()) {
      const ssize_t n = ::write(conn.fd, request.data() + conn.sent,
                                request.size() - conn.sent);
      if (n > 0) {
        conn.sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        rearm(conn.fd, EPOLLOUT);
        return true;
      }
      return false;  // write error: drop the connection
    }
    conn.awaiting = true;
    rearm(conn.fd, EPOLLIN);
    return true;
  };

  std::vector<epoll_event> events(512);
  char buf[65536];
  while (!conns.empty()) {
    const int n = epoll_wait(ep, events.data(),
                             static_cast<int>(events.size()), 10000);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      out.skipped = true;
      out.skip_reason = n == 0 ? "client epoll_wait timed out"
                               : "client epoll_wait failed";
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      auto it = conns.find(fd);
      if (it == conns.end()) continue;
      ClientConn& conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        ++out.errors;
        close_conn(fd);
        continue;
      }
      if (conn.connecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          ++out.errors;
          close_conn(fd);
          continue;
        }
        conn.connecting = false;
        conn.t0 = Clock::now();  // latency excludes connect time
      }
      if (!conn.awaiting) {
        if (!pump_write(conn)) {
          ++out.errors;
          close_conn(fd);
        }
        continue;
      }
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        ++out.errors;
        close_conn(fd);
        continue;
      }
      if (r < 0) continue;
      conn.in.append(buf, static_cast<size_t>(r));
      const size_t newline = conn.in.find('\n');
      if (newline == std::string::npos) continue;
      out.latencies_ms.push_back(MillisSince(conn.t0));
      ++out.requests;
      if (conn.in.find("\"ok\":true") == std::string::npos) ++out.errors;
      conn.in.clear();
      if (conn.remaining == 0) {
        close_conn(fd);
        continue;
      }
      --conn.remaining;
      conn.sent = 0;
      conn.awaiting = false;
      conn.t0 = Clock::now();
      if (!pump_write(conn)) {
        ++out.errors;
        close_conn(fd);
      }
    }
  }
  out.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& [fd, conn] : conns) ::close(fd);
  ::close(ep);
  return out;
}

// ------------------------------------------------------------- batch phase

struct BatchResult {
  /// Round-trip times of the interleaved repetitions, in run order; the
  /// gate reads the fastest of each side.
  std::vector<double> single_ms;
  std::vector<double> batch16_ms;
  bool bit_identical = false;
};

std::string BatchRequest(const std::string& key,
                         const std::vector<std::string>& grid) {
  std::string items;
  for (const std::string& item : grid) {
    if (!items.empty()) items += ",";
    items += item;
  }
  return "{\"schema_version\":2,\"verb\":\"assess_risk_batch\",\"params\":"
         "{\"dataset\":\"" +
         key + "\",\"items\":[" + items + "]}}";
}

BatchResult RunBatchPhase(Server& server, const std::string& key) {
  BatchResult out;

  // Timed grid: 16 probes of one configuration — the shape of a real
  // sweep that repeats settings, and the case the intra-batch memo is
  // for. One computation amortized over 16 envelopes is what makes the
  // batch round trip < 3x a single request on a one-core box.
  const std::vector<std::string> timed_grid(16, "{\"tolerance\":0.1}");
  const std::string single_request =
      "{\"schema_version\":1,\"verb\":\"assess_risk\",\"params\":"
      "{\"dataset\":\"" +
      key + "\",\"tolerance\":0.1}}";
  const std::string batch_request = BatchRequest(key, timed_grid);

  // Interleaved reps so frequency-scaling / cache drift hits both sides
  // equally instead of skewing the ratio.
  constexpr int kWarmup = 3;
  constexpr int kReps = 40;
  for (int i = 0; i < kWarmup + kReps; ++i) {
    Clock::time_point t0 = Clock::now();
    json::Value response = Send(server, single_request);
    if (!IsOk(response)) std::exit(1);
    const double s = MillisSince(t0);
    t0 = Clock::now();
    response = Send(server, batch_request);
    if (!IsOk(response)) std::exit(1);
    const double b = MillisSince(t0);
    if (i >= kWarmup) {
      out.single_ms.push_back(s);
      out.batch16_ms.push_back(b);
    }
  }

  // Bit-identity runs on a mixed grid (four distinct configurations,
  // untimed): every batch item vs its sequential single equivalent.
  std::vector<std::string> identity_grid;
  for (int i = 0; i < 16; ++i) {
    switch (i % 4) {
      case 0: identity_grid.push_back("{\"tolerance\":0.1}"); break;
      case 1: identity_grid.push_back("{\"tolerance\":0.25}"); break;
      case 2:
        identity_grid.push_back(
            "{\"tolerance\":0.25,\"estimator\":\"exact\"}");
        break;
      default:
        identity_grid.push_back("{\"estimator\":\"sampler\",\"seed\":13}");
        break;
    }
  }
  json::Value identity_batch = Send(server, BatchRequest(key, identity_grid));
  out.bit_identical = IsOk(identity_batch);
  const json::Value* batch_items =
      out.bit_identical ? identity_batch.Find("result")->Find("items")
                        : nullptr;
  if (batch_items == nullptr ||
      batch_items->items().size() != identity_grid.size()) {
    out.bit_identical = false;
    return out;
  }
  for (size_t i = 0; i < identity_grid.size(); ++i) {
    std::string params = identity_grid[i];
    params.insert(1, "\"dataset\":\"" + key + "\",");
    json::Value single =
        Send(server, "{\"schema_version\":1,\"verb\":\"assess_risk\","
                     "\"params\":" +
                         params + "}");
    const json::Value& envelope = batch_items->items()[i];
    const json::Value* ok = envelope.Find("ok");
    if (!IsOk(single) || ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
      out.bit_identical = false;
      break;
    }
    if (envelope.Find("report")->Dump() !=
        single.Find("result")->Find("report")->Dump()) {
      out.bit_identical = false;
      break;
    }
  }
  return out;
}

// ----------------------------------------------------------------- driver

uint64_t ArgOr(int argc, char** argv, const std::string& flag,
               uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + flag) return std::strtoull(argv[i + 1], nullptr, 10);
  }
  return fallback;
}

int Run(int argc, char** argv) {
  const size_t connections = ArgOr(argc, argv, "connections", 1024);
  const size_t requests_per_conn = ArgOr(argc, argv, "requests-per-conn", 4);
  RaiseFdLimit();

  ServerOptions server_options;
  server_options.workers = 4;
  // Every connection keeps one request in flight, so admission must hold
  // the whole fleet: anything tighter turns the bench into a queue_full
  // counter instead of a latency measurement.
  server_options.queue_capacity = connections + 16;
  Server server(server_options);
  const std::string key = LoadDataset(server);

  uint16_t port = 0;
  std::mutex mu;
  std::condition_variable cv;
  TcpServerOptions tcp;
  tcp.on_listening = [&](uint16_t bound) {
    std::lock_guard<std::mutex> lock(mu);
    port = bound;
    cv.notify_all();
  };
  Status serve_status = Status::OK();
  std::thread serving([&] { serve_status = ServeTcp(server, tcp); });

  LoadResult load;
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(5),
                     [&] { return port != 0; })) {
      load.skipped = true;
      load.skip_reason = "TCP listen did not come up (sandbox?)";
      serving.detach();
    }
  }
  const std::string request =
      "{\"schema_version\":2,\"verb\":\"assess_risk\",\"params\":"
      "{\"dataset\":\"" +
      key + "\",\"tolerance\":0.25}}\n";
  if (!load.skipped) {
    load = RunLoadPhase(port, request, connections, requests_per_conn);
  }

  // The amortization phase runs in-process (no TCP dependency) so the
  // batch gate still holds in sandboxed builds.
  const BatchResult batch = RunBatchPhase(server, key);

  if (port != 0) {
    Send(server, "{\"schema_version\":1,\"verb\":\"shutdown\"}");
    serving.join();
    if (!serve_status.ok()) {
      std::fprintf(stderr, "bench_serve: ServeTcp: %s\n",
                   serve_status.message().c_str());
    }
  }

  std::sort(load.latencies_ms.begin(), load.latencies_ms.end());
  json::Value doc = json::Value::Object();
  doc.Set("bench", json::Value("serve"));
  doc.Set("skipped", json::Value(load.skipped));
  if (load.skipped) doc.Set("skip_reason", json::Value(load.skip_reason));
  doc.Set("connections", json::Value(static_cast<int64_t>(load.connections)));
  doc.Set("requests_per_connection",
          json::Value(static_cast<int64_t>(requests_per_conn)));
  doc.Set("requests", json::Value(static_cast<int64_t>(load.requests)));
  doc.Set("errors", json::Value(static_cast<int64_t>(load.errors)));
  doc.Set("wall_s", json::Value(load.wall_s));
  doc.Set("rps", json::Value(load.wall_s > 0.0
                                 ? static_cast<double>(load.requests) /
                                       load.wall_s
                                 : 0.0));
  json::Value latency = json::Value::Object();
  latency.Set("p50_ms", json::Value(Percentile(load.latencies_ms, 0.50)));
  latency.Set("p95_ms", json::Value(Percentile(load.latencies_ms, 0.95)));
  latency.Set("p99_ms", json::Value(Percentile(load.latencies_ms, 0.99)));
  latency.Set("max_ms", json::Value(load.latencies_ms.empty()
                                        ? 0.0
                                        : load.latencies_ms.back()));
  doc.Set("latency", latency);
  json::Value batch_doc = json::Value::Object();
  batch_doc.Set("items", json::Value(static_cast<int64_t>(16)));
  batch_doc.Set("timed_distinct_items", json::Value(static_cast<int64_t>(1)));
  batch_doc.Set("identity_distinct_items",
                json::Value(static_cast<int64_t>(4)));
  json::Value single_reps = json::Value::Array();
  for (double ms : batch.single_ms) single_reps.Append(json::Value(ms));
  json::Value batch_reps = json::Value::Array();
  for (double ms : batch.batch16_ms) batch_reps.Append(json::Value(ms));
  batch_doc.Set("single_reps_ms", std::move(single_reps));
  batch_doc.Set("batch16_reps_ms", std::move(batch_reps));
  batch_doc.Set("bit_identical", json::Value(batch.bit_identical));
  doc.Set("batch", batch_doc);
  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace serve
}  // namespace anonsafe

int main(int argc, char** argv) { return anonsafe::serve::Run(argc, argv); }
