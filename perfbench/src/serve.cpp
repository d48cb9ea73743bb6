// The `serve` and `restart` workloads: an in-process `codar serve` on two
// workers behind TCP, driven over the NDJSON wire protocol by at most two
// client connections, with every response checked against the
// benchmark's own rendering of Pipeline::run for the same request.
//
//   serve    open loop at a fixed rate over a zipf(s=1) stream of inline
//            QASM requests, against a cache directory seeded with a cold
//            history: ~6% of requests miss, route and append.
//   restart  the same stream replayed by two closed-loop clients against
//            a server restarted with --warm-start on a directory that
//            already holds the stream's reports: every key is one disk
//            hit, nothing routes.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <string_view>
#include <unordered_map>

#include "bench.hpp"
#include "codar/arch/device_json.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using codar::pipeline::RouteReport;

namespace {

constexpr double kRate = 300.0;            // requests per second (serve)
constexpr std::size_t kRequests = 2000;    // requests per replay of the stream
constexpr std::uint64_t kTrafficSeed = 0x2F1F;  // the popularity order and request draws
constexpr std::size_t kItems = 120;        // distinct (circuit, device) items
constexpr std::size_t kMaxItemGates = 500;  // after Toffoli lowering
constexpr std::size_t kHistory = 20000;    // cold-history records
constexpr int kWorkers = 2;
constexpr int kReferencePasses = 6;  // reference compiles per run, spread out
constexpr int kSetups = 25;         // serve: server starts timed per run
constexpr double kLateLimitMs = 50.0;      // generator lateness that voids a run

/// Integer value of the first `"key": N` in a JSON line; -1 if absent.
long long json_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\": ");
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + key.size() + 4);
}

// ---- the request stream -------------------------------------------------------

constexpr std::size_t kNever = static_cast<std::size_t>(-1);
constexpr int kInline = -1;  ///< Item device: the inline recalibrated device.

struct Key {
  std::size_t item = 0;        ///< First item with this key.
  std::size_t first = kNever;  ///< Index of the first request carrying it.
};

struct Stream {
  std::vector<std::string> names;   ///< Per item.
  std::vector<std::string> qasm;    ///< Per item.
  std::vector<int> device;          ///< Per item: spec device index or kInline.
  std::vector<std::string> body;    ///< Per item: the request line after its id.
  std::vector<std::size_t> key_of;  ///< Per request.
  std::vector<std::size_t> item_of; ///< Per request.
  std::vector<Key> keys;            ///< Distinct keys of the whole corpus.
  std::size_t requested_keys = 0;   ///< Keys the request stream carries.
  std::unique_ptr<codar::arch::Device> inline_device;

  std::size_t size() const { return item_of.size(); }
  /// Request line `i` (built on demand so the stream costs no memory).
  std::string line(std::size_t i) const {
    return "{\"id\": " + std::to_string(i) + body[item_of[i]];
  }
  bool is_inline(const Key& k) const { return device[k.item] == kInline; }
};

const std::vector<std::string>& spec_devices() {
  static const std::vector<std::string> specs = {"q16", "tokyo", "enfield", "sycamore"};
  return specs;
}

Stream build_stream(std::uint64_t seed) {
  Stream s;
  // Every 8th item ships the noisy Tokyo, recalibrated on one coupler, as
  // an inline device object; the others name a registry device.
  Rng rng(seed ^ 0xD1CEull);
  codar::arch::Device noisy = codar::pipeline::DeviceRegistry::instance().make(kNoisySpec);
  const auto& edge = noisy.graph.edges()[rng.below(noisy.graph.edges().size())];
  noisy.calibration.set_fidelity_2q(edge.first, edge.second, 0.9 + 0.09 * rng.unit());
  std::string inline_json = codar::arch::device_to_json(noisy);
  for (char& c : inline_json) {
    if (c == '\n') c = ' ';
  }
  s.inline_device = std::make_unique<codar::arch::Device>(
      codar::arch::device_from_json_text(inline_json));

  // Items: the suite's families at the suite's sizes (the ones a request
  // routes in a few milliseconds), several seeded variants of each, in the
  // same slot order for every seed. The slots that route in 15-45 ms
  // (grover and tofchain from 9 qubits, random from 11) stay out: each
  // blocks a worker long enough that what queues behind it, not routing,
  // would set the tail.
  for (std::uint64_t v = 0; s.names.size() < kItems; ++v) {
    for (CorpusCircuit& c : draw_suite(seed * 7919 + v)) {
      if (c.qubits > 16 || s.names.size() >= kItems ||
          codar::ir::decompose_toffoli(codar::qasm::parse(c.qasm)).size() > kMaxItemGates) {
        continue;
      }
      const std::size_t item = s.names.size();
      const int device = item % 8 == 7 ? kInline : static_cast<int>(item % spec_devices().size());
      s.names.push_back(c.name + "_v" + std::to_string(v));
      s.body.push_back(", \"name\": " + json_quote(s.names.back()) +
                       ", \"qasm\": " + json_quote(c.qasm) + ", \"device\": " +
                       (device == kInline
                            ? inline_json
                            : json_quote(spec_devices()[static_cast<std::size_t>(device)])) +
                       "}");
      s.qasm.push_back(std::move(c.qasm));
      s.device.push_back(device);
    }
  }

  // Keys are what the server's content-addressed cache sees: an item's
  // circuit text on its device. Every key of the corpus gets a reference,
  // requested or not, so the reference compile has the same shape for
  // every seed.
  std::map<std::pair<std::string_view, int>, std::size_t> key_index;
  std::vector<std::size_t> item_key(kItems);
  for (std::size_t item = 0; item < kItems; ++item) {
    auto [it, fresh] = key_index.try_emplace({s.qasm[item], s.device[item]}, s.keys.size());
    if (fresh) s.keys.push_back(Key{item, kNever});
    item_key[item] = it->second;
  }

  // zipf(s=1) over a permutation of the items. The permutation and the
  // draws are the same for every seed: the seed picks the circuits behind
  // the item slots, not the traffic, so when heavy first sightings arrive
  // (and what queues behind them) does not change from seed to seed.
  Rng traffic(kTrafficSeed);
  std::vector<std::size_t> perm(kItems);
  for (std::size_t i = 0; i < kItems; ++i) perm[i] = i;
  for (std::size_t i = kItems; i > 1; --i) std::swap(perm[i - 1], perm[traffic.below(i)]);
  std::vector<double> cdf(kItems);
  double total = 0.0;
  for (std::size_t k = 0; k < kItems; ++k) total += 1.0 / static_cast<double>(k + 1);
  double cum = 0.0;
  for (std::size_t k = 0; k < kItems; ++k) {
    cum += 1.0 / static_cast<double>(k + 1) / total;
    cdf[k] = cum;
  }
  cdf.back() = 1.0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const double u = traffic.unit();
    const std::size_t rank =
        static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::size_t item = perm[std::min(rank, kItems - 1)];
    const std::size_t key = item_key[item];
    if (s.keys[key].first == kNever) {
      s.keys[key].first = i;
      ++s.requested_keys;
    }
    s.key_of.push_back(key);
    s.item_of.push_back(item);
  }
  return s;
}

// ---- references -----------------------------------------------------------------

/// The benchmark's own Pipeline::run of every key of the corpus, rendered
/// by the benchmark: the oracle every socket response is compared with,
/// and the workload's compile metrics. Passes are spread over the run, so
/// each key's time is its best over several moments, not one burst.
class Reference {
 public:
  explicit Reference(const std::vector<std::unique_ptr<codar::arch::Device>>& devices)
      : devices_(devices) {}

  /// Compiles every key once more on every timing lane. The first pass
  /// keeps the reports.
  void pass(const Stream& s) {
    const codar::pipeline::RoutingSpec spec;
    const bool first = report.empty();
    if (first) {
      report.resize(s.keys.size());
      for (const Key& key : s.keys) {
        label.push_back(s.is_inline(key)
                            ? s.inline_device->name
                            : spec_devices()[static_cast<std::size_t>(s.device[key.item])]);
      }
    }
    const std::vector<double> ms =
        best_over_lanes(s.keys.size(), 1, [&](std::size_t k, int lane, int) {
          const Key& key = s.keys[k];
          const codar::arch::Device& device =
              s.is_inline(key) ? *s.inline_device
                               : *devices_[static_cast<std::size_t>(s.device[key.item])];
          RouteReport r;
          const double ms = time_ms([&] {
            const codar::ir::Circuit c = codar::qasm::parse(s.qasm[key.item]);
            r = codar::pipeline::Pipeline(device, spec).run(c, /*keep_qasm=*/false);
            r.name = s.names[key.item];
            render_report(r, label[k], spec);  // the benchmark's rendering is part of a compile
          });
          if (first && lane == 0) report[k] = std::move(r);
          return ms;
        });
    if (first) best_ms = ms;
    for (std::size_t k = 0; k < ms.size(); ++k) best_ms[k] = std::min(best_ms[k], ms[k]);
  }

  /// The `result` object request `i` must receive: its key's report under
  /// the name the request gave.
  std::string expected(const Stream& s, std::size_t i) const {
    RouteReport r = report[s.key_of[i]];
    r.name = s.names[s.item_of[i]];
    return render_report(r, label[s.key_of[i]], codar::pipeline::RoutingSpec{});
  }

  std::vector<RouteReport> report;  ///< Per key, from the first pass.
  std::vector<std::string> label;   ///< Per key: the device as reports name it.
  std::vector<double> best_ms;      ///< Per key: best lane and pass.

 private:
  const std::vector<std::unique_ptr<codar::arch::Device>>& devices_;
};

/// Appends `count` seeded records under random keys, payloads cycled from
/// the references: other clients' traffic that this stream never asks for.
void append_history(const std::string& dir, std::uint64_t seed, const Reference& ref,
                    std::size_t count) {
  auto store = codar::store::LogStore::open(dir, {});
  std::vector<std::string> payloads;
  for (RouteReport r : ref.report) {
    r.stage_us.clear();
    r.route_us = 0;
    payloads.push_back(codar::store::encode_report(r));
  }
  Rng rng(seed ^ 0x415Bull);
  for (std::size_t i = 0; i < count; ++i) {
    const codar::store::Fingerprint fp{rng.next(), rng.next(), rng.next()};
    if (!store->put(fp, payloads[i % payloads.size()])) {
      throw std::runtime_error("history append failed in " + dir);
    }
  }
}

// ---- the wire -------------------------------------------------------------------

/// One blocking NDJSON connection to 127.0.0.1:port.
class Connection {
 public:
  explicit Connection(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line; false on EOF, error or a minute of silence.
  bool read_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 60000) <= 0) return false;
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      // Acknowledge at once (Linux resets quick-ack mode as it pleases):
      // the server writes without TCP_NODELAY, so a delayed ACK here would
      // hold its next response back until our next request.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

struct Server {
  std::unique_ptr<codar::service::ServerHandle> handle;
  int port = 0;
  double setup_s = 0.0;
};

Server start_server(const std::string& dir, std::size_t warm_start) {
  codar::service::ServeOptions opts;
  opts.defaults.threads = kWorkers;
  opts.listen = "tcp:127.0.0.1:0";
  opts.cache_dir = dir;
  opts.warm_start = warm_start;
  Server s;
  const auto t0 = Clock::now();
  s.handle = codar::service::start_serve(opts);
  s.setup_s = seconds_since(t0);
  const std::string ep = s.handle->endpoint();
  s.port = std::atoi(ep.c_str() + ep.rfind(':') + 1);
  return s;
}

void stop_server(Server& s) {
  s.handle->shutdown();
  s.handle->join();
  s.handle.reset();
}

struct SocketRun {
  std::vector<std::string> responses;  ///< Per request.
  std::vector<double> latency_ms;      ///< Per request.
  std::string stats;
  double wall_s = 0.0;
  double late_ms_max = 0.0;
  bool transport_ok = true;
};

/// Requests are split over two connections by parity; each connection
/// gets its own reader thread that files responses by id.
void read_responses(Connection& conn, std::size_t expected, SocketRun& run,
                    std::vector<Clock::time_point>& received, std::atomic<bool>& ok) {
  std::string line;
  for (std::size_t n = 0; n < expected; ++n) {
    if (!conn.read_line(&line)) {
      ok = false;
      return;
    }
    const long long id = json_field(line, "id");
    if (id < 0 || static_cast<std::size_t>(id) >= run.responses.size()) {
      ok = false;
      return;
    }
    received[static_cast<std::size_t>(id)] = Clock::now();
    run.responses[static_cast<std::size_t>(id)] = line;
  }
}

/// Open loop: request i is due at start + i / kRate whatever the replies
/// do, and is timed from when it was due.
SocketRun open_loop(int port, const Stream& s) {
  const std::size_t n = s.size();
  SocketRun run;
  run.responses.resize(n);
  run.latency_ms.resize(n);
  std::vector<Clock::time_point> due(n), received(n);
  Connection c0(port), c1(port);
  std::atomic<bool> ok{true};
  std::thread r0(read_responses, std::ref(c0), (n + 1) / 2, std::ref(run), std::ref(received),
                 std::ref(ok));
  std::thread r1(read_responses, std::ref(c1), n / 2, std::ref(run), std::ref(received),
                 std::ref(ok));
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::nanoseconds(
                         static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / kRate));
    const std::string line = s.line(i);
    std::this_thread::sleep_until(due[i]);
    run.late_ms_max = std::max(
        run.late_ms_max,
        std::chrono::duration<double, std::milli>(Clock::now() - due[i]).count());
    if (!(i % 2 == 0 ? c0 : c1).send(line)) ok = false;
  }
  r0.join();
  r1.join();
  run.transport_ok = ok;
  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    run.latency_ms[i] = std::chrono::duration<double, std::milli>(received[i] - due[i]).count();
    last = std::max(last, received[i]);
  }
  run.wall_s = std::chrono::duration<double>(last - start).count();
  if (run.transport_ok && c0.send("{\"id\": \"stats\", \"cmd\": \"stats\"}")) {
    c0.read_line(&run.stats);
  }
  return run;
}

/// Closed loop: two clients, each sending its half of the stream (by
/// parity) one request at a time and waiting for the reply.
SocketRun closed_loop(int port, const Stream& s) {
  const std::size_t n = s.size();
  SocketRun run;
  run.responses.resize(n);
  run.latency_ms.resize(n);
  Connection c0(port), c1(port);
  std::atomic<bool> ok{true};
  auto client = [&](Connection& conn, std::size_t parity) {
    std::string line;
    for (std::size_t i = parity; i < n; i += 2) {
      const auto t0 = Clock::now();
      if (!conn.send(s.line(i)) || !conn.read_line(&line)) {
        ok = false;
        return;
      }
      run.latency_ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      run.responses[i] = std::move(line);
    }
  };
  const auto start = Clock::now();
  std::thread t0(client, std::ref(c0), 0);
  std::thread t1(client, std::ref(c1), 1);
  t0.join();
  t1.join();
  run.wall_s = seconds_since(start);
  run.transport_ok = ok;
  if (run.transport_ok && c0.send("{\"id\": \"stats\", \"cmd\": \"stats\"}")) {
    c0.read_line(&run.stats);
  }
  return run;
}

/// Checks every response against the reference and the stats line against
/// the stream: one attempted operation per request plus one for the stats.
void check_run(const Stream& s, const Reference& ref, const SocketRun& run, bool restart,
               Result& res) {
  const std::size_t n = s.size();
  res.attempted += n + 1;
  if (!run.transport_ok) res.fail("transport error or timeout");
  std::size_t uncached = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string head = "{\"id\": " + std::to_string(i) + ", \"cached\": ";
    const std::string& got = run.responses[i];
    const std::string tail = ", \"result\": " + ref.expected(s, i) + "}";
    const bool cached = got == head + "true" + tail;
    if (!cached && got != head + "false" + tail) {
      res.fail("response " + std::to_string(i) + " differs from the reference: " +
               got.substr(0, 300));
      continue;
    }
    if (!cached) ++uncached;
  }
  const std::size_t keys = s.requested_keys;
  const long long requests = json_field(run.stats, "requests");
  const long long routed = json_field(run.stats, "routed");
  const long long errors = json_field(run.stats, "errors");
  const long long mem = json_field(run.stats, "mem_hits");
  const long long disk = json_field(run.stats, "disk_hits");
  const long long misses = json_field(run.stats, "misses");
  const auto want_routed = static_cast<long long>(restart ? 0 : keys);
  const bool stats_ok =
      requests == static_cast<long long>(n) && errors == 0 && routed == want_routed &&
      mem + disk + misses == requests && misses == want_routed &&
      disk == (restart ? static_cast<long long>(keys) : 0) &&
      uncached == static_cast<std::size_t>(want_routed);
  if (!stats_ok) {
    res.fail("stats do not reconcile with the stream (" + std::to_string(keys) +
             " keys, " + std::to_string(uncached) + " uncached): " + run.stats);
  }
}

// ---- the in-process replay (traced run) -------------------------------------------

/// The serve request path, layer by layer, on the calling thread:
/// parse_request, device resolution, qasm::parse and the fingerprints, the
/// tiered RouteCache over a LogStore, then the response rendering — what
/// a server worker does, minus the sockets and the queue.
class Replayer {
 public:
  Replayer(const std::string& dir, bool restart)
      : store_(open_store(dir, opts_)), cache_(opts_.cache_bytes, opts_.cache_shards) {
    opts_.defaults.threads = kWorkers;
    for (const std::string& spec : spec_devices()) {
      by_spec_[spec] = std::make_unique<codar::arch::Device>(
          codar::pipeline::DeviceRegistry::instance().make(spec));
      by_spec_[spec]->graph.prepare();
    }
    cache_.attach_store(store_.get());
    if (!restart) return;
    for (const auto& [fp, payload] : store_->recent_entries(kHistory)) {
      RouteReport r;
      if (codar::store::decode_report(payload, &r)) {
        cache_.preload({fp.circuit, fp.device, fp.options}, r);
      }
    }
  }

  /// Serves one request line; returns the response line.
  std::string serve(const std::string& line, std::int64_t id, Tracer* tracer) {
    const Scope root(tracer, "service.request", id);
    codar::service::ServeRequest req;
    {
      const Scope span(tracer, "service.parse_request", id);
      req = codar::service::parse_request(line, opts_.defaults);
    }
    const codar::arch::Device* device = nullptr;
    std::uint64_t device_print = 0;
    {
      const Scope span(tracer, "arch.device", id);
      if (req.inline_device) {
        device_print = req.inline_device->fingerprint();
        auto [it, fresh] = by_print_.try_emplace(device_print, req.inline_device);
        if (fresh) it->second->graph.prepare();
        device = it->second.get();
      } else {
        device = by_spec_.at(req.opts.device).get();
        device_print = device->fingerprint();
      }
    }
    codar::ir::Circuit circuit(0);
    {
      const Scope span(tracer, "qasm.parse", id);
      circuit = codar::qasm::parse(req.qasm);
    }
    parse_bytes += req.qasm.size();
    codar::service::CacheKey key;
    {
      const Scope span(tracer, "ir.fingerprint", id);
      key = {circuit.fingerprint(), device_print, codar::service::options_fingerprint(req.opts)};
    }
    bool cached = false;
    RouteReport report;
    {
      const Scope span(tracer, "cache.lookup", id);
      report = cache_.get_or_route(
          key,
          [&] {
            std::optional<codar::pipeline::Pipeline> pipe;
            {
              const Scope build(tracer, "pipeline.build", id);
              pipe.emplace(*device, req.opts);
            }
            RouteReport r = traced_pipeline(*pipe, *device, circuit, false, tracer, id);
            routed.push_back(r);
            return r;
          },
          &cached);
    }
    report.name = req.name;
    const Scope span(tracer, "render.stats", id);
    return "{\"id\": " + req.id_json + ", \"cached\": " + (cached ? "true" : "false") +
           ", \"result\": " + render_report(report, req.opts.device, req.opts) + "}";
  }

  codar::store::StoreStats store_stats() const { return store_->stats(); }

  std::vector<RouteReport> routed;  ///< Reports of the requests that routed.
  std::size_t parse_bytes = 0;

 private:
  static std::unique_ptr<codar::store::LogStore> open_store(
      const std::string& dir, const codar::service::ServeOptions& opts) {
    codar::store::LogStoreOptions store_opts;
    store_opts.max_total_bytes = opts.cache_disk_bytes;
    return codar::store::LogStore::open(dir, store_opts);
  }

  codar::service::ServeOptions opts_;
  std::map<std::string, std::unique_ptr<codar::arch::Device>> by_spec_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const codar::arch::Device>> by_print_;
  std::unique_ptr<codar::store::LogStore> store_;  // outlives cache_, which borrows it
  codar::service::RouteCache cache_;
};

/// Lowers each request's best latency to this round's where it is better.
void keep_best(std::vector<double>& best, const std::vector<double>& round) {
  if (best.empty()) best = round;
  for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], round[i]);
}

std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

std::string copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  return to;
}

}  // namespace

Result run_serve(const RunConfig& cfg, bool restart) {
  Result res;
  const std::string base = cfg.out_dir + "/" + cfg.workload + "-" + std::to_string(cfg.seed);
  fs::remove_all(base);
  const Stream s = build_stream(cfg.seed);

  std::vector<std::unique_ptr<codar::arch::Device>> devices;
  for (const std::string& spec : spec_devices()) {
    devices.push_back(std::make_unique<codar::arch::Device>(
        codar::pipeline::DeviceRegistry::instance().make(spec)));
    devices.back()->graph.prepare();
  }
  s.inline_device->graph.prepare();
  Reference ref(devices);
  ref.pass(s);
  const int passes = cfg.trace ? 1 : kReferencePasses;

  // The cache directory the measured server opens.
  const std::string dir = fresh_dir(base + "/cache");
  if (restart) {
    // Unmeasured: a server on an empty directory routes the stream's keys
    // once (appending them), then the cold history lands on top, so the
    // warm-start preload takes the history and every stream key must come
    // from a disk probe.
    Server populate = start_server(dir, 0);
    {
      Connection conn(populate.port);
      std::string line;
      for (const Key& k : s.keys) {
        if (k.first == kNever) continue;
        if (!conn.send(s.line(k.first)) || !conn.read_line(&line)) {
          res.fail("populate request failed");
          break;
        }
      }
    }
    stop_server(populate);
  }
  append_history(dir, cfg.seed, ref, kHistory);
  const std::string pristine = copy_dir(dir, base + "/pristine");

  std::vector<double> setups, latencies, throughputs;
  SocketRun last;
  if (!restart) {
    // Set-up is tens of ms, so it is measured kSetups times on every lane
    // — a server per lane, each on its own copy of the directory, half
    // before the rounds and half after — and reported as the median of
    // the best lanes.
    std::vector<std::string> lane_dirs;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      lane_dirs.push_back(copy_dir(pristine, base + "/setup-" + std::to_string(lane)));
    }
    auto time_setups = [&](int count) {
      const std::vector<double> ms = best_over_lanes(
          static_cast<std::size_t>(count), 1, [&](std::size_t, int lane, int) {
            Server spare = start_server(lane_dirs[static_cast<std::size_t>(lane)], 0);
            stop_server(spare);
            return spare.setup_s * 1e3;
          });
      for (const double m : ms) setups.push_back(m / 1e3);
    };
    time_setups(kSetups / 2);
    for (int pass = 1; pass < passes / 2; ++pass) ref.pass(s);
    // Each round serves the stream from a cold start on a fresh copy of the
    // history directory; each request is timed by its best round. --seconds
    // fixes the number of rounds (6 for 40 s), so best-of never depends on
    // how fast the host happens to be.
    const int rounds =
        cfg.trace ? 1
                  : std::max(2, static_cast<int>(std::lround(cfg.seconds * kRate /
                                                             static_cast<double>(kRequests))));
    for (int round = 0; round < rounds; ++round) {
      Server server = start_server(copy_dir(pristine, base + "/round"), 0);
      last = open_loop(server.port, s);
      stop_server(server);
      check_run(s, ref, last, false, res);
      keep_best(latencies, last.latency_ms);
      throughputs.push_back(static_cast<double>(s.size()) / last.wall_s);
      if (last.late_ms_max > kLateLimitMs) {
        res.valid = false;
        std::cerr << "perfbench: run invalid: the load generator ran " << last.late_ms_max
                  << " ms late\n";
      }
    }
    time_setups(kSetups - kSetups / 2);
    for (int pass = std::max(1, passes / 2); pass < passes; ++pass) ref.pass(s);
  } else {
    // A fixed number of rounds per --seconds (a round takes 0.5-2 s here,
    // depending on the host's load), so best-of never depends on speed.
    const int rounds = cfg.trace ? 1 : std::max(3, static_cast<int>(std::lround(cfg.seconds / 2)));
    // The remaining reference passes go evenly between the rounds.
    const int every = std::max(1, rounds / passes);
    int done = 1;
    for (int round = 0; round < rounds; ++round) {
      if (round > 0 && round % every == 0 && done < passes) {
        ref.pass(s);
        ++done;
      }
      Server server = start_server(dir, kHistory);
      setups.push_back(server.setup_s);
      last = closed_loop(server.port, s);
      stop_server(server);
      check_run(s, ref, last, true, res);
      keep_best(latencies, last.latency_ms);
      throughputs.push_back(static_cast<double>(s.size()) / last.wall_s);
    }
  }

  // Facts for the determinism self-check: the stream's shape and counters.
  res.facts["requests"] = std::to_string(s.size());
  res.facts["distinct_keys"] = std::to_string(s.requested_keys);
  res.facts["stats"] = last.stats;
  std::uint64_t digest = 14695981039346656037ull;
  for (std::size_t i = 0; i < s.size(); ++i) digest = fnv1a(s.line(i), digest);
  res.facts["stream_digest"] = std::to_string(digest);

  // Outcome metrics of the reference compile, over every corpus key.
  double log_ratio = 0.0;
  std::size_t ratios = 0, swaps = 0, noisy = 0;
  double neg_log_esp = 0.0;
  for (std::size_t k = 0; k < s.keys.size(); ++k) {
    const RouteReport& r = ref.report[k];
    if (r.depth_in > 0) {
      log_ratio += std::log(static_cast<double>(r.depth_out) / static_cast<double>(r.depth_in));
      ++ratios;
    }
    swaps += r.swaps;
    if (s.is_inline(s.keys[k])) {
      neg_log_esp -= r.log_esp;
      ++noisy;
    }
  }

  if (!cfg.trace) {
    res.set("setup_s", median(setups));
    const std::vector<double>& ref_ms = ref.best_ms;
    double compile_s = 0.0;
    for (const double ms : ref_ms) compile_s += ms / 1e3;
    res.set("compile_s", compile_s);
    res.set("compile_ms_p50", percentile(ref_ms, 50));
    res.set("compile_ms_p95", percentile(ref_ms, 95));
    res.set("latency_ms_p50", percentile(latencies, 50));
    res.set("latency_ms_p99", percentile(latencies, 99));
    res.set("throughput_rps", *std::max_element(throughputs.begin(), throughputs.end()));
    res.set("depth_ratio_geomean", std::exp(log_ratio / static_cast<double>(ratios)));
    res.set("swaps_total", static_cast<double>(swaps));
    res.set("neg_log_esp_mean", neg_log_esp / static_cast<double>(noisy));
    res.facts["depth_ratio_geomean"] = std::to_string(res.metrics["depth_ratio_geomean"]);
    res.facts["swaps_total"] = std::to_string(swaps);
    res.facts["neg_log_esp_mean"] = std::to_string(res.metrics["neg_log_esp_mean"]);
    return res;
  }

  // Traced run: replay the same stream in-process twice, on fresh copies
  // of the directory the socket server started from — untraced and
  // traced, request by request, so the overhead is measured under the
  // same host conditions. Both must reproduce the socket responses.
  auto plain = std::make_unique<Replayer>(copy_dir(pristine, base + "/replay-plain"), restart);
  auto traced = std::make_unique<Replayer>(copy_dir(pristine, base + "/replay-traced"), restart);
  Tracer tracer;
  double plain_s = 0.0, traced_s = 0.0;
  std::vector<double> wait_ms;
  std::size_t flag_races = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    auto t0 = Clock::now();
    const std::string plain_line = plain->serve(s.line(i), id, nullptr);
    const double service_s = seconds_since(t0);
    t0 = Clock::now();
    const std::string traced_line = traced->serve(s.line(i), id, &tracer);
    traced_s += seconds_since(t0);
    plain_s += service_s;
    wait_ms.push_back(last.latency_ms[i] - service_s * 1e3);
    ++res.attempted;
    if (plain_line == last.responses[i] && traced_line == last.responses[i]) continue;
    // Two racing requests for one new key may swap which of them routed
    // (and so which says "cached": false); the result bytes still agree.
    const auto result_of = [](const std::string& line) {
      const std::size_t at = line.find(", \"result\": ");
      return at == std::string::npos ? line : line.substr(at);
    };
    if (result_of(plain_line) != result_of(last.responses[i]) ||
        result_of(traced_line) != result_of(last.responses[i])) {
      res.fail("replay differs from the socket response " + std::to_string(i));
    } else {
      ++flag_races;
    }
  }
  if (flag_races > 0) {
    std::cerr << "perfbench: " << flag_races << " responses differ only in the cached flag\n";
  }
  const codar::store::StoreStats replay_store = traced->store_stats();
  const std::vector<RouteReport> routed = std::move(traced->routed);
  const std::size_t parse_bytes = traced->parse_bytes;
  plain.reset();  // releases the directory locks
  traced.reset();

  // The store's calls, timed one by one over the stream's keys on the
  // directory the traced replay left behind.
  const std::string replay_dir = base + "/replay-traced";
  std::vector<double> opens;
  std::size_t recovered = 0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    auto store = codar::store::LogStore::open(replay_dir, {});
    opens.push_back(seconds_since(t0));
    recovered = store->stats().recovered;
  }
  double get_s = 0, decode_s = 0, encode_s = 0, put_s = 0;
  {
    auto store = codar::store::LogStore::open(replay_dir, {});
    auto scratch = codar::store::LogStore::open(fresh_dir(base + "/scratch-store"), {});
    const codar::service::ServeOptions serve;
    for (const Key& k : s.keys) {
      if (k.first == kNever) continue;
      const codar::service::ServeRequest req =
          codar::service::parse_request(s.line(k.first), serve.defaults);
      const codar::arch::Device& dev =
          req.inline_device ? *req.inline_device
                            : *devices[static_cast<std::size_t>(s.device[k.item])];
      const codar::store::Fingerprint fp{codar::qasm::parse(req.qasm).fingerprint(),
                                         dev.fingerprint(),
                                         codar::service::options_fingerprint(req.opts)};
      std::string payload;
      auto t0 = Clock::now();
      const bool found = store->get(fp, &payload);
      get_s += seconds_since(t0);
      RouteReport r;
      t0 = Clock::now();
      const bool decoded = found && codar::store::decode_report(payload, &r);
      decode_s += seconds_since(t0);
      if (!decoded) {
        res.fail("stream key missing from the store");
        continue;
      }
      t0 = Clock::now();
      const std::string encoded = codar::store::encode_report(r);
      encode_s += seconds_since(t0);
      t0 = Clock::now();
      scratch->put(fp, encoded);
      put_s += seconds_since(t0);
    }
  }

  std::size_t swaps_c = 0, forced = 0, escape = 0, cycles = 0;
  for (const RouteReport& r : routed) {
    swaps_c += r.swaps;
    forced += r.forced_swaps;
    escape += r.escape_swaps;
    cycles += r.cycles;
  }
  const double mem = static_cast<double>(json_field(last.stats, "mem_hits"));
  const double disk = static_cast<double>(json_field(last.stats, "disk_hits"));
  const double miss = static_cast<double>(json_field(last.stats, "misses"));
  res.set("qasm.parse_s", tracer.total("qasm.parse"));
  res.set("qasm.parse_bytes", static_cast<double>(parse_bytes));
  res.set("qasm.render_s", tracer.total("qasm.render"));
  res.set("ir.lower_s", tracer.total("ir.lower"));
  res.set("ir.fingerprint_s", tracer.total("ir.fingerprint"));
  res.set("arch.device_s", tracer.total("arch.device"));
  res.set("pipeline.build_s", tracer.total("pipeline.build"));
  res.set("sabre.initial_s", tracer.total("sabre.initial"));
  res.set("core.route_s", tracer.total("core.route"));
  res.set("core.verify_s", tracer.total("core.verify"));
  res.set("core.swaps", static_cast<double>(swaps_c));
  res.set("core.forced_swaps", static_cast<double>(forced));
  res.set("core.escape_swaps", static_cast<double>(escape));
  res.set("core.cycles", static_cast<double>(cycles));
  res.set("schedule.asap_s", tracer.total("schedule.asap"));
  res.set("cost.esp_s", tracer.total("cost.esp"));
  res.set("pipeline.self_s", tracer.self("pipeline.run"));
  res.set("render.stats_s", tracer.total("render.stats"));
  res.set("service.parse_request_s", tracer.total("service.parse_request"));
  res.set("service.requests", static_cast<double>(json_field(last.stats, "requests")));
  res.set("service.routed", static_cast<double>(json_field(last.stats, "routed")));
  res.set("service.errors", static_cast<double>(json_field(last.stats, "errors")));
  res.set("transport.wait_ms_p50", percentile(wait_ms, 50));
  res.set("cache.lookup_s", tracer.self("cache.lookup"));
  res.set("cache.mem_hits", mem);
  res.set("cache.disk_hits", disk);
  res.set("cache.misses", miss);
  res.set("cache.hit_ratio", (mem + disk) / std::max(1.0, mem + disk + miss));
  res.set("cache.evictions", static_cast<double>(json_field(last.stats, "evictions")));
  res.set("store.open_s", median(opens));
  res.set("store.recovered", static_cast<double>(recovered));
  res.set("store.get_s", get_s);
  res.set("store.put_s", put_s);
  res.set("store.appends", static_cast<double>(replay_store.appends));
  res.set("store.file_bytes", static_cast<double>(replay_store.file_bytes));
  res.set("store.decode_s", decode_s);
  res.set("store.encode_s", encode_s);
  res.set("trace.overhead_s", traced_s - plain_s);
  res.set("loadgen.late_ms_max", restart ? 0.0 : last.late_ms_max);
  tracer.write(base + "-trace.ndjson");
  return res;
}

}  // namespace perfbench
