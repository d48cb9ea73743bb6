#include "codar/service/server.hpp"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <iostream>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unistd.h>

#include "codar/common/json.hpp"
#include "codar/common/thread_annotations.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/service/protocol.hpp"
#include "codar/service/route_cache.hpp"
#include "codar/service/transport.hpp"
#include "codar/store/log_store.hpp"
#include "codar/store/report_codec.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::service {

namespace {

/// Reader-side poll slice: the longest a reader blocks in one read call
/// before re-checking the shutdown flag and its idle budget.
constexpr int kReadSliceMs = 200;

/// Serializes lines on the err stream: every server's store warnings and
/// the socket front end's own lines. The `codar` binary unsyncs the
/// standard streams from C stdio, and two threads writing an unsynced
/// std::cerr at once would race.
common::Mutex g_err_mutex;

/// Gates of parsed inline programs one connection may have waiting for,
/// or held by, a worker before its reader stops reading: the largest
/// program DESIGN.md §15 admits. A short line can expand to that many
/// gates, so queued programs are bounded by what they hold, not by the
/// bytes the client sent.
constexpr std::size_t kQueuedGateBudget = std::size_t{1} << 20;

/// Splits a Connection's byte stream into NDJSON lines, enforcing the
/// oversized-frame cap and the idle timeout, and noticing shutdown between
/// read slices. A final unterminated line before EOF is still yielded
/// (matching std::getline on the old stdio loop).
class LineReader {
 public:
  enum class Status {
    kLine,       ///< `*line` holds one request line (no terminator).
    kEof,        ///< Peer closed; no more lines.
    kShutdown,   ///< Server shutdown observed between reads.
    kIdle,       ///< Idle timeout expired with no data.
    kOversized,  ///< A line exceeded max_line_bytes; framing untrusted.
    kError,      ///< Transport error.
  };

  LineReader(Connection& io, std::size_t max_line_bytes, int idle_timeout_ms,
             const std::atomic<bool>& shutdown)
      : io_(io),
        max_line_bytes_(max_line_bytes),
        idle_timeout_ms_(idle_timeout_ms),
        shutdown_(shutdown) {}

  Status next(std::string* line) {
    int idle_elapsed_ms = 0;
    for (;;) {
      // A complete buffered line is served before any further I/O, so
      // pipelined requests that arrived in one chunk never wait.
      const std::size_t nl = buffer_.find('\n', scan_from_);
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        buffer_.erase(0, nl + 1);
        scan_from_ = 0;
        return Status::kLine;
      }
      scan_from_ = buffer_.size();
      if (buffer_.size() > max_line_bytes_) return Status::kOversized;
      if (eof_) {
        if (buffer_.empty()) return Status::kEof;
        line->assign(std::move(buffer_));  // final unterminated line
        buffer_.clear();
        scan_from_ = 0;
        return Status::kLine;
      }
      if (shutdown_.load(std::memory_order_relaxed)) {
        return Status::kShutdown;
      }
      char chunk[16 * 1024];
      std::size_t got = 0;
      switch (io_.read_some(chunk, sizeof chunk, &got, kReadSliceMs)) {
        case ReadStatus::kData:
          idle_elapsed_ms = 0;
          buffer_.append(chunk, got);
          break;
        case ReadStatus::kEof:
          eof_ = true;
          break;
        case ReadStatus::kTimeout:
          idle_elapsed_ms += kReadSliceMs;
          if (idle_timeout_ms_ > 0 && idle_elapsed_ms >= idle_timeout_ms_) {
            return Status::kIdle;
          }
          break;
        case ReadStatus::kError:
          return Status::kError;
      }
    }
  }

 private:
  Connection& io_;
  std::size_t max_line_bytes_;
  int idle_timeout_ms_;
  const std::atomic<bool>& shutdown_;
  std::string buffer_;
  std::size_t scan_from_ = 0;  ///< '\n' cannot be before here.
  bool eof_ = false;
};

/// Everything one serve session owns: worker pool, request queue, route
/// cache, the device / suite memos shared across workers, and the set of
/// live client connections.
class Server {
 public:
  /// A memoized device plus its content fingerprint (so the per-request
  /// cache-key computation is a map lookup, not an O(edges) rehash).
  struct DeviceEntry {
    std::shared_ptr<const arch::Device> device;
    std::uint64_t fingerprint = 0;
  };

  /// A memoized suite benchmark plus its content fingerprint.
  struct SuiteEntry {
    ir::Circuit circuit;
    std::uint64_t fingerprint = 0;
  };

  /// One client connection. The write side is a bounded queue drained by
  /// at most one thread at a time (whoever enqueues into an idle queue
  /// becomes the drainer), so a slow client blocks its own reader or one
  /// worker. `inflight` counts responses owed but not yet written — route
  /// requests from acceptance, reader-generated error/stats lines from
  /// enqueue — and is the backpressure quantity: the reader stops reading
  /// at max_inflight, or once its queued programs hold kQueuedGateBudget
  /// gates.
  struct ClientConn {
    explicit ClientConn(std::unique_ptr<Connection> io_)
        : io(std::move(io_)) {}

    std::unique_ptr<Connection> io;
    common::Mutex m;
    /// Signaled on every inflight decrement, queued-gate release and on
    /// death, for the reader's backpressure / barrier / drain waits.
    std::condition_variable_any cv;
    std::deque<std::string> write_queue CODAR_GUARDED_BY(m);
    std::size_t inflight CODAR_GUARDED_BY(m) = 0;
    /// Gates of this connection's parsed programs in the worker queue or
    /// being routed.
    std::size_t queued_gates CODAR_GUARDED_BY(m) = 0;
    bool writing CODAR_GUARDED_BY(m) = false;  ///< A drainer is active.
    bool dead CODAR_GUARDED_BY(m) = false;     ///< Write side broken.
  };

  /// One route request bound for one connection, resolved on the reader:
  /// a worker only has to look `key` up and route on a miss.
  struct Job {
    std::shared_ptr<ClientConn> conn;
    std::string id_json;
    pipeline::RoutingSpec opts;
    /// The request's name, else its suite name, else the parsed program's.
    std::string display_name;
    DeviceEntry device;
    /// A memoized suite circuit (valid for the server's lifetime), or null
    /// when `parsed` holds the request's inline program.
    const ir::Circuit* suite_circuit = nullptr;
    ir::Circuit parsed{0};
    CacheKey key;

    const ir::Circuit& circuit() const {
      return suite_circuit != nullptr ? *suite_circuit : parsed;
    }
  };

  /// `err` receives the persistent-cache startup note and asynchronous
  /// store warnings (corruption recovery, compaction); nullptr routes
  /// warnings to std::cerr and suppresses the note. Opening an unusable
  /// or locked --cache-dir throws std::runtime_error.
  explicit Server(const ServeOptions& opts, std::ostream* err = nullptr)
      : opts_(opts), err_(err), cache_(opts.cache_bytes, opts.cache_shards) {
    if (opts.cache_dir.empty() || opts.cache_bytes == 0) return;
    store::LogStoreOptions store_opts;
    store_opts.max_total_bytes = opts.cache_disk_bytes;
    // Warnings may fire from any worker (CRC mismatch on a read, a
    // compaction pass); serialize them onto the err stream.
    store_opts.log = [this](const std::string& msg) { log_warning(msg); };
    store_ = store::LogStore::open(opts.cache_dir, std::move(store_opts));
    cache_.attach_store(store_.get());
    std::size_t preloaded = 0;
    if (opts.warm_start > 0) {
      for (const auto& [fp, payload] :
           store_->recent_entries(opts.warm_start)) {
        pipeline::RouteReport report;
        // Undecodable payloads (format-version bump) are simply not
        // preloaded; lookups fall back to routing them.
        if (!store::decode_report(payload, &report)) continue;
        cache_.preload(CacheKey{fp.circuit, fp.device, fp.options}, report);
        ++preloaded;
      }
    }
    if (err_ != nullptr) {
      *err_ << "route cache dir " << store_->dir() << ": "
            << store_->stats().entries << " persisted entries, " << preloaded
            << " preloaded\n";
    }
  }

  /// stdio mode: serve exactly one connection over `in`/`out` on the
  /// calling thread until EOF, then drain and stop.
  void run_stream(std::istream& in, std::ostream& out) {
    start_workers();
    auto conn =
        std::make_shared<ClientConn>(make_stream_connection(in, out));
    reader_loop(conn);
    stop_workers();
  }

  /// Socket mode: accept until the listener is close()d (the handle's
  /// shutdown does that), a reader thread per client.
  void run_listener(Listener& listener) {
    start_workers();
    for (;;) {
      std::unique_ptr<Connection> io = listener.accept();
      if (io == nullptr) break;  // close()d by shutdown
      auto conn = std::make_shared<ClientConn>(std::move(io));
      const common::MutexLock lock(conns_mutex_);
      conns_.push_back(conn);
      reader_threads_.emplace_back(
          [this, conn = std::move(conn)] { reader_loop(conn); });
    }
    // Drain: readers stop reading (shutdown flag), wait out their
    // accepted requests, flush and close; workers then run the queue dry.
    std::vector<std::thread> readers;
    {
      const common::MutexLock lock(conns_mutex_);
      readers.swap(reader_threads_);
    }
    for (std::thread& t : readers) t.join();
    stop_workers();
  }

  /// Stops readers at their next slice; the caller also close()s the
  /// listener (the handle owns it, so there is no ordering race with
  /// run_listener starting up). Safe from any thread, idempotent.
  void shutdown() { shutting_down_.store(true, std::memory_order_relaxed); }

 private:
  void start_workers() {
    int threads = opts_.defaults.threads > 0
                      ? opts_.defaults.threads
                      : static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void stop_workers() {
    {
      const common::MutexLock lock(queue_mutex_);
      done_ = true;
    }
    queue_ready_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  /// Reads one connection until EOF / timeout / shutdown, then waits for
  /// every owed response to hit the wire before closing.
  void reader_loop(const std::shared_ptr<ClientConn>& conn) {
    LineReader lines(*conn->io, opts_.max_line_bytes, opts_.idle_timeout_ms,
                     shutting_down_);
    std::string line;
    bool reading = true;
    while (reading) {
      switch (lines.next(&line)) {
        case LineReader::Status::kLine:
          if (line.find_first_not_of(" \t\r") != std::string::npos) {
            handle_line(conn, line);
          }
          break;
        case LineReader::Status::kOversized:
          // The stream position after a dropped over-cap line is
          // untrusted; answer structurally, then close.
          ++errors_;
          respond(conn,
                  "{\"id\": null, \"error\": \"request line exceeds " +
                      std::to_string(opts_.max_line_bytes) +
                      " bytes\"}");
          reading = false;
          break;
        case LineReader::Status::kIdle:
          respond(conn,
                  "{\"id\": null, \"error\": \"idle timeout after " +
                      std::to_string(opts_.idle_timeout_ms) + " ms\"}");
          reading = false;
          break;
        case LineReader::Status::kEof:
        case LineReader::Status::kShutdown:
        case LineReader::Status::kError:
          reading = false;
          break;
      }
    }
    // Drain before close: every accepted request still gets its response
    // (unless the write side already broke, which zeroes inflight).
    {
      const common::MutexLock lock(conn->m);
      while (conn->inflight != 0) conn->cv.wait(conn->m);
    }
    const common::MutexLock lock(conns_mutex_);
    std::erase(conns_, conn);
  }

  void handle_line(const std::shared_ptr<ClientConn>& conn,
                   const std::string& line) {
    ServeRequest req;
    try {
      req = parse_request(line, opts_.defaults);
    } catch (const ProtocolError& e) {
      ++errors_;
      respond(conn, "{\"id\": " + best_effort_id(line) + ", \"error\": " +
                        common::json_quote(e.what()) + "}");
      return;
    }
    if (req.kind == ServeRequest::Kind::kStats) {
      {
        // Per-connection barrier: a stats request reports on everything
        // this connection enqueued before it, so wait until every owed
        // response is written. (Explicit wait loop, not a predicate
        // lambda: the thread-safety analysis sees the guarded reads in
        // this scope, where the lock is held.)
        const common::MutexLock lock(conn->m);
        while (conn->inflight != 0 && !conn->dead) conn->cv.wait(conn->m);
      }
      respond(conn, stats_response(req));
      return;
    }
    {
      // Backpressure: at max_inflight accepted-but-unwritten requests, or
      // with kQueuedGateBudget gates of parsed programs queued, the reader
      // parks here — this connection's bytes stay in the socket buffer
      // (and eventually push back on the client) instead of ballooning the
      // server queue. Shutdown does not break the wait: workers keep
      // draining during shutdown, and a parsed request is owed a response.
      const common::MutexLock lock(conn->m);
      while ((conn->inflight >= opts_.max_inflight ||
              conn->queued_gates >= kQueuedGateBudget) &&
             !conn->dead) {
        conn->cv.wait(conn->m);
      }
      if (conn->dead) return;  // peer gone; drop silently
      ++conn->inflight;
    }
    ++requests_;
    // A memory hit or a request that does not resolve is answered right
    // here; only a lookup that may route waits for a worker.
    Job job;
    job.conn = conn;
    if (std::optional<std::string> response = resolve(std::move(req), job)) {
      deliver(*conn, *response);
      return;
    }
    if (!job.parsed.empty()) {
      const common::MutexLock lock(conn->m);
      conn->queued_gates += job.parsed.size();
    }
    {
      const common::MutexLock lock(queue_mutex_);
      queue_.push_back(std::move(job));
    }
    queue_ready_.notify_one();
  }

  void worker_loop() {
    for (;;) {
      Job job;
      {
        const common::MutexLock lock(queue_mutex_);
        while (queue_.empty() && !done_) queue_ready_.wait(queue_mutex_);
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      const std::string response = route(job);
      if (const std::size_t gates = job.parsed.size(); gates != 0) {
        job.parsed = ir::Circuit(0);  // free the program, then its charge
        const common::MutexLock lock(job.conn->m);
        job.conn->queued_gates -= gates;
        job.conn->cv.notify_all();
      }
      deliver(*job.conn, response);
    }
  }

  /// Reader-side responses (errors, stats): take one inflight unit, then
  /// enqueue. Route responses took their unit at acceptance.
  void respond(const std::shared_ptr<ClientConn>& conn,
               const std::string& line) {
    {
      const common::MutexLock lock(conn->m);
      ++conn->inflight;
    }
    deliver(*conn, line);
  }

  /// Hands one response line (owning one inflight unit) to `c`'s write
  /// queue and drains the queue unless another thread already is. The
  /// unit is released when the line reaches the wire — or is dropped
  /// because the peer vanished — so backpressure tracks the client's
  /// consumption, not just routing completion.
  void deliver(ClientConn& c, const std::string& line) CODAR_EXCLUDES(c.m) {
    c.m.lock();
    if (c.dead) {
      --c.inflight;
      c.cv.notify_all();
      c.m.unlock();
      return;
    }
    c.write_queue.push_back(line + "\n");
    if (c.writing) {
      // The active drainer will pick this entry up before it finishes.
      c.m.unlock();
      return;
    }
    c.writing = true;
    while (!c.write_queue.empty()) {
      const std::string chunk = std::move(c.write_queue.front());
      c.write_queue.pop_front();
      c.m.unlock();
      const bool ok = c.io->write_all(chunk);
      c.m.lock();
      --c.inflight;
      if (!ok) {
        // Client disconnected with responses pending: drop what it will
        // never read and release those units so routing work already in
        // flight unwinds instead of waiting on a dead socket.
        c.dead = true;
        c.inflight -= c.write_queue.size();
        c.write_queue.clear();
      }
      c.cv.notify_all();
    }
    c.writing = false;
    c.m.unlock();
  }

  /// The reader's half of a route request: resolves the device, then the
  /// circuit (a memoized suite entry, or inline QASM parsed and
  /// fingerprinted here), then the cache key, filling `job`. Returns the
  /// response when the request is answered without a worker — a memory
  /// hit, or a device or circuit that does not resolve — and nothing when
  /// `job` must go to the queue.
  std::optional<std::string> resolve(ServeRequest&& req, Job& job) {
    job.id_json = std::move(req.id_json);
    job.opts = std::move(req.opts);
    // Set before anything can fail, so an error response carries the name
    // a success would (refined below once inline QASM has parsed).
    job.display_name = !req.name.empty() ? req.name : req.suite_name;
    try {
      job.device = req.inline_device ? inline_device_for(req.inline_device)
                                     : device_for(job.opts.device);
      // Suite entries are memoized with their fingerprints, so a suite hit
      // never copies a circuit or rehashes its gates; inline QASM has to be
      // parsed (and therefore fingerprinted) fresh each time.
      std::uint64_t circuit_fp = 0;
      if (!req.suite_name.empty()) {
        const SuiteEntry& entry = suite_entry(req.suite_name);
        job.suite_circuit = &entry.circuit;
        circuit_fp = entry.fingerprint;
      } else {
        job.parsed = qasm::parse(req.qasm);
        circuit_fp = job.parsed.fingerprint();
        if (job.display_name.empty()) job.display_name = job.parsed.name();
      }
      job.key = CacheKey{circuit_fp, job.device.fingerprint,
                         options_fingerprint(job.opts)};
    } catch (const std::exception& e) {
      pipeline::RouteReport failed;
      failed.error = e.what();
      return envelope(job, std::move(failed), /*cached=*/false);
    }
    if (std::optional<pipeline::RouteReport> hit = cache_.peek(job.key)) {
      return envelope(job, std::move(*hit), /*cached=*/true);
    }
    return std::nullopt;
  }

  /// The worker's half: the tiered lookup, routing on a double miss.
  std::string route(const Job& job) {
    pipeline::RouteReport report;
    bool cached = false;
    try {
      report = cache_.get_or_route(
          job.key,
          [&] {
            // Cached nameless: every alias of the key then stores and counts
            // the same bytes, whichever routed first; envelope() relabels.
            pipeline::RouteReport routed = pipeline::route_circuit(
                job.circuit(), *job.device.device, job.opts,
                /*keep_qasm=*/false);
            routed.name.clear();
            return routed;
          },
          &cached);
      if (!cached) ++routed_;
    } catch (const std::exception& e) {
      report.error = e.what();
    }
    return envelope(job, std::move(report), cached);
  }

  /// One route response line. The cache is content-addressed (names
  /// excluded from the circuit fingerprint) and holds reports nameless,
  /// though a record an older binary persisted may still carry its
  /// router's label: every report is labelled with this request's.
  static std::string envelope(const Job& job, pipeline::RouteReport report,
                              bool cached) {
    report.name = job.display_name;
    return "{\"id\": " + job.id_json +
           ", \"cached\": " + (cached ? "true" : "false") +
           ", \"result\": " + pipeline::to_json(report, job.opts) + "}";
  }

  std::string stats_response(const ServeRequest& req) const {
    const CacheCounters c = cache_.counters();
    std::ostringstream out;
    out << "{\"id\": " << req.id_json << ", \"requests\": " << requests_
        << ", \"routed\": " << routed_ << ", \"errors\": " << errors_
        << ", \"cache\": {\"entries\": " << c.entries
        << ", \"bytes\": " << c.bytes << ", \"budget\": " << opts_.cache_bytes
        << ", \"hits\": " << c.hits() << ", \"mem_hits\": " << c.mem_hits
        << ", \"disk_hits\": " << c.disk_hits << ", \"misses\": " << c.misses
        << ", \"evictions\": " << c.evictions
        << ", \"disk\": {\"enabled\": " << (store_ ? "true" : "false")
        << ", \"entries\": " << c.disk_entries
        << ", \"bytes\": " << c.disk_bytes
        << ", \"file_bytes\": " << c.disk_file_bytes
        << ", \"budget\": " << (store_ ? opts_.cache_disk_bytes : 0)
        << ", \"evictions\": " << c.disk_evictions << "}}}";
    return out.str();
  }

  /// Pulls the id out of a request line that failed validation, so even
  /// error responses can be correlated. Falls back to null.
  static std::string best_effort_id(const std::string& line) {
    try {
      const common::Json doc = common::Json::parse(line);
      if (const common::Json* id = doc.find("id")) {
        if (id->is_number()) return id->raw_number();
        if (id->is_string()) return common::json_quote(id->as_string());
      }
    } catch (const common::JsonError&) {
      // The line as a whole is not JSON (the usual reason we are here).
      // Scan for an `"id"` member by hand so even a half-garbled request
      // still correlates: accept a number or a string value, nothing else.
      const std::size_t key = line.find("\"id\"");
      if (key == std::string::npos) return "null";
      std::size_t pos = line.find_first_not_of(" \t", key + 4);
      if (pos == std::string::npos || line[pos] != ':') return "null";
      pos = line.find_first_not_of(" \t", pos + 1);
      if (pos == std::string::npos) return "null";
      if (line[pos] == '"') {
        const std::size_t end = line.find('"', pos + 1);
        if (end == std::string::npos) return "null";
        // Re-quote rather than echoing raw bytes back into our JSON.
        return common::json_quote(line.substr(pos + 1, end - pos - 1));
      }
      const std::size_t end = line.find_first_not_of("-+.0123456789eE", pos);
      const std::string token =
          line.substr(pos, end == std::string::npos ? end : end - pos);
      try {
        return common::Json::parse(token).raw_number();
      } catch (const common::JsonError&) {
        return "null";
      }
    }
    return "null";
  }

  /// Spec-string devices, memoized by spec for the server's lifetime.
  /// Requests can only name immutable presets/generators (the protocol
  /// refuses local_only specs like `file:`); a `file:` *default* given on
  /// the serve command line is read once at first use, like any resident
  /// service config.
  DeviceEntry device_for(const std::string& spec) CODAR_EXCLUDES(devices_mutex_) {
    {
      const common::MutexLock lock(devices_mutex_);
      if (const auto it = devices_.find(spec); it != devices_.end()) {
        return it->second;
      }
    }
    // Construction (including the distance-oracle pre-warm) runs outside
    // the lock so a cold lookup never stalls other workers. Two racing
    // cold lookups both build; emplace keeps the first, the loser's copy
    // is discarded — cheaper than single-flighting device construction.
    auto device = std::make_shared<const arch::Device>(
        pipeline::DeviceRegistry::instance().make(spec));
    // Build the lazily constructed distance oracle now, while this thread
    // holds the only reference — workers then only ever read it.
    device->graph.prepare();
    DeviceEntry entry{device, device->fingerprint()};
    const common::MutexLock lock(devices_mutex_);
    return devices_.emplace(spec, std::move(entry)).first->second;
  }

  /// Inline `device` objects are memoized by *content fingerprint* (the
  /// route-cache key), so repeated requests shipping the same calibrated
  /// device share one pre-warmed model instead of rebuilding the distance
  /// oracle per request. A recalibrated device fingerprints differently and
  /// gets its own entry — it can never alias its homogeneous twin.
  DeviceEntry inline_device_for(const std::shared_ptr<const arch::Device>&
                                    device) CODAR_EXCLUDES(devices_mutex_) {
    const std::uint64_t fp = device->fingerprint();
    {
      const common::MutexLock lock(devices_mutex_);
      if (const auto it = inline_devices_.find(fp);
          it != inline_devices_.end()) {
        return it->second;
      }
    }
    // Warm outside the lock: the parser built this object for this request
    // alone, so this thread still holds the only reference.
    device->graph.prepare();
    DeviceEntry entry{device, fp};
    // The dominant cost of a warmed device is its distance backend; the
    // oracle reports its own steady-state bound (dense: the V^2 matrix;
    // on-demand: CSR + row-cache budget).
    const std::size_t bytes = device->graph.distance_footprint_bytes();
    const common::MutexLock lock(devices_mutex_);
    if (inline_devices_.size() >= kMaxInlineDevices ||
        inline_device_bytes_ + bytes > kMaxInlineDeviceBytes) {
      // Memo full (a client churning through distinct calibrations): the
      // request still routes correctly on its own copy; only the
      // cross-request sharing is lost.
      return entry;
    }
    // Count only an actual insertion: a racing worker may have memoized
    // the same fingerprint between the two critical sections.
    const auto [it, inserted] = inline_devices_.emplace(fp, std::move(entry));
    if (inserted) inline_device_bytes_ += bytes;
    return it->second;
  }

  const SuiteEntry& suite_entry(const std::string& name) {
    // Built exactly once; immutable afterwards, so lookups run lock-free
    // and returned references stay valid for the server's lifetime.
    std::call_once(suite_once_, [this] {
      for (workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
        const std::uint64_t fp = spec.circuit.fingerprint();
        suite_index_.emplace(spec.name,
                             SuiteEntry{std::move(spec.circuit), fp});
      }
    });
    const auto it = suite_index_.find(name);
    if (it == suite_index_.end()) {
      throw ProtocolError("unknown suite benchmark '" + name + "'");
    }
    return it->second;
  }

  /// Serializes store warnings onto the err stream (workers may warn
  /// concurrently — a corrupt record noticed on read, a compaction note).
  void log_warning(const std::string& msg) CODAR_EXCLUDES(g_err_mutex) {
    const common::MutexLock lock(g_err_mutex);
    std::ostream& out = err_ != nullptr ? *err_ : std::cerr;
    out << "warning: " << msg << "\n";
  }

  const ServeOptions& opts_;
  std::ostream* err_;
  /// Optional persistent tier; declared before cache_ so the cache (which
  /// borrows the pointer) is destroyed first.
  std::unique_ptr<store::LogStore> store_;
  RouteCache cache_;

  /// Set once by shutdown(); readers poll it between read slices.
  std::atomic<bool> shutting_down_{false};

  common::Mutex queue_mutex_;
  // condition_variable_any waits on the annotated Mutex directly; wait()
  // releases and reacquires it internally, so the capability is held on
  // both sides of the call and the analysis stays consistent.
  std::condition_variable_any queue_ready_;
  std::deque<Job> queue_ CODAR_GUARDED_BY(queue_mutex_);
  bool done_ CODAR_GUARDED_BY(queue_mutex_) = false;

  common::Mutex conns_mutex_;
  std::vector<std::shared_ptr<ClientConn>> conns_
      CODAR_GUARDED_BY(conns_mutex_);
  std::vector<std::thread> reader_threads_ CODAR_GUARDED_BY(conns_mutex_);

  std::vector<std::thread> workers_;

  /// Inline-device memo bounds. The distance oracle bounds *one* device's
  /// warmed footprint (dense matrices cap at 4 MiB under the kAuto
  /// threshold; larger devices get the byte-budgeted on-demand backend);
  /// these bound their *sum*, so untrusted clients churning through
  /// distinct calibrated devices cannot pin memory for the server's
  /// lifetime — entries for the many-tiny-devices case, bytes for the
  /// few-huge-devices case.
  static constexpr std::size_t kMaxInlineDevices = 1024;
  static constexpr std::size_t kMaxInlineDeviceBytes = 256u << 20;

  common::Mutex devices_mutex_;
  std::unordered_map<std::string, DeviceEntry> devices_
      CODAR_GUARDED_BY(devices_mutex_);
  std::unordered_map<std::uint64_t, DeviceEntry> inline_devices_
      CODAR_GUARDED_BY(devices_mutex_);
  /// Memoized oracle footprint bytes.
  std::size_t inline_device_bytes_ CODAR_GUARDED_BY(devices_mutex_) = 0;

  std::once_flag suite_once_;
  std::unordered_map<std::string, SuiteEntry> suite_index_;

  std::atomic<std::size_t> requests_{0};  ///< Route requests accepted.
  std::atomic<std::size_t> routed_{0};    ///< Requests actually routed.
  std::atomic<std::size_t> errors_{0};    ///< Malformed request lines.
};

/// The socket-mode handle: owns the server, its listener and the thread
/// running the accept loop.
class ServerHandleImpl final : public ServerHandle {
 public:
  ServerHandleImpl(const ServeOptions& opts, std::unique_ptr<Listener> listener)
      : opts_(opts),
        server_(std::make_unique<Server>(opts_)),
        listener_(std::move(listener)),
        thread_([this] { server_->run_listener(*listener_); }) {}

  ~ServerHandleImpl() override {
    shutdown();
    join();
  }

  std::string endpoint() const override { return listener_->endpoint(); }

  void shutdown() override {
    server_->shutdown();
    listener_->close();  // wakes a blocked accept; idempotent
  }

  int join() override {
    if (thread_.joinable()) thread_.join();
    return 0;
  }

 private:
  ServeOptions opts_;  ///< Owned copy; the server holds a reference.
  std::unique_ptr<Server> server_;
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
};

/// SIGTERM/SIGINT → drain shutdown, via the self-pipe trick: the handler
/// may only do async-signal-safe work, so it writes one byte; a watcher
/// thread turns that byte into ServerHandle::shutdown().
std::atomic<int> g_signal_pipe_wr{-1};

void serve_signal_handler(int /*signum*/) {
  const int fd = g_signal_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

int run_serve_socket(const ServeOptions& opts, std::ostream& err) {
  std::unique_ptr<ServerHandle> handle;
  try {
    handle = start_serve(opts);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  {
    // Workers may already be logging store warnings.
    const common::MutexLock lock(g_err_mutex);
    err << "listening on " << handle->endpoint() << " (SIGTERM drains)\n";
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    err << "error: cannot create signal pipe\n";
    return 2;
  }
  g_signal_pipe_wr.store(pipe_fds[1], std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = serve_signal_handler;
  sigemptyset(&action.sa_mask);
  struct sigaction old_term {};
  struct sigaction old_int {};
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);

  std::thread watcher([&handle, rd = pipe_fds[0]] {
    char byte = 0;
    ssize_t n;
    do {
      n = ::read(rd, &byte, 1);
    } while (n < 0 && errno == EINTR);
    handle->shutdown();
  });

  const int rc = handle->join();

  // The server stopped (signal or otherwise); restore handlers and make
  // sure the watcher wakes even when no signal ever arrived.
  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  serve_signal_handler(0);
  watcher.join();
  g_signal_pipe_wr.store(-1, std::memory_order_relaxed);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
  err << "drained, shutting down\n";
  return rc;
}

}  // namespace

std::unique_ptr<ServerHandle> start_serve(const ServeOptions& opts) {
  // Fail fast on an unknown default device instead of erroring every
  // request.
  pipeline::DeviceRegistry::instance().make(opts.defaults.device);
  const ListenSpec spec = parse_listen_spec(opts.listen);
  if (spec.kind == ListenSpec::Kind::kStdio) {
    throw std::invalid_argument(
        "start_serve needs a socket listen spec (tcp:/unix:), not stdio");
  }
  return std::make_unique<ServerHandleImpl>(opts, make_listener(spec));
}

int run_serve(const ServeOptions& opts, std::istream& in, std::ostream& out,
              std::ostream& err) {
  ListenSpec spec;
  try {
    spec = parse_listen_spec(opts.listen);
    // Fail fast on an unknown default device instead of erroring every
    // request.
    pipeline::DeviceRegistry::instance().make(opts.defaults.device);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  if (spec.kind != ListenSpec::Kind::kStdio) {
    return run_serve_socket(opts, err);
  }
  try {
    // Construction opens --cache-dir (recovery scan + lock); an unusable
    // or already-locked directory is a startup error, like a bad device.
    Server server(opts, &err);
    server.run_stream(in, out);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  // A failed write drops the connection's responses silently; the exit
  // code is where that loss shows.
  if (!out.flush()) {
    err << "error: cannot write stdout\n";
    return 2;
  }
  return 0;
}

}  // namespace codar::service
