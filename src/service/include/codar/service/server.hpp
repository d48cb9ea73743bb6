#pragma once

// The `codar serve` loop: a resident routing service that reads
// newline-delimited JSON requests (see protocol.hpp) over a transport
// (stdio, TCP or Unix-domain sockets — see transport.hpp), answers the
// content-addressed RouteCache's memory hits on the connection's reader,
// fans the remaining route work out over a worker pool, and streams back
// one NDJSON response per request:
//
//   {"id": 1, "cached": false, "result": { ...batch stats schema... }}
//   {"id": 3, "requests": 2, "routed": 1, "errors": 0, "cache": {...}}
//   {"id": null, "error": "..."}                     (malformed request)
//
// The "result" object is byte-identical to what the one-shot batch driver
// emits for the same circuit/device/options (locked by the serve
// differential test). Responses stream in completion order, tagged with
// the request id the issuing client sent; ids are per-connection, so
// concurrent clients never see each other's traffic. A {"cmd":"stats"}
// request acts as a per-connection barrier — it drains every request this
// connection enqueued before it, then reports the server-wide counters.
//
// Socket mode accepts any number of concurrent clients, each with
// pipelined requests. Per connection, at most --max-inflight requests may
// be accepted-but-unwritten, and the parsed programs waiting for a worker
// may hold about 2^20 gates: past either the server stops reading that
// connection (backpressure) until they drain, so one slow or flooding
// client pins bounded memory and cannot starve the others.
// --idle-timeout-ms closes connections that go quiet; SIGTERM/SIGINT
// stop accepting, drain every accepted request, flush responses and exit.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "codar/pipeline/spec.hpp"

namespace codar::service {

struct ServeOptions {
  /// Per-request defaults: device, router, initial mapping, CODAR knobs.
  /// `threads` sizes the worker pool (0 = hardware concurrency).
  pipeline::RoutingSpec defaults;
  std::size_t cache_bytes = 256u << 20;  ///< Route-cache budget; 0 = off.
  int cache_shards = 8;
  /// Persistent route-cache directory (store::LogStore). Empty = memory
  /// only. With a directory set, every routed report is appended to a
  /// crash-safe on-disk log and a restarted server serves its history as
  /// disk hits instead of re-routing. Requires cache_bytes > 0.
  std::string cache_dir;
  /// Disk-tier byte budget (live record bytes; 0 = unbounded). Oldest
  /// entries are evicted past it.
  std::size_t cache_disk_bytes = 1u << 30;
  /// Preload the N most recently appended disk entries into the memory
  /// tier at boot (0 = off), so a restarted server answers its hot set
  /// from memory immediately.
  std::size_t warm_start = 0;
  /// Transport endpoint: `stdio` (default), `tcp:HOST:PORT` (port 0 =
  /// kernel-chosen) or `unix:PATH`.
  std::string listen = "stdio";
  /// Per-connection pipelining cap: requests accepted but not yet written
  /// back. At the cap the server stops reading that connection.
  std::size_t max_inflight = 64;
  /// Close a connection after this many ms without receiving a byte.
  /// 0 disables the timeout. Socket transports only.
  int idle_timeout_ms = 0;
  /// Oversized-frame cap: a request line longer than this draws a
  /// structured error and a close (the framing can no longer be trusted
  /// cheaply). Large enough for multi-MiB inline QASM by default.
  std::size_t max_line_bytes = 8u << 20;
  bool help = false;  ///< `codar serve --help`: print usage, serve nothing.
};

/// A socket-mode server running on background threads. Destroying the
/// handle shuts the server down (drain semantics) and joins it.
class ServerHandle {
 public:
  virtual ~ServerHandle() = default;

  /// The resolved endpoint clients can connect to — for `tcp:...:0` this
  /// carries the kernel-chosen port.
  virtual std::string endpoint() const = 0;

  /// Initiates drain shutdown: stop accepting, stop reading, finish every
  /// accepted request, flush responses, close. Idempotent, non-blocking.
  virtual void shutdown() = 0;

  /// Blocks until the server has fully stopped. Returns the exit code.
  virtual int join() = 0;
};

/// Starts a socket-mode server for `opts` (opts.listen must be tcp:/unix:)
/// and returns once it is accepting. Throws std::runtime_error when the
/// endpoint cannot be bound, the default device is invalid, or cache_dir
/// is unusable (unwritable, or locked by another server). This is the
/// in-process entry the socket tests and the load bench drive.
std::unique_ptr<ServerHandle> start_serve(const ServeOptions& opts);

/// Runs the service until EOF on `in` (stdio transport) or until
/// SIGTERM/SIGINT (socket transports; `in`/`out` are unused then), writing
/// NDJSON responses to the transport and human-readable startup/shutdown
/// notes to `err`. Returns the process exit code: 2 on a startup error,
/// and on stdio when `out` failed a write (responses were lost).
int run_serve(const ServeOptions& opts, std::istream& in, std::ostream& out,
              std::ostream& err);

}  // namespace codar::service
