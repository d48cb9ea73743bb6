#include "codar/service/transport.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace codar::service {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Owns one fd; closes on destruction. -1 = empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// Renders the numeric host:port of a socket address.
std::string address_label(const sockaddr* addr, socklen_t len) {
  if (addr->sa_family == AF_UNIX) {
    const auto* un = reinterpret_cast<const sockaddr_un*>(addr);
    // An unbound client end has an empty (or abstract) path.
    return un->sun_path[0] != '\0' ? std::string("unix:") + un->sun_path
                                   : std::string("unix:");
  }
  char host[NI_MAXHOST];
  char port[NI_MAXSERV];
  if (getnameinfo(addr, len, host, sizeof host, port, sizeof port,
                  NI_NUMERICHOST | NI_NUMERICSERV) != 0) {
    return "tcp:?";
  }
  return std::string("tcp:") + host + ":" + port;
}

/// Full-duplex stream over one connected socket fd. Reads poll first so
/// callers get timeout slices; writes loop until complete and use
/// MSG_NOSIGNAL so a vanished peer is an error return, not SIGPIPE.
class SocketConnection final : public Connection {
 public:
  SocketConnection(Fd fd, std::string peer)
      : fd_(std::move(fd)), peer_(std::move(peer)) {}

  ReadStatus read_some(char* buf, std::size_t cap, std::size_t* n,
                       int timeout_ms) override {
    *n = 0;
    pollfd p{fd_.get(), POLLIN, 0};
    for (;;) {
      const int ready = ::poll(&p, 1, timeout_ms);
      if (ready == 0) return ReadStatus::kTimeout;
      if (ready < 0) {
        if (errno == EINTR) continue;  // retry with the full slice
        return ReadStatus::kError;
      }
      break;
    }
    for (;;) {
      const ssize_t got = ::recv(fd_.get(), buf, cap, 0);
      if (got > 0) {
        *n = static_cast<std::size_t>(got);
        return ReadStatus::kData;
      }
      if (got == 0) return ReadStatus::kEof;
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
  }

  bool write_all(std::string_view data) override {
    if (broken_) return false;
    while (!data.empty()) {
      const ssize_t put =
          ::send(fd_.get(), data.data(), data.size(), MSG_NOSIGNAL);
      if (put < 0) {
        if (errno == EINTR) continue;
        broken_ = true;
        return false;
      }
      data.remove_prefix(static_cast<std::size_t>(put));
    }
    return true;
  }

  std::string peer() const override { return peer_; }

 private:
  Fd fd_;
  std::string peer_;
  bool broken_ = false;
};

/// Shared accept loop over one listening fd, woken by a self-pipe. The
/// pipe (not closing the fd) is the shutdown signal so close() from
/// another thread never races a concurrent accept() on a recycled fd.
class SocketListener final : public Listener {
 public:
  SocketListener(Fd fd, std::string endpoint, std::string unlink_path)
      : fd_(std::move(fd)),
        endpoint_(std::move(endpoint)),
        unlink_path_(std::move(unlink_path)) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) fail_errno("pipe");
    wake_rd_ = Fd(pipe_fds[0]);
    wake_wr_ = Fd(pipe_fds[1]);
  }

  ~SocketListener() override {
    if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
  }

  std::unique_ptr<Connection> accept() override {
    for (;;) {
      pollfd fds[2] = {{fd_.get(), POLLIN, 0}, {wake_rd_.get(), POLLIN, 0}};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return nullptr;
      }
      if ((fds[1].revents & POLLIN) != 0) return nullptr;  // close()d
      if ((fds[0].revents & POLLIN) == 0) continue;
      sockaddr_storage addr{};
      socklen_t len = sizeof addr;
      const int client =
          ::accept(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len);
      if (client < 0) continue;  // transient (ECONNABORTED, EMFILE, ...)
      if (addr.ss_family == AF_INET || addr.ss_family == AF_INET6) {
        // Responses are short lines, often written back to back: under
        // Nagle a second one would wait for the client's delayed ACK.
        const int one = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      return std::make_unique<SocketConnection>(
          Fd(client),
          address_label(reinterpret_cast<sockaddr*>(&addr), len));
    }
  }

  void close() override {
    // One byte is enough; accept() never drains the pipe, so the wakeup
    // is sticky and close() stays idempotent.
    const std::lock_guard<std::mutex> lock(close_mutex_);
    if (closed_) return;
    closed_ = true;
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_.get(), &byte, 1);
  }

  std::string endpoint() const override { return endpoint_; }

 private:
  Fd fd_;
  Fd wake_rd_;
  Fd wake_wr_;
  std::string endpoint_;
  std::string unlink_path_;  ///< Unix socket file to remove on teardown.
  std::mutex close_mutex_;
  bool closed_ = false;
};

Fd tcp_listen_fd(const ListenSpec& spec, std::string* endpoint) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(spec.port);
  const int rc = ::getaddrinfo(spec.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve '" + spec.host +
                             "': " + gai_strerror(rc));
  }
  Fd fd;
  std::string error = "no usable address for '" + spec.host + "'";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd candidate(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) continue;
    const int one = 1;
    ::setsockopt(candidate.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(candidate.get(), ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(candidate.get(), SOMAXCONN) != 0) {
      error = std::string("cannot bind ") + to_string(spec) + ": " +
              std::strerror(errno);
      continue;
    }
    fd = std::move(candidate);
    break;
  }
  ::freeaddrinfo(res);
  if (!fd.valid()) throw std::runtime_error(error);

  // Report the kernel-resolved address, so `tcp:127.0.0.1:0` comes back
  // as a connectable endpoint with the real port.
  sockaddr_storage bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    *endpoint = address_label(reinterpret_cast<sockaddr*>(&bound), len);
  } else {
    *endpoint = to_string(spec);
  }
  return fd;
}

Fd unix_listen_fd(const ListenSpec& spec) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, spec.path.c_str(), spec.path.size() + 1);
  // A stale socket file from a dead server would make bind fail with
  // EADDRINUSE even though nobody is listening; remove it first. A *live*
  // server's file is also removed — two servers on one path is an
  // operator error this transport does not arbitrate.
  ::unlink(spec.path.c_str());
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd.get(), SOMAXCONN) != 0) {
    fail_errno("cannot bind " + to_string(spec));
  }
  return fd;
}

/// stdio transport: blocking stream reads (get() for the first byte,
/// readsome() to drain whatever the streambuf already holds, so pipelined
/// lines arrive in one chunk; std::cin has a buffer only once unsynced
/// from C stdio, as the `codar` binary does). Timeout slices are ignored —
/// see the header contract.
class StreamConnection final : public Connection {
 public:
  StreamConnection(std::istream& in, std::ostream& out) : in_(in), out_(out) {}

  ReadStatus read_some(char* buf, std::size_t cap, std::size_t* n,
                       int /*timeout_ms*/) override {
    *n = 0;
    if (cap == 0) return ReadStatus::kData;
    const int first = in_.get();
    if (first == std::char_traits<char>::eof()) {
      return in_.bad() ? ReadStatus::kError : ReadStatus::kEof;
    }
    buf[0] = static_cast<char>(first);
    const std::streamsize more =
        in_.readsome(buf + 1, static_cast<std::streamsize>(cap - 1));
    *n = 1 + static_cast<std::size_t>(more > 0 ? more : 0);
    return ReadStatus::kData;
  }

  bool write_all(std::string_view data) override {
    out_.write(data.data(), static_cast<std::streamsize>(data.size()));
    out_.flush();
    return out_.good();
  }

  std::string peer() const override { return "stdio"; }

 private:
  std::istream& in_;
  std::ostream& out_;
};

}  // namespace

ListenSpec parse_listen_spec(const std::string& spec) {
  ListenSpec out;
  if (spec == "stdio") {
    out.kind = ListenSpec::Kind::kStdio;
    return out;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw std::invalid_argument("tcp listen spec must be tcp:HOST:PORT, "
                                  "got '" + spec + "'");
    }
    out.kind = ListenSpec::Kind::kTcp;
    out.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(port.data(), port.data() + port.size(), value);
    if (ec != std::errc() || ptr != port.data() + port.size() ||
        value > 65535) {
      throw std::invalid_argument("tcp port must be an integer in "
                                  "[0, 65535], got '" + port + "'");
    }
    out.port = static_cast<std::uint16_t>(value);
    return out;
  }
  if (spec.rfind("unix:", 0) == 0) {
    out.kind = ListenSpec::Kind::kUnix;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      throw std::invalid_argument("unix listen spec must be unix:PATH");
    }
    if (out.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::invalid_argument(
          "unix socket path exceeds " +
          std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) + " bytes: '" +
          out.path + "'");
    }
    return out;
  }
  throw std::invalid_argument(
      "listen spec must be tcp:HOST:PORT, unix:PATH or stdio, got '" + spec +
      "'");
}

std::string to_string(const ListenSpec& spec) {
  switch (spec.kind) {
    case ListenSpec::Kind::kStdio:
      return "stdio";
    case ListenSpec::Kind::kTcp:
      return "tcp:" + spec.host + ":" + std::to_string(spec.port);
    case ListenSpec::Kind::kUnix:
      return "unix:" + spec.path;
  }
  return "stdio";  // unreachable; keeps GCC's -Wreturn-type quiet
}

std::unique_ptr<Listener> make_listener(const ListenSpec& spec) {
  switch (spec.kind) {
    case ListenSpec::Kind::kTcp: {
      std::string endpoint;
      Fd fd = tcp_listen_fd(spec, &endpoint);
      return std::make_unique<SocketListener>(std::move(fd),
                                              std::move(endpoint), "");
    }
    case ListenSpec::Kind::kUnix: {
      Fd fd = unix_listen_fd(spec);
      return std::make_unique<SocketListener>(std::move(fd), to_string(spec),
                                              spec.path);
    }
    case ListenSpec::Kind::kStdio:
      break;
  }
  throw std::invalid_argument("stdio is served inline, not via a listener");
}

std::unique_ptr<Connection> connect_endpoint(const std::string& spec,
                                             int timeout_ms) {
  const ListenSpec parsed = parse_listen_spec(spec);
  if (parsed.kind == ListenSpec::Kind::kUnix) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) fail_errno("socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, parsed.path.c_str(), parsed.path.size() + 1);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0) {
      fail_errno("cannot connect to " + spec);
    }
    return std::make_unique<SocketConnection>(std::move(fd), spec);
  }
  if (parsed.kind != ListenSpec::Kind::kTcp) {
    throw std::invalid_argument("cannot connect to '" + spec + "'");
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(parsed.port);
  const int rc =
      ::getaddrinfo(parsed.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve '" + parsed.host +
                             "': " + gai_strerror(rc));
  }
  Fd fd;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd candidate(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) continue;
    if (timeout_ms >= 0) {
      // Nonblocking connect + poll gives the caller a bounded wait; the
      // socket goes back to blocking mode for the NDJSON conversation.
      const int flags = ::fcntl(candidate.get(), F_GETFL, 0);
      ::fcntl(candidate.get(), F_SETFL, flags | O_NONBLOCK);
      const int c = ::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen);
      if (c != 0 && errno != EINPROGRESS) continue;
      if (c != 0) {
        pollfd p{candidate.get(), POLLOUT, 0};
        if (::poll(&p, 1, timeout_ms) <= 0) continue;
        int soerr = 0;
        socklen_t len = sizeof soerr;
        if (::getsockopt(candidate.get(), SOL_SOCKET, SO_ERROR, &soerr,
                         &len) != 0 ||
            soerr != 0) {
          continue;
        }
      }
      ::fcntl(candidate.get(), F_SETFL, flags);
    } else if (::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen) !=
               0) {
      continue;
    }
    fd = std::move(candidate);
    break;
  }
  ::freeaddrinfo(res);
  if (!fd.valid()) {
    throw std::runtime_error("cannot connect to " + spec + ": " +
                             std::strerror(errno));
  }
  return std::make_unique<SocketConnection>(std::move(fd), spec);
}

std::unique_ptr<Connection> make_stream_connection(std::istream& in,
                                                   std::ostream& out) {
  return std::make_unique<StreamConnection>(in, out);
}

}  // namespace codar::service
