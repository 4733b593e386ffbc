#include "server/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/hooks.hpp"
#include "support/error.hpp"
#include "support/thread_annotations.hpp"

namespace hetsched::server {

namespace {

/// Wait between accept() retries after an error while not stopping.
constexpr std::chrono::milliseconds kAcceptRetry{5};

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Most bytes of response frames gathered into one write.
constexpr std::size_t kMaxGatherBytes = std::size_t{1} << 20;

/// MSG_NOSIGNAL: a peer that hung up before reading its answers fails
/// this write with EPIPE instead of raising SIGPIPE, which would end
/// the whole process.
bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Writes `responses` as frames, in order: in one write when they fit
/// kMaxGatherBytes, else in writes of at most that much (or of one
/// larger frame), releasing each response once it is copied, so that a
/// huge batch's answers are never held twice.
bool write_frames(int fd, std::vector<std::string>& responses) {
  std::size_t bytes = 0;
  for (const std::string& r : responses) bytes += 4 + r.size();
  std::string out;
  out.reserve(std::min(bytes, kMaxGatherBytes));
  for (std::string& r : responses) {
    if (!out.empty() && out.size() + 4 + r.size() > kMaxGatherBytes) {
      if (!write_all(fd, out)) return false;
      out.clear();
    }
    append_frame(out, r);
    std::string().swap(r);
  }
  return out.empty() || write_all(fd, out);
}

}  // namespace

struct Server::Impl {
  Service& service HETSCHED_NOT_GUARDED("bound at construction");
  ServerOptions options HETSCHED_NOT_GUARDED(
      "set at construction, read-only afterwards");

  // The fds and port are written during single-threaded start() before
  // any accept thread exists, then only read.
  int unix_fd HETSCHED_NOT_GUARDED("start()-time only") = -1;
  int tcp_fd HETSCHED_NOT_GUARDED("start()-time only") = -1;
  int bound_tcp_port HETSCHED_NOT_GUARDED("start()-time only") = -1;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> accepted{0};

  std::vector<std::thread> accept_threads HETSCHED_NOT_GUARDED(
      "mutated only by start()/stop() on the owning thread");
  std::mutex conn_mu;
  // fd -> handler
  std::unordered_map<int, std::thread> connections HETSCHED_GUARDED_BY(
      conn_mu);
  // handlers awaiting join
  std::vector<std::thread> finished HETSCHED_GUARDED_BY(conn_mu);

  explicit Impl(Service& s, ServerOptions o)
      : service(s), options(std::move(o)) {}

  void accept_loop(int listen_fd) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (stopping.load()) return;  // listener closed by stop()
        // Anything else (EINTR, EMFILE/ENFILE when descriptors run out,
        // ECONNABORTED, ENOBUFS) passes: back off briefly, so that a
        // pending connection does not spin this thread, and accept
        // again.
        std::this_thread::sleep_for(kAcceptRetry);
        continue;
      }
      if (stopping.load()) {
        close_fd(fd);
        return;
      }
      HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic; readers tolerate "
                                   "a stale count");
      accepted.fetch_add(1, std::memory_order_relaxed);
      HETSCHED_COUNTER_ADD("server.connections", 1);
      // Reap handlers of already-closed connections before spawning, so
      // a long-lived daemon never accumulates joinable thread handles.
      std::vector<std::thread> done;
      {
        std::lock_guard<std::mutex> l(conn_mu);
        done.swap(finished);
        connections.emplace(fd, std::thread([this, fd] { serve(fd); }));
      }
      for (std::thread& t : done) t.join();
    }
  }

  void serve(int fd) {
    service.connection_opened();  // feeds the `health` op
    FrameReader reader(options.max_payload);
    std::vector<std::string> batch;
    std::string payload;
    char buf[64 * 1024];
    bool open = true;
    while (open && !stopping.load()) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      reader.feed(buf, static_cast<std::size_t>(r));
      // Drain every complete frame this read produced into one batch.
      batch.clear();
      FrameReader::Status st = reader.next(payload);
      for (; st == FrameReader::Status::kFrame; st = reader.next(payload))
        batch.push_back(std::move(payload));
      std::vector<std::string> responses;
      if (!batch.empty()) responses = service.handle_batch(batch);
      if (st == FrameReader::Status::kOversized) {
        // Answer what came before it, then report and drop the
        // connection: the stream position is unrecoverable.
        responses.push_back(error_response(
            "null", errc::kOversizedFrame,
            "frame exceeds the server payload limit"));
        open = false;
      }
      if (!write_frames(fd, responses)) open = false;
    }
    ::shutdown(fd, SHUT_RDWR);
    {
      // Move our own thread handle to the finished list for
      // stop()/reaping (a thread cannot join itself). This must precede
      // the close: once closed, accept() may hand the same fd number to
      // a new connection, whose handle would then collide with ours in
      // `connections`.
      std::lock_guard<std::mutex> l(conn_mu);
      const auto it = connections.find(fd);
      if (it != connections.end()) {
        finished.push_back(std::move(it->second));
        connections.erase(it);
      }
    }
    close_fd(fd);
    service.connection_closed();
  }
};

Server::Server(Service& service, ServerOptions options)
    : impl_(std::make_unique<Impl>(service, std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  Impl& im = *impl_;
  HETSCHED_CHECK(!im.options.unix_path.empty() || im.options.tcp_port >= 0,
                 "Server needs at least one listener (unix_path or tcp_port)");

  if (!im.options.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    HETSCHED_CHECK(im.options.unix_path.size() < sizeof(addr.sun_path),
                   "unix socket path too long");
    std::strncpy(addr.sun_path, im.options.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    im.unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    HETSCHED_CHECK(im.unix_fd >= 0, "socket(AF_UNIX) failed");
    ::unlink(im.options.unix_path.c_str());
    HETSCHED_CHECK(::bind(im.unix_fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "bind(" + im.options.unix_path + ") failed: " +
                       std::strerror(errno));
    HETSCHED_CHECK(::listen(im.unix_fd, 64) == 0, "listen(unix) failed");
  }

  if (im.options.tcp_port >= 0) {
    im.tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    HETSCHED_CHECK(im.tcp_fd >= 0, "socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(im.tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(im.options.tcp_port));
    HETSCHED_CHECK(::bind(im.tcp_fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "bind(127.0.0.1:" + std::to_string(im.options.tcp_port) +
                       ") failed: " + std::strerror(errno));
    HETSCHED_CHECK(::listen(im.tcp_fd, 64) == 0, "listen(tcp) failed");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    HETSCHED_CHECK(::getsockname(im.tcp_fd,
                                 reinterpret_cast<sockaddr*>(&bound),
                                 &len) == 0,
                   "getsockname failed");
    im.bound_tcp_port = ntohs(bound.sin_port);
  }

  if (im.unix_fd >= 0)
    im.accept_threads.emplace_back([&im] { im.accept_loop(im.unix_fd); });
  if (im.tcp_fd >= 0)
    im.accept_threads.emplace_back([&im] { im.accept_loop(im.tcp_fd); });
}

void Server::stop() {
  Impl& im = *impl_;
  if (im.stopping.exchange(true)) {
    // Second call: everything below already ran (or is running on the
    // first caller); nothing left to release.
    return;
  }
  // In-flight requests (and any `health` answered during the drain)
  // see the draining state before the listeners go away.
  im.service.set_draining(true);
  // Close listeners: accept() fails, accept loops exit.
  if (im.unix_fd >= 0) ::shutdown(im.unix_fd, SHUT_RDWR);
  close_fd(im.unix_fd);
  im.unix_fd = -1;
  if (im.tcp_fd >= 0) ::shutdown(im.tcp_fd, SHUT_RDWR);
  close_fd(im.tcp_fd);
  im.tcp_fd = -1;
  for (std::thread& t : im.accept_threads) t.join();
  im.accept_threads.clear();
  // Unblock connection reads, then join every handler.
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> l(im.conn_mu);
    for (auto& [fd, thread] : im.connections) {
      ::shutdown(fd, SHUT_RDWR);
      to_join.push_back(std::move(thread));
    }
    im.connections.clear();
    for (std::thread& t : im.finished) to_join.push_back(std::move(t));
    im.finished.clear();
  }
  for (std::thread& t : to_join) t.join();
  if (!im.options.unix_path.empty())
    ::unlink(im.options.unix_path.c_str());
}

int Server::tcp_port() const { return impl_->bound_tcp_port; }

std::uint64_t Server::connections_accepted() const {
  HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic; a stale read is fine");
  return impl_->accepted.load(std::memory_order_relaxed);
}

}  // namespace hetsched::server
