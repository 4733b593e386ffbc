#include "server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "support/error.hpp"

namespace hetsched::server {

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  HETSCHED_CHECK(path.size() < sizeof(addr.sun_path),
                 "unix socket path too long");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  HETSCHED_CHECK(fd >= 0, "socket(AF_UNIX) failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    HETSCHED_CHECK(false, "connect(" + path + ") failed: " +
                              std::strerror(err));
  }
  return fd;
}

int connect_tcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  HETSCHED_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                 "host must be a numeric IPv4 address: " + host);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HETSCHED_CHECK(fd >= 0, "socket(AF_INET) failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    HETSCHED_CHECK(false, "connect(" + host + ":" + std::to_string(port) +
                              ") failed: " + std::strerror(err));
  }
  return fd;
}

}  // namespace

Client::Client(const std::string& address, std::size_t max_payload)
    : reader_(max_payload) {
  if (address.rfind("unix:", 0) == 0) {
    fd_ = connect_unix(address.substr(5));
    return;
  }
  const std::size_t colon = address.rfind(':');
  HETSCHED_CHECK(colon != std::string::npos && colon + 1 < address.size(),
                 "address must be unix:PATH or HOST:PORT, got: " + address);
  const int port = std::atoi(address.c_str() + colon + 1);
  HETSCHED_CHECK(port > 0 && port < 65536, "bad port in address: " + address);
  fd_ = connect_tcp(address.substr(0, colon), port);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), reader_(std::move(other.reader_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    reader_ = std::move(other.reader_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::send_bytes(const std::string& raw) {
  std::size_t off = 0;
  while (off < raw.size()) {
    // MSG_NOSIGNAL: a server that closed first fails the send with
    // EPIPE (thrown below) instead of raising SIGPIPE.
    const ssize_t w =
        ::send(fd_, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    HETSCHED_CHECK(w > 0, "write to server failed");
    off += static_cast<std::size_t>(w);
  }
}

std::string Client::read_frame() {
  std::string payload;
  for (;;) {
    const FrameReader::Status st = reader_.next(payload);
    if (st == FrameReader::Status::kFrame) return payload;
    HETSCHED_CHECK(st != FrameReader::Status::kOversized,
                   "server response exceeds the client payload limit");
    char buf[64 * 1024];
    const ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    HETSCHED_CHECK(r > 0, "server closed the connection");
    reader_.feed(buf, static_cast<std::size_t>(r));
  }
}

std::string Client::roundtrip(const std::string& payload) {
  send_bytes(encode_frame(payload));
  return read_frame();
}

std::vector<std::string> Client::roundtrip_batch(
    const std::vector<std::string>& payloads) {
  std::string burst;
  for (const std::string& p : payloads) append_frame(burst, p);
  send_bytes(burst);
  std::vector<std::string> responses;
  responses.reserve(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    responses.push_back(read_frame());
  return responses;
}

}  // namespace hetsched::server
