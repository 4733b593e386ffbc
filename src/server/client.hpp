// Client side of the advisor protocol: connect, frame, round-trip.
//
// Used by the scheduler_advisor CLI's --server mode, by
// tools/advisor_bench's socket load and by the protocol tests. The
// client is deliberately thin — it moves bytes and frames; request
// construction and response interpretation stay with the caller, so
// tests can send arbitrary (including malformed) payloads.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace hetsched::server {

/// One blocking connection to an advisor server.
///
/// Thread-safety: none; one Client per thread.
class Client {
 public:
  /// Connects to `address`: either "unix:PATH" or "HOST:PORT" (numeric
  /// IPv4 host). Throws hetsched::Error when the connection fails.
  explicit Client(const std::string& address,
                  std::size_t max_payload = kDefaultMaxPayload);
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request payload and waits for one response payload.
  std::string roundtrip(const std::string& payload);

  /// Pipelines all requests (one write burst), then collects the
  /// position-matched responses — this is what triggers per-connection
  /// batching on the server.
  std::vector<std::string> roundtrip_batch(
      const std::vector<std::string>& payloads);

  /// Raw bytes, no framing — for tests probing framing errors. Throws
  /// hetsched::Error when the server has closed the connection.
  void send_bytes(const std::string& raw);

  /// Next response frame payload. Throws hetsched::Error on EOF or an
  /// oversized/garbled response stream.
  std::string read_frame();

 private:
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace hetsched::server
