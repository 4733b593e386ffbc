// Wire protocol for the advisor service: framing and the response
// envelope.
//
// The protocol — "hsp" (hetsched protocol), version 1 — is fully
// specified in docs/SERVER.md; that document, not this header, is the
// contract (the golden-transcript test replays its examples verbatim).
// Summary: a connection carries a sequence of frames, each a 4-byte
// big-endian unsigned payload length followed by exactly that many
// bytes of UTF-8 JSON. Requests and responses are JSON objects; every
// response names the request id it answers.
//
// Responses are emitted in *canonical* form — fixed member order, no
// insignificant whitespace, shortest round-trip number formatting — so
// that a response is a deterministic function of the request and the
// model snapshot. That is what makes byte-level golden transcripts and
// the hot-swap bit-identity test (swap under load == cold restart)
// possible, and it is why the cache can store serialized response
// payloads directly. The token encoders live in obs/json.hpp, the one
// JSON encoder of the repository; this header re-exports them for the
// wire code and owns what is wire-specific: framing, error codes and
// the error envelope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace hetsched::server {

/// Protocol version this build speaks (the "hsp" field).
inline constexpr int kProtocolVersion = 1;

/// Default maximum payload length a server accepts; a frame declaring
/// more is answered with an `oversized-frame` error and the connection
/// is closed (the stream position can no longer be trusted).
inline constexpr std::size_t kDefaultMaxPayload = 1u << 20;

/// Machine-readable error codes (docs/SERVER.md §5). Strings, not an
/// enum, because the set is part of the wire contract and must extend
/// without renumbering.
namespace errc {
inline constexpr const char* kOversizedFrame = "oversized-frame";
inline constexpr const char* kBadJson = "bad-json";
inline constexpr const char* kBadRequest = "bad-request";
inline constexpr const char* kUnsupportedVersion = "unsupported-version";
inline constexpr const char* kUnknownOp = "unknown-op";
inline constexpr const char* kUncovered = "uncovered";
inline constexpr const char* kUnavailable = "unavailable";
inline constexpr const char* kInternal = "internal";
}  // namespace errc

/// Prefixes `payload` with its 4-byte big-endian length.
std::string encode_frame(const std::string& payload);
/// Appends encode_frame(payload) to `out`, so that several frames can be
/// gathered into one buffer and written at once.
void append_frame(std::string& out, const std::string& payload);

/// Incremental frame decoder for one connection's byte stream.
///
/// Feed arbitrary chunks as they arrive; next() yields complete
/// payloads in order. A declared length beyond `max_payload` is
/// reported once as kOversized; the reader is then poisoned (every
/// further next() repeats kOversized) because the stream cannot be
/// resynchronized — the caller should answer with an `oversized-frame`
/// error frame and close.
///
/// Thread-safety: none; one reader per connection, owned by its thread.
/// Complexity: O(bytes fed). next() only advances a read offset; feed()
/// drops the consumed prefix once, then appends.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes from the wire.
  void feed(const char* data, std::size_t len) {
    buf_.erase(0, pos_);
    pos_ = 0;
    buf_.append(data, len);
  }

  enum class Status {
    kFrame,      ///< `payload` holds the next complete frame
    kNeedMore,   ///< no complete frame buffered yet
    kOversized,  ///< declared length > max_payload; reader poisoned
  };

  /// Extracts the next complete frame payload, if any.
  Status next(std::string& payload);

  /// Bytes fed but not yet consumed as frames.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::size_t max_payload_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< first byte of buf_ not yet consumed
  bool poisoned_ = false;
};

// --- canonical JSON emission ---------------------------------------------
// Member order is the caller's responsibility (docs/SERVER.md fixes it
// per message type).
using obs::json::json_int;
using obs::json::json_number;
using obs::json::json_quote;

/// The error envelope of docs/SERVER.md §3.2 for an already-rendered
/// request id (`"null"` when the request had none).
std::string error_response(const std::string& id, const char* code,
                           const std::string& message);

}  // namespace hetsched::server
