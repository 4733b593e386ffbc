#include "server/protocol.hpp"

#include "support/error.hpp"

namespace hetsched::server {

void append_frame(std::string& out, const std::string& payload) {
  HETSCHED_CHECK(payload.size() <= 0xffffffffull,
                 "frame payload exceeds the 32-bit length prefix");
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>(len & 0xff));
  out += payload;
}

std::string encode_frame(const std::string& payload) {
  std::string out;
  out.reserve(4 + payload.size());
  append_frame(out, payload);
  return out;
}

FrameReader::Status FrameReader::next(std::string& payload) {
  if (poisoned_) return Status::kOversized;
  if (buffered() < 4) return Status::kNeedMore;
  const auto* b = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  const std::uint32_t len = (std::uint32_t(b[0]) << 24) |
                            (std::uint32_t(b[1]) << 16) |
                            (std::uint32_t(b[2]) << 8) | std::uint32_t(b[3]);
  if (len > max_payload_) {
    poisoned_ = true;
    return Status::kOversized;
  }
  if (buffered() < 4 + std::size_t(len)) return Status::kNeedMore;
  payload.assign(buf_, pos_ + 4, len);
  pos_ += 4 + std::size_t(len);
  if (pos_ == buf_.size()) {  // drained: nothing left to move on feed
    buf_.clear();
    pos_ = 0;
  }
  return Status::kFrame;
}

std::string error_response(const std::string& id, const char* code,
                           const std::string& message) {
  std::string out;
  out += "{\"hsp\":1,\"id\":";
  out += id;
  out += ",\"ok\":false,\"error\":{\"code\":";
  out += json_quote(code);
  out += ",\"message\":";
  out += json_quote(message);
  out += "}}";
  return out;
}

}  // namespace hetsched::server
