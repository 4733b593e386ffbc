// Wire-level contract of the hsp/1 protocol (docs/SERVER.md §2-3):
// framing round-trips under arbitrary segmentation, oversized frames
// poison the stream, the canonical JSON helpers produce the exact bytes
// the spec promises, and a real socket server enforces all of it end to
// end — including rejecting malformed payloads without dropping the
// connection, closing it on an oversized frame, surviving clients that
// hang up unread and accepting again after descriptors ran out.
#include "server/protocol.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/net.hpp"
#include "server/service.hpp"
#include "server_test_util.hpp"
#include "support/error.hpp"

namespace hetsched::server {
namespace {

TEST(Framing, EncodePrefixesBigEndianLength) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), 0);
  EXPECT_EQ(static_cast<unsigned char>(frame[1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(frame[2]), 0);
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 3);
  EXPECT_EQ(frame.substr(4), "abc");
}

TEST(Framing, RoundTripsUnderByteWiseFeeding) {
  const std::vector<std::string> payloads = {"", "x", std::string(1000, 'q'),
                                             "{\"hsp\":1}"};
  std::string wire;
  for (const auto& p : payloads) wire += encode_frame(p);

  FrameReader reader(kDefaultMaxPayload);
  std::vector<std::string> got;
  for (const char c : wire) {
    reader.feed(&c, 1);
    std::string payload;
    while (reader.next(payload) == FrameReader::Status::kFrame)
      got.push_back(payload);
  }
  EXPECT_EQ(got, payloads);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Framing, DrainsMultipleFramesFromOneFeed) {
  FrameReader reader(kDefaultMaxPayload);
  const std::string wire =
      encode_frame("one") + encode_frame("two") + encode_frame("three");
  reader.feed(wire.data(), wire.size());
  std::string payload;
  std::vector<std::string> got;
  while (reader.next(payload) == FrameReader::Status::kFrame)
    got.push_back(payload);
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(Framing, OversizedFramePoisonsTheReader) {
  FrameReader reader(/*max_payload=*/16);
  const std::string big = encode_frame(std::string(17, 'z'));
  reader.feed(big.data(), big.size());
  std::string payload;
  EXPECT_EQ(reader.next(payload), FrameReader::Status::kOversized);
  // Even well-formed bytes after the oversized header stay rejected:
  // the length prefix can no longer be trusted.
  const std::string ok = encode_frame("ok");
  reader.feed(ok.data(), ok.size());
  EXPECT_EQ(reader.next(payload), FrameReader::Status::kOversized);
}

TEST(Framing, NeedMoreUntilLengthAndBodyComplete) {
  FrameReader reader(kDefaultMaxPayload);
  std::string payload;
  EXPECT_EQ(reader.next(payload), FrameReader::Status::kNeedMore);
  const std::string frame = encode_frame("hello");
  reader.feed(frame.data(), 2);
  EXPECT_EQ(reader.next(payload), FrameReader::Status::kNeedMore);
  reader.feed(frame.data() + 2, 4);
  EXPECT_EQ(reader.next(payload), FrameReader::Status::kNeedMore);
  reader.feed(frame.data() + 6, frame.size() - 6);
  EXPECT_EQ(reader.next(payload), FrameReader::Status::kFrame);
  EXPECT_EQ(payload, "hello");
}

TEST(CanonicalJson, QuoteEscapesExactlyWhatTheSpecSays) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(CanonicalJson, NumbersAreShortestRoundTrip) {
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-2.5), "-2.5");
  EXPECT_EQ(json_number(102.75), "102.75");
  EXPECT_EQ(json_int(42), "42");
  EXPECT_EQ(json_int(-7), "-7");
}

TEST(CanonicalJson, EncoderRoundTripsThroughTheParser) {
  const std::vector<std::string> strings = {
      "plain", "a\"b", "a\\b", "a\nb\tc\rd", std::string(1, '\x01'),
      std::string("nul\0byte", 8)};
  for (const std::string& s : strings)
    EXPECT_EQ(obs::json::parse(json_quote(s)).as_string(), s) << json_quote(s);
  const std::vector<double> numbers = {0.1,    1.0 / 3.0, 5e-324,
                                       1e300,  -0.0,      9007199254740992.0};
  for (const double v : numbers) {
    const double back = obs::json::parse(json_number(v)).as_number();
    EXPECT_EQ(back, v) << json_number(v);
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << json_number(v);
  }
}

TEST(CanonicalJson, ParsedNumbersAreBitIdenticalToStrtod) {
  // Literals past the double range parse to what strtod gives: ±inf on
  // overflow, ±0 on underflow.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto parsed = [&](const char* text) {
    return bits(obs::json::parse(text).as_number());
  };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parsed("1e999"), bits(inf));
  EXPECT_EQ(parsed("-1e999"), bits(-inf));
  EXPECT_EQ(parsed("1e-400"), bits(0.0));
  EXPECT_EQ(parsed("-1e-400"), bits(-0.0));
  EXPECT_EQ(parsed("5e-324"), bits(std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(parsed("-0"), bits(-0.0));
  for (const char* text :
       {"1e999", "-1e999", "1e-400", "-1e-400", "5e-324", "-0", "0", "0.1",
        "2.2250738585072011e-308", "2.4703282292062328e-324",
        "1.7976931348623157e308", "1.7976931348623159e308", "-2.5e2",
        "123456789012345678901234567890", "0.30000000000000004"})
    EXPECT_EQ(parsed(text), bits(std::strtod(text, nullptr))) << text;
}

TEST(CanonicalJson, NonFiniteNumbersAreRefused) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(json_number(inf), obs::json::TypeError);
  EXPECT_THROW(json_number(-inf), obs::json::TypeError);
  EXPECT_THROW(json_number(nan), obs::json::TypeError);
  EXPECT_EQ(obs::json::json_number_or_null(nan), "null");
  EXPECT_EQ(obs::json::json_number_or_null(0.5), "0.5");
}

class SocketFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<Service>(testutil::reference_snapshot());
    ServerOptions opts = listener();
    opts.max_payload = 4096;
    server_ = std::make_unique<Server>(*service_, opts);
    server_->start();
    address_ = opts.unix_path.empty()
                   ? "127.0.0.1:" + std::to_string(server_->tcp_port())
                   : "unix:" + opts.unix_path;
  }
  void TearDown() override { server_->stop(); }

  virtual ServerOptions listener() const {
    ServerOptions opts;
    opts.tcp_port = 0;  // ephemeral
    return opts;
  }

  std::unique_ptr<Service> service_;
  std::unique_ptr<Server> server_;
  std::string address_;
};

// The same server on a Unix socket. A write to a Unix peer that has
// closed fails at once (TCP takes the first write and resets later),
// so the hang-up cases below are deterministic here.
class UnixSocketFixture : public SocketFixture {
 protected:
  ServerOptions listener() const override {
    ServerOptions opts;
    opts.unix_path =
        ::testing::TempDir() + "hsp_" + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".sock";
    return opts;
  }
};

const char* const kPing = "{\"hsp\":1,\"id\":1,\"op\":\"ping\"}";
const char* const kPong = "{\"hsp\":1,\"id\":1,\"ok\":true,\"result\":{}}";

// Lowers this process's soft RLIMIT_NOFILE while it lives.
class NoFileLimit {
 public:
  explicit NoFileLimit(rlim_t soft) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~NoFileLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  NoFileLimit(const NoFileLimit&) = delete;
  NoFileLimit& operator=(const NoFileLimit&) = delete;

 private:
  rlimit saved_{};
};

TEST_F(SocketFixture, PingRoundTrip) {
  Client client(address_);
  EXPECT_EQ(client.roundtrip("{\"hsp\":1,\"id\":1,\"op\":\"ping\"}"),
            "{\"hsp\":1,\"id\":1,\"ok\":true,\"result\":{}}");
}

TEST_F(SocketFixture, MalformedJsonGetsErrorButConnectionSurvives) {
  Client client(address_);
  const std::string resp = client.roundtrip("this is not json");
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(resp.find("\"code\":\"bad-json\""), std::string::npos);
  // Same connection still answers.
  EXPECT_EQ(client.roundtrip("{\"hsp\":1,\"id\":2,\"op\":\"ping\"}"),
            "{\"hsp\":1,\"id\":2,\"ok\":true,\"result\":{}}");
}

TEST_F(SocketFixture, PipelinedBatchKeepsOrder) {
  Client client(address_);
  std::vector<std::string> reqs;
  for (int i = 0; i < 32; ++i)
    reqs.push_back("{\"hsp\":1,\"id\":" + std::to_string(i) +
                   ",\"op\":\"ping\"}");
  const std::vector<std::string> resps = client.roundtrip_batch(reqs);
  ASSERT_EQ(resps.size(), reqs.size());
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(resps[static_cast<std::size_t>(i)],
              "{\"hsp\":1,\"id\":" + std::to_string(i) +
                  ",\"ok\":true,\"result\":{}}");

  // Estimates between pings: uncached on the first pass, answered from
  // the cache on the second. Each answer is the one a fresh service
  // gives the request alone.
  Service reference(testutil::reference_snapshot());
  for (int pass = 0; pass < 2; ++pass) {
    reqs.clear();
    for (int i = 0; i < 16; ++i) {
      const std::string id = std::to_string(100 * pass + i);
      reqs.push_back("{\"hsp\":1,\"id\":" + id +
                     ",\"op\":\"estimate\",\"n\":" +
                     std::to_string(1000 + 100 * i) +
                     ",\"config\":[[\"alpha\",2,1],[\"beta\",1,2]]}");
      if (i % 4 == 3)
        reqs.push_back("{\"hsp\":1,\"id\":\"p" + id + "\",\"op\":\"ping\"}");
    }
    const std::vector<std::string> got = client.roundtrip_batch(reqs);
    ASSERT_EQ(got.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
      EXPECT_EQ(got[i], reference.handle_payload(reqs[i])) << reqs[i];
  }
  EXPECT_EQ(service_->counters().cache_hits, 16u);
  EXPECT_EQ(service_->counters().cache_misses, 16u);

  // A batch whose answers pass the server's 1 MiB gather buffer goes
  // out in several writes, still in order.
  const std::size_t one =
      client.roundtrip("{\"hsp\":1,\"id\":0,\"op\":\"metrics\"}").size();
  reqs.clear();
  for (std::size_t i = 0; i < 2 * (std::size_t{1} << 20) / one + 2; ++i)
    reqs.push_back("{\"hsp\":1,\"id\":" + std::to_string(i) +
                   ",\"op\":\"metrics\"}");
  const std::vector<std::string> big = client.roundtrip_batch(reqs);
  ASSERT_EQ(big.size(), reqs.size());
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    EXPECT_EQ(big[i].rfind("{\"hsp\":1,\"id\":" + std::to_string(i) +
                               ",\"ok\":true,",
                           0),
              0u)
        << big[i].substr(0, 80);
    bytes += big[i].size();
  }
  EXPECT_GT(bytes, std::size_t{1} << 20);
}

TEST_F(SocketFixture, OversizedFrameAnsweredThenConnectionCloses) {
  Client client(address_);
  // 4 KiB limit on the server; send a 5 KiB frame.
  client.send_bytes(encode_frame(std::string(5000, 'x')));
  EXPECT_EQ(client.read_frame(),
            "{\"hsp\":1,\"id\":null,\"ok\":false,\"error\":"
            "{\"code\":\"oversized-frame\",\"message\":"
            "\"frame exceeds the server payload limit\"}}");
  // The stream is unrecoverable; the server closes it.
  EXPECT_THROW(
      {
        client.send_bytes(encode_frame("{\"hsp\":1,\"op\":\"ping\"}"));
        (void)client.read_frame();
      },
      Error);
}

TEST_F(UnixSocketFixture, FramesBeforeAnOversizedOneAreAnsweredFirst) {
  // One write: eight pings, then a frame over the 4 KiB limit.
  Client client(address_);
  std::string bytes;
  for (int i = 0; i < 8; ++i)
    bytes += encode_frame("{\"hsp\":1,\"id\":" + std::to_string(i) +
                          ",\"op\":\"ping\"}");
  bytes += encode_frame(std::string(5000, 'x'));
  client.send_bytes(bytes);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(client.read_frame(), "{\"hsp\":1,\"id\":" + std::to_string(i) +
                                       ",\"ok\":true,\"result\":{}}");
  EXPECT_EQ(client.read_frame(),
            "{\"hsp\":1,\"id\":null,\"ok\":false,\"error\":"
            "{\"code\":\"oversized-frame\",\"message\":"
            "\"frame exceeds the server payload limit\"}}");
  EXPECT_THROW((void)client.read_frame(), Error);  // end of stream
}

TEST_F(UnixSocketFixture, SendAfterTheServerClosedThrows) {
  Client client(address_);
  client.send_bytes(encode_frame(std::string(5000, 'x')));
  EXPECT_NE(client.read_frame().find("\"code\":\"oversized-frame\""),
            std::string::npos);
  // End of stream: the server has closed its end.
  EXPECT_THROW((void)client.read_frame(), Error);
  // Without MSG_NOSIGNAL this send raises SIGPIPE and ends the process.
  EXPECT_THROW(client.send_bytes(encode_frame(kPing)), Error);
}

TEST_F(UnixSocketFixture, ClientsThatHangUpUnreadDoNotKillTheServer) {
  std::string burst;
  for (int i = 0; i < 32; ++i)
    burst += encode_frame("{\"hsp\":1,\"id\":" + std::to_string(i) +
                          ",\"op\":\"ping\"}");
  // Each connection pipelines a batch and closes without reading, so
  // the server answers a closed peer. Without MSG_NOSIGNAL the first
  // such write raises SIGPIPE and ends the process.
  for (int c = 0; c < 20; ++c) Client(address_).send_bytes(burst);
  Client fresh(address_);
  // Once only this connection is open, every hung-up one has been
  // served and closed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string health;
  do {
    health = fresh.roundtrip("{\"hsp\":1,\"op\":\"health\"}");
  } while (health.find("\"open_connections\":1,") == std::string::npos &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_NE(health.find("\"open_connections\":1,"), std::string::npos)
      << health;
  EXPECT_EQ(fresh.roundtrip(kPing), kPong);
}

TEST_F(UnixSocketFixture, AcceptResumesAfterDescriptorsRanOut) {
  const std::uint64_t before = server_->connections_accepted();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = address_.substr(5);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // Made while descriptors remain, connected once none do. accept()
  // takes its descriptor before it waits, so a thread already waiting
  // may still accept this connection; its next call meets EMFILE
  // either way.
  const int pending = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(pending, 0);
  {
    const NoFileLimit limit(static_cast<rlim_t>(pending) + 32);
    std::vector<int> filler;
    for (int fd; (fd = ::socket(AF_UNIX, SOCK_STREAM, 0)) >= 0;)
      filler.push_back(fd);
    EXPECT_EQ(errno, EMFILE);
    EXPECT_EQ(::connect(pending, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (const int fd : filler) ::close(fd);
  }
  // Descriptors are free again: the pending connection and a new one
  // must both be accepted. An accept loop that returns on EMFILE
  // accepts neither (or only the one its waiting call had room for).
  Client fresh(address_);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server_->connections_accepted() < before + 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::uint64_t accepted = server_->connections_accepted();
  ::close(pending);
  ASSERT_EQ(accepted, before + 2);
  EXPECT_EQ(fresh.roundtrip(kPing), kPong);
}

TEST_F(SocketFixture, UnixAndTcpListenersCoexist) {
  // Covered implicitly by the daemon smoke test; here just assert the
  // accept counter moves per connection.
  const std::uint64_t before = server_->connections_accepted();
  Client a(address_);
  (void)a.roundtrip("{\"hsp\":1,\"op\":\"ping\"}");
  Client b(address_);
  (void)b.roundtrip("{\"hsp\":1,\"op\":\"ping\"}");
  EXPECT_EQ(server_->connections_accepted(), before + 2);
}

}  // namespace
}  // namespace hetsched::server
