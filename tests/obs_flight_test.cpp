// obs::flight::Ring: capacity rounding, wrap-around, dump semantics
// under concurrency, and the byte-exact hetsched.flight.v1 JSON form
// the server's `flight` op and hetsched_advisord's SIGUSR1 dumps emit.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace hetsched::obs::flight {
namespace {

void record_simple(Ring& ring, std::uint64_t i) {
  ring.record(/*op=*/3, /*code=*/0, /*cache=*/1, /*n=*/static_cast<int>(i),
              /*fingerprint=*/0xabcd, /*arrival_us=*/i * 10,
              /*wall_us=*/i);
}

TEST(FlightRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Ring(0).capacity(), 2u);
  EXPECT_EQ(Ring(1).capacity(), 2u);
  EXPECT_EQ(Ring(2).capacity(), 2u);
  EXPECT_EQ(Ring(3).capacity(), 4u);
  EXPECT_EQ(Ring(4096).capacity(), 4096u);
  EXPECT_EQ(Ring(4097).capacity(), 8192u);
}

TEST(FlightRing, DumpReturnsNewestInChronologicalOrder) {
  Ring ring(4);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_TRUE(ring.dump(10).empty());

  for (std::uint64_t i = 0; i < 3; ++i) record_simple(ring, i);
  EXPECT_EQ(ring.total(), 3u);

  // Fewer records than asked for: all of them, oldest first.
  std::vector<Record> got = ring.dump(10);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].seq, 0u);
  EXPECT_EQ(got[2].seq, 2u);
  EXPECT_EQ(got[2].arrival_us, 20u);
  EXPECT_EQ(got[2].n, 2);

  // max_records truncates from the old end, not the new one.
  got = ring.dump(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].seq, 1u);
  EXPECT_EQ(got[1].seq, 2u);
}

TEST(FlightRing, WrapAroundKeepsOnlyTheNewestCapacityRecords) {
  Ring ring(4);
  for (std::uint64_t i = 0; i < 11; ++i) record_simple(ring, i);
  EXPECT_EQ(ring.total(), 11u);  // total is not clamped to capacity
  const std::vector<Record> got = ring.dump(100);
  ASSERT_EQ(got.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].seq, 7u + i);
    EXPECT_EQ(got[i].arrival_us, (7u + i) * 10);
  }
}

TEST(FlightRing, WallTimeSaturatesAtU32Max) {
  Ring ring(2);
  ring.record(0, 0, 0, 0, 0, 0, /*wall_us=*/0x1'0000'0005ull);
  const std::vector<Record> got = ring.dump(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].wall_us, 0xffffffffu);
}

TEST(FlightRing, ToJsonRendersTablesAndFallbacks) {
  Ring ring(4);
  const std::vector<std::string> ops = {"?", "ping", "advise"};
  const std::vector<std::string> codes = {"", "bad-json", "uncovered"};
  // ok advise with a cache hit, an error with cache miss, and a record
  // whose op/code indexes fall outside both tables.
  ring.record(2, 0, 1, 1500, 0x00ff, 11, 250);
  ring.record(1, 2, 2, 0, 0x00ff, 23, 40);
  ring.record(9, 9, 0, -1, 0, 35, 1);
  EXPECT_EQ(
      to_json(ring, 8, ops, codes),
      "{\"schema\":\"hetsched.flight.v1\",\"capacity\":4,\"total\":3,"
      "\"records\":["
      "{\"seq\":0,\"arrival_us\":11,\"wall_us\":250,\"op\":\"advise\","
      "\"n\":1500,\"cache\":\"hit\","
      "\"fingerprint\":\"0x00000000000000ff\",\"error\":\"\"},"
      "{\"seq\":1,\"arrival_us\":23,\"wall_us\":40,\"op\":\"ping\","
      "\"n\":0,\"cache\":\"miss\","
      "\"fingerprint\":\"0x00000000000000ff\",\"error\":\"uncovered\"},"
      "{\"seq\":2,\"arrival_us\":35,\"wall_us\":1,\"op\":\"?\",\"n\":-1,"
      "\"cache\":\"\",\"fingerprint\":\"0x0000000000000000\","
      "\"error\":\"?\"}]}");
}

TEST(FlightRing, ToJsonEscapesArbitraryTableNames) {
  Ring ring(2);
  ring.record(1, 1, 0, 0, 0, 0, 0);
  const json::Value doc = json::parse(
      to_json(ring, 2, {"?", "line\nbreak"}, {"", "quote\"d\\"}));
  const json::Value& rec = doc.find("records")->as_array().at(0);
  EXPECT_EQ(rec.find("op")->as_string(), "line\nbreak");
  EXPECT_EQ(rec.find("error")->as_string(), "quote\"d\\");
}

TEST(FlightRing, ConcurrentWritersLoseNothing) {
  Ring ring(1024);
  constexpr int kThreads = 8, kPerThread = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i)
        ring.record(1, 0, 0, t, 0, static_cast<std::uint64_t>(i), 1);
    });
  for (auto& w : writers) w.join();
  EXPECT_EQ(ring.total(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // After the dust settles every slot is stable: a full dump returns
  // exactly capacity records with contiguous trailing sequence numbers.
  const std::vector<Record> got = ring.dump(ring.capacity());
  ASSERT_EQ(got.size(), ring.capacity());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].seq, ring.total() - ring.capacity() + i);
}

TEST(FlightRing, LappedWriterNeverReplacesANewerRecord) {
  // Oversubscribed writers hammer a two-slot ring, so the ring laps on
  // almost every record and a writer delayed between claiming its
  // sequence number and storing its record often finds that a writer a
  // full ring later has already stored into its slot. That stale writer
  // must drop its record. Each round stops every writer at once; after
  // they are idle, a full dump must hold the two newest records. A stale
  // store left in a slot shows up as a missing sequence number.
  const int threads =
      4 * static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  constexpr int kRounds = 200;
  Ring ring(2);
  std::atomic<int> round{0};
  std::atomic<bool> stop{false};
  std::atomic<int> idle{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < threads; ++t)
    writers.emplace_back([&] {
      for (int r = 1; r <= kRounds; ++r) {
        while (round.load(std::memory_order_acquire) < r)
          std::this_thread::yield();
        while (!stop.load(std::memory_order_acquire)) record_simple(ring, 1);
        idle.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  int stale_rounds = 0;
  for (int r = 1; r <= kRounds; ++r) {
    stop.store(false, std::memory_order_release);
    round.store(r, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    stop.store(true, std::memory_order_release);
    while (idle.load(std::memory_order_acquire) < r * threads)
      std::this_thread::yield();
    // Under load a round can end before any writer ran, so the first
    // rounds may leave fewer than two records in all.
    const std::uint64_t total = ring.total();
    const std::vector<Record> got = ring.dump(ring.capacity());
    bool newest = got.size() == std::min<std::uint64_t>(total, 2);
    for (std::size_t i = 0; newest && i < got.size(); ++i)
      newest = got[i].seq == total - got.size() + i;
    if (!newest) ++stale_rounds;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(stale_rounds, 0) << "of " << kRounds << " rounds";
}

TEST(FlightRing, DumpUnderWriteLoadReturnsOnlyWholeRecords) {
  // Writers stamp every field of a record with the same value; a torn
  // read would surface as a record whose fields disagree. dump() may
  // legitimately return fewer records than capacity (slots mid-write or
  // lapped are dropped), but never a frankenstein one.
  Ring ring(16);  // small ring → constant wrapping → maximum contention
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&ring, &stop] {
      for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i)
        ring.record(static_cast<std::uint16_t>(i & 0x7fff),
                    static_cast<std::uint16_t>(i & 0x7fff),
                    static_cast<std::uint16_t>(i & 0x7fff),
                    static_cast<std::int32_t>(i & 0x7fffffff), i, i, i);
    });
  for (int round = 0; round < 200; ++round) {
    const std::vector<Record> got = ring.dump(ring.capacity());
    for (const Record& r : got) {
      EXPECT_EQ(r.fingerprint, r.arrival_us);
      EXPECT_EQ(r.op, static_cast<std::uint16_t>(r.fingerprint & 0x7fff));
      EXPECT_EQ(r.code, r.op);
      EXPECT_EQ(r.cache, r.op);
      EXPECT_EQ(static_cast<std::uint64_t>(r.n),
                r.fingerprint & 0x7fffffff);
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

}  // namespace
}  // namespace hetsched::obs::flight
