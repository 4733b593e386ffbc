#include "obs/flight.hpp"

#include <algorithm>
#include <thread>

#include "obs/json.hpp"
#include "support/thread_annotations.hpp"

namespace hetsched::obs::flight {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

Ring::Ring(std::size_t capacity) : slots_(round_up_pow2(capacity)) {}

// hetsched-lint: hot-path-begin — runs on every answered request
void Ring::record(std::uint16_t op, std::uint16_t code, std::uint16_t cache,
                  std::int32_t n, std::uint64_t fingerprint,
                  std::uint64_t arrival_us, std::uint64_t wall_us) noexcept {
  HETSCHED_ATOMIC_DOC(acq_rel, "claims a unique slot index; pairs with the "
                               "acquire load of head_ in dump()/total()");
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_acq_rel);
  Slot& s = slots_[seq & (slots_.size() - 1)];
  // One writer stores into a slot at a time. A second writer of the same
  // slot exists only when the ring wrapped a full capacity between one
  // writer's claim and its store; it waits for the first to finish.
  HETSCHED_ATOMIC_DOC(acquire, "writer exclusion: pairs with the previous "
                               "writer's release clear() below, so its "
                               "ver/seq stores are visible here");
  while (s.writing.test_and_set(std::memory_order_acquire))
    std::this_thread::yield();
  // A writer a full ring later already stored its newer record here while
  // this one was delayed after its claim: keep the newer record.
  if (s.ver.load(std::memory_order_relaxed) != 0 &&
      s.seq.load(std::memory_order_relaxed) > seq) {
    HETSCHED_ATOMIC_DOC(release, "writer exclusion: hands the slot to the "
                                 "next writer's acquire test_and_set()");
    s.writing.clear(std::memory_order_release);
    return;
  }
  HETSCHED_ATOMIC_DOC(acq_rel, "seqlock open: makes the version odd before "
                               "any payload store; pairs with dump()'s v1 "
                               "acquire load");
  s.ver.fetch_add(1, std::memory_order_acq_rel);
  s.seq.store(seq, std::memory_order_relaxed);
  s.arrival_us.store(arrival_us, std::memory_order_relaxed);
  s.fingerprint.store(fingerprint, std::memory_order_relaxed);
  s.wall_us.store(wall_us > 0xffffffffull
                      ? 0xffffffffu
                      : static_cast<std::uint32_t>(wall_us),
                  std::memory_order_relaxed);
  s.n.store(n, std::memory_order_relaxed);
  s.op.store(op, std::memory_order_relaxed);
  s.code.store(code, std::memory_order_relaxed);
  s.cache.store(cache, std::memory_order_relaxed);
  HETSCHED_ATOMIC_DOC(release, "seqlock close: publishes the payload stores "
                               "above; pairs with dump()'s v2 acquire load");
  s.ver.fetch_add(1, std::memory_order_release);
  HETSCHED_ATOMIC_DOC(release, "writer exclusion: hands the slot to the "
                               "next writer's acquire test_and_set()");
  s.writing.clear(std::memory_order_release);
}
// hetsched-lint: hot-path-end

std::vector<Record> Ring::dump(std::size_t max_records) const {
  HETSCHED_ATOMIC_DOC(acquire, "pairs with record()'s acq_rel fetch_add of "
                               "head_: slots below `total` were claimed");
  const std::uint64_t total = head_.load(std::memory_order_acquire);
  const std::uint64_t avail =
      std::min<std::uint64_t>(total, slots_.size());
  const std::uint64_t want = std::min<std::uint64_t>(max_records, avail);
  std::vector<Record> out;
  out.reserve(want);
  for (std::uint64_t g = total - want; g < total; ++g) {
    const Slot& s = slots_[g & (slots_.size() - 1)];
    Record rec;
    bool ok = false;
    for (int attempt = 0; attempt < 8 && !ok; ++attempt) {
      HETSCHED_ATOMIC_DOC(acquire, "seqlock read open: pairs with record()'s "
                                   "acq_rel opening bump; payload loads "
                                   "below cannot hoist above it");
      const std::uint64_t v1 = s.ver.load(std::memory_order_acquire);
      if (v1 & 1) continue;  // mid-write; retry
      rec.seq = s.seq.load(std::memory_order_relaxed);
      rec.arrival_us = s.arrival_us.load(std::memory_order_relaxed);
      rec.fingerprint = s.fingerprint.load(std::memory_order_relaxed);
      rec.wall_us = s.wall_us.load(std::memory_order_relaxed);
      rec.n = s.n.load(std::memory_order_relaxed);
      rec.op = s.op.load(std::memory_order_relaxed);
      rec.code = s.code.load(std::memory_order_relaxed);
      rec.cache = s.cache.load(std::memory_order_relaxed);
      HETSCHED_ATOMIC_DOC(acquire, "seqlock read close: pairs with "
                                   "record()'s release closing bump; "
                                   "v1 == v2 proves the payload was stable");
      const std::uint64_t v2 = s.ver.load(std::memory_order_acquire);
      ok = v1 == v2;
    }
    // A slot that never stabilized, or whose seq moved on (the ring
    // wrapped past g while we were scanning), is dropped whole.
    if (ok && rec.seq == g) out.push_back(rec);
  }
  return out;
}

namespace {

const std::string& table_name(const std::vector<std::string>& table,
                              std::uint16_t index) {
  static const std::string unknown = "?";
  return index < table.size() ? table[index] : unknown;
}

}  // namespace

std::string to_json(const Ring& ring, std::size_t max_records,
                    const std::vector<std::string>& op_names,
                    const std::vector<std::string>& code_names) {
  const std::vector<Record> records = ring.dump(max_records);
  std::string out = "{\"schema\":\"hetsched.flight.v1\",\"capacity\":";
  out += std::to_string(ring.capacity());
  out += ",\"total\":";
  out += std::to_string(ring.total());
  out += ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    if (i) out += ',';
    out += "{\"seq\":";
    out += std::to_string(r.seq);
    out += ",\"arrival_us\":";
    out += std::to_string(r.arrival_us);
    out += ",\"wall_us\":";
    out += std::to_string(r.wall_us);
    out += ",\"op\":";
    out += json::json_quote(table_name(op_names, r.op));
    out += ",\"n\":";
    out += std::to_string(r.n);
    out += ",\"cache\":";
    out += r.cache == 1 ? "\"hit\"" : r.cache == 2 ? "\"miss\"" : "\"\"";
    out += ",\"fingerprint\":";
    out += json::json_quote(json::hex_fingerprint(r.fingerprint));
    out += ",\"error\":";
    if (r.code == 0)
      out += "\"\"";
    else
      out += json::json_quote(table_name(code_names, r.code));
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace hetsched::obs::flight
