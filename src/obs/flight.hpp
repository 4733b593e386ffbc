// Flight recorder: a bounded, allocation-free ring of structured per-request
// records — the "what were the last N requests" black box a long-lived
// daemon can dump on demand (the server's `flight` wire op, or SIGUSR1
// on hetsched_advisord).
//
// Design:
//
//  * *Writers never allocate, and wait only when the ring laps.*
//    record() claims a sequence number with one fetch_add on the global
//    head, takes its slot's writer flag, then publishes the fields under
//    a per-slot version counter (odd while the write is in progress,
//    bumped to even when done) — a seqlock, except that every field is
//    itself a relaxed atomic, so concurrent read/write of a slot is
//    well-defined (and TSan-clean) rather than "benign" UB. The flag
//    means two writers never store into one slot at once; a second
//    writer of a slot exists only when the ring wrapped a full capacity
//    between one writer's claim and its store, and only then does a
//    writer wait. A writer that finds a newer record already in its
//    slot (it was lapped while delayed after its claim) drops its own,
//    so a slot never goes back to an older record.
//  * *Readers are optimistic.* dump() re-reads a slot until it observes
//    the same even version on both sides, and discards slots whose
//    sequence number no longer matches the one it asked for (the ring
//    wrapped mid-read). A dump taken under full write load is a
//    consistent set of whole records — never a torn one.
//  * *Records are fixed-size integers.* Strings (op and error-code
//    names) are stored as small enum indexes; the owner supplies the
//    name tables at serialization time. That keeps a record at 56 bytes
//    and the serialized form canonical (integers and table strings
//    only), so flight dumps are byte-testable.
//
// The ring itself is policy-free: `op`, `code` and `cache` are opaque
// small integers to it. server::Service defines the actual tables.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/thread_annotations.hpp"

namespace hetsched::obs::flight {

/// One answered request, as dump() returns it.
struct Record {
  std::uint64_t seq = 0;         ///< 0-based global request index
  std::uint64_t arrival_us = 0;  ///< µs since the owner's clock epoch
  std::uint64_t fingerprint = 0; ///< model fingerprint that answered it
  std::uint32_t wall_us = 0;     ///< service time, µs (saturating)
  std::int32_t n = 0;            ///< problem size, 0 when not applicable
  std::uint16_t op = 0;          ///< index into the owner's op table
  std::uint16_t code = 0;        ///< 0 = ok, else error-code table index
  std::uint16_t cache = 0;       ///< 0 = n/a, 1 = hit, 2 = miss
};

class Ring {
 public:
  /// Capacity is rounded up to a power of two (minimum 2) so slot
  /// selection is a mask, not a division.
  explicit Ring(std::size_t capacity = 4096);
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Appends one record, overwriting the oldest when full, unless the
  /// ring lapped this writer and its slot already holds a newer record
  /// (then this record is dropped). Waits only for another writer of the
  /// same slot; never allocates (asserted by the hot-path-alloc lint
  /// region in flight.cpp).
  void record(std::uint16_t op, std::uint16_t code, std::uint16_t cache,
              std::int32_t n, std::uint64_t fingerprint,
              std::uint64_t arrival_us, std::uint64_t wall_us) noexcept;

  std::size_t capacity() const noexcept { return slots_.size(); }
  /// Records ever written (not clamped to capacity).
  std::uint64_t total() const noexcept {
    HETSCHED_ATOMIC_DOC(acquire, "pairs with record()'s acq_rel fetch_add "
                                 "of head_");
    return head_.load(std::memory_order_acquire);
  }

  /// The newest min(max_records, capacity, total) records in
  /// chronological order. Slots overwritten or mid-write during the
  /// scan are skipped, so the result can be shorter than asked for
  /// under write load — but every returned record is whole.
  std::vector<Record> dump(std::size_t max_records) const;

 private:
  struct Slot {
    std::atomic_flag writing;  ///< held by the one writer storing here
    std::atomic<std::uint64_t> ver{0};  ///< even = stable, odd = writing
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> arrival_us{0};
    std::atomic<std::uint64_t> fingerprint{0};
    std::atomic<std::uint32_t> wall_us{0};
    std::atomic<std::int32_t> n{0};
    std::atomic<std::uint16_t> op{0};
    std::atomic<std::uint16_t> code{0};
    std::atomic<std::uint16_t> cache{0};
  };
  std::atomic<std::uint64_t> head_{0};
  std::vector<Slot> slots_;
};

/// Serializes the newest `max_records` as the versioned canonical JSON
/// document (single line, fixed member order, no whitespace):
///   {"schema":"hetsched.flight.v1","capacity":C,"total":T,
///    "records":[{"seq":S,"arrival_us":A,"wall_us":W,"op":"advise",
///                "n":N,"cache":"hit","fingerprint":"0x…","error":""},…]}
/// `op` and `code` indexes out of table range render as "?"; cache as
/// ""/"hit"/"miss"; `error` is "" for code 0.
std::string to_json(const Ring& ring, std::size_t max_records,
                    const std::vector<std::string>& op_names,
                    const std::vector<std::string>& code_names);

}  // namespace hetsched::obs::flight
