#include "obs/trace.hpp"

#include <chrono>
#include <ostream>

#include "obs/json.hpp"

namespace hetsched::obs {

namespace {

std::chrono::steady_clock::time_point process_t0() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

// Touch the epoch at static-init time so now_us() is monotone from
// early in the process even if the first span fires late.
[[maybe_unused]] const auto t0_anchor = process_t0();

using json::json_quote;

/// Appends `"key":token` to an ArgList fragment.
void append_arg(std::string& out, const char* key, const std::string& token) {
  if (!out.empty()) out += ',';
  out += json_quote(key);
  out += ':';
  out += token;
}

}  // namespace

double now_us() noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - process_t0())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // never destroyed
  return *tracer;
}

Tracer::ThreadBuf& Tracer::local_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (!buf) {
    auto owned = std::make_unique<ThreadBuf>();
    buf = owned.get();
    std::lock_guard<std::mutex> l(bufs_mu_);
    buf->tid = next_tid_++;
    bufs_.push_back(std::move(owned));
  }
  return *buf;
}

void Tracer::emit(TraceEvent ev) {
  if (!enabled()) return;
  ThreadBuf& buf = local_buf();
  std::lock_guard<std::mutex> l(buf.mu);  // uncontended: owner-thread writes
  buf.events.push_back(std::move(ev));
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> l(bufs_mu_);
  std::size_t total = 0;
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> lb(b->mu);
    total += b->events.size();
  }
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> l(bufs_mu_);
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> lb(b->mu);
    b->events.clear();
  }
}

void Tracer::write_json(std::ostream& os) const {
  const auto precision = os.precision(3);
  os.setf(std::ios::fixed, std::ios::floatfield);
  os << "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> l(bufs_mu_);
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> lb(b->mu);
    if (b->events.empty()) continue;
    // Name the track so Perfetto shows a stable label per thread.
    os << (first ? "" : ",\n")
       << R"({"ph":"M","pid":1,"tid":)" << b->tid
       << R"(,"name":"thread_name","args":{"name":"thread-)" << b->tid
       << "\"}}";
    first = false;
    for (const TraceEvent& ev : b->events) {
      os << ",\n{\"ph\":\"" << ev.phase << "\",\"pid\":1,\"tid\":" << b->tid
         << ",\"ts\":" << ev.ts_us;
      if (ev.phase == 'X') os << ",\"dur\":" << ev.dur_us;
      if (ev.phase == 'b' || ev.phase == 'e') os << ",\"id\":" << ev.id;
      if (ev.phase == 'i') os << ",\"s\":\"t\"";
      os << ",\"cat\":" << json_quote(ev.cat)
         << ",\"name\":" << json_quote(ev.name);
      if (!ev.args_json.empty()) os << ",\"args\":{" << ev.args_json << '}';
      os << '}';
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  os.unsetf(std::ios::floatfield);
  os.precision(precision);
}

// -- ArgList ----------------------------------------------------------------

ArgList& ArgList::add(const char* key, const std::string& value) {
  return add(key, value.c_str());
}

ArgList& ArgList::add(const char* key, const char* value) {
  append_arg(json_, key, json_quote(value));
  return *this;
}

ArgList& ArgList::add(const char* key, double value) {
  append_arg(json_, key, json::json_number_or_null(value));
  return *this;
}

ArgList& ArgList::add(const char* key, long long value) {
  append_arg(json_, key, json::json_int(value));
  return *this;
}

// -- Span / AsyncSpan / instant --------------------------------------------

void Span::begin(const char* cat, const char* name) {
  active_ = true;
  cat_ = cat;
  name_ = name;
  t0_ = now_us();
}

void Span::end() {
  TraceEvent ev;
  ev.ts_us = t0_;
  ev.dur_us = now_us() - t0_;
  ev.cat = cat_;
  ev.name = name_;
  ev.phase = 'X';
  ev.args_json = args_.take();
  Tracer::instance().emit(std::move(ev));
}

AsyncSpan::AsyncSpan(const char* cat, const char* name) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  cat_ = cat;
  name_ = name;
  id_ = tracer.next_async_id();
  TraceEvent ev;
  ev.ts_us = now_us();
  ev.cat = cat_;
  ev.name = name_;
  ev.phase = 'b';
  ev.id = id_;
  tracer.emit(std::move(ev));
}

AsyncSpan::~AsyncSpan() {
  if (!active_) return;
  TraceEvent ev;
  ev.ts_us = now_us();
  ev.cat = cat_;
  ev.name = name_;
  ev.phase = 'e';
  ev.id = id_;
  ev.args_json = args_.take();
  Tracer::instance().emit(std::move(ev));
}

void instant(const char* cat, const char* name) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  TraceEvent ev;
  ev.ts_us = now_us();
  ev.cat = cat;
  ev.name = name;
  ev.phase = 'i';
  tracer.emit(std::move(ev));
}

}  // namespace hetsched::obs
