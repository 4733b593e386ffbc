// perfbench_load — the advisor benchmark's load generator.
//
//   perfbench_load --workload=paper-hot|large-cold|refit-churn --seed=N
//                  --seconds=S --trace=0|1 --bin-dir=DIR [--corrupt]
//
// Starts the advisor as a separate process (hetsched_advisord, or
// perfbench_host for large-cold) several times to time its set-up,
// keeps the last one, and drives the workload's two closed-loop
// connections over a Unix socket for S seconds. Every answer is checked
// against the core oracle (outside the timed window); answer quality is
// scored against the simulator after the load. With --trace=0 the last
// stdout line carries the end-to-end metrics, with --trace=1 the
// per-layer metrics: those read from the server's own stats/metrics ops
// during this run plus those of a traced in-process replay (traced.cpp).
// --corrupt perturbs one expected answer, so the run must report a
// failure; the self-test uses it to show the checker can fail.
//
// Run it through run.py, which builds it and stamps the provenance.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <latch>
#include <map>
#include <sstream>
#include <string_view>
#include <thread>

#include "core/optimizer.hpp"
#include "load.hpp"
#include "measure/runner.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"

extern char** environ;

using namespace perfbench;
namespace json = hetsched::obs::json;
using Clock = std::chrono::steady_clock;

namespace {

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Sidecar scrape (health + metrics) every this many paper-hot requests.
constexpr std::uint64_t kScrapeEvery = 4096;
constexpr std::size_t kBurst = 16;
/// Slices the window is cut into for its statistics: refit-churn's
/// writer rounds take two each.
constexpr int kSlices = kWriterRounds / 2;
/// The closed loops run this long before the timed window opens: for
/// about the first second the loops run a quarter slower and their p99
/// is twice the later one's, on a server that has already answered every
/// read of the mix once.
constexpr double kWarmup_s = 2.0;
/// Connection 1 of the read-only workloads sends one observe every this
/// many requests: observes change no answer, so they run inside the
/// timed window, under the load the reads see, while refits, which swap
/// the model, wait for the write probe after it.
constexpr std::uint64_t kObserveEvery = 64;
/// A window is measured again when more than this share of the
/// machine's CPU time was stolen during it, at most kMaxWindows times:
/// a host busy enough to steal about 1 % slows the advisor by a fifth.
constexpr double kCalmWindowSteal = 0.005;
constexpr int kMaxWindows = 2;
/// A slice of the window counts when at most this share was stolen.
constexpr double kQuietSliceSteal = 0.02;
/// Noise salt of the simulator runs that serve as ground truth: a
/// campaign independent of the one the served models were fitted on.
constexpr std::uint64_t kTruthSalt = 7;

struct Args {
  Workload workload = Workload::kPaperHot;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string bin_dir;
  bool corrupt = false;
};

// --- per-op accounting ------------------------------------------------------

struct Ledger {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ops;
  std::vector<std::string> failures;  ///< first few, for the log

  void add(const std::string& op, bool ok, const std::string& why = {}) {
    auto& [attempted, failed] = ops[op];
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(op + ": " + why);
  }
  void merge(const Ledger& other) {
    for (const auto& [op, c] : other.ops) {
      ops[op].first += c.first;
      ops[op].second += c.second;
    }
    for (const auto& f : other.failures)
      if (failures.size() < 8) failures.push_back(f);
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& [op, c] : ops) n += c.first;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [op, c] : ops) n += c.second;
    return n;
  }
};

// --- the server process -----------------------------------------------------

/// One advisor process, started and waited for until its ready line.
/// The destructor stops it (SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv,
                const std::string& log_path) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    if (log >= 0) posix_spawn_file_actions_adddup2(&fa, log, 2);
    std::vector<char*> cargv;
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const auto begin = Clock::now();
    const int rc =
        posix_spawn(&pid_, cargv[0], &fa, nullptr, cargv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    if (log >= 0) ::close(log);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      stop();
      throw std::runtime_error("cannot start " + argv[0]);
    }
    std::string line;
    const auto deadline = begin + std::chrono::seconds(300);
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (Clock::now() > deadline) break;
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t got = ::read(out_fd_, buf, sizeof buf);
      if (got <= 0) break;
      line.append(buf, static_cast<std::size_t>(got));
    }
    setup_s_ = secs(Clock::now() - begin);
    if (line.find(": ready") == std::string::npos) {
      stop();
      throw std::runtime_error(argv[0] + " did not become ready (see " +
                               log_path + ")");
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  double setup_s() const { return setup_s_; }

  /// User + system CPU seconds of every thread of the process so far.
  double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos) return 0.0;
    std::istringstream fields(stat.substr(paren + 2));
    std::string f;
    double ticks = 0;
    // Fields 3..13 precede utime (14) and stime (15).
    for (int i = 3; i <= 15 && (fields >> f); ++i)
      if (i >= 14) ticks += std::stod(f);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) in MiB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
  }

  void stop() {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 6000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  double setup_s_ = 0;
};

/// Jiffies of the whole machine from /proc/stat: {steal, total}.
std::pair<double, double> machine_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Share of the machine's CPU time stolen between two machine_steal()
/// samples.
double steal_share(const std::pair<double, double>& from,
                   const std::pair<double, double>& to) {
  return (to.first - from.first) / std::max(1.0, to.second - from.second);
}

std::vector<std::string> server_argv(const Args& args,
                                     const std::string& socket) {
  if (args.workload == Workload::kLargeCold)
    return {args.bin_dir + "/perfbench_host", "--socket=" + socket};
  std::string prewarm = "--prewarm=";
  for (const int n : hot_sizes()) {
    if (prewarm.back() != '=') prewarm += ',';
    prewarm += std::to_string(n);
  }
  return {args.bin_dir + "/hetsched_advisord", "--socket=" + socket,
          args.workload == Workload::kPaperHot ? "--plan=basic" : "--plan=ns",
          "--threads=" + std::to_string(kServerPoolThreads), prewarm};
}

// --- responses --------------------------------------------------------------

/// Offset of the result document when `resp` is the canonical ok
/// envelope for request `id` (echoed as a shortest round-trip number),
/// else npos.
std::size_t ok_envelope(const std::string& resp, std::uint64_t id) {
  static constexpr std::string_view head = "{\"hsp\":1,\"id\":";
  static constexpr std::string_view mid = ",\"ok\":true,\"result\":";
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, static_cast<double>(id)).ptr;
  const std::string_view ids(buf, static_cast<std::size_t>(end - buf));
  std::string_view r(resp);
  if (!r.starts_with(head)) return std::string::npos;
  r.remove_prefix(head.size());
  if (!r.starts_with(ids)) return std::string::npos;
  r.remove_prefix(ids.size());
  if (!r.starts_with(mid) || resp.back() != '}') return std::string::npos;
  return head.size() + ids.size() + mid.size();
}

bool result_is(const std::string& resp, std::size_t at,
               const std::string& expected) {
  return at != std::string::npos && !expected.empty() &&
         resp.size() == at + expected.size() + 1 &&
         resp.compare(at, expected.size(), expected) == 0;
}

std::optional<json::Value> parse(const std::string& text) {
  try {
    return json::parse(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// The oracle's answer to one read template.
struct Expected {
  std::vector<core::Ranked> top;  ///< advise
  double t = 0;                   ///< estimate
};

/// Semantic check of one read answer against the oracle: the advise
/// top-k (labels and exact times) or the estimate's exact time.
bool read_matches(const ReadTemplate& t, const Expected& e,
                  const std::string& resp) {
  const auto doc = parse(resp);
  if (!doc) return false;
  const json::Value* result = ok_result(*doc);
  if (result == nullptr) return false;
  const json::Value* n = result->find("n");
  if (n == nullptr || !n->is_number() || n->as_number() != t.n) return false;
  if (!t.advise) {
    const json::Value* label = result->find("label");
    const json::Value* time = result->find("t");
    return label != nullptr && label->is_string() &&
           label->as_string() == t.config.to_string() && time != nullptr &&
           time->is_number() && time->as_number() == e.t;
  }
  const json::Value* best = result->find("best");
  if (best == nullptr || !best->is_array() ||
      best->as_array().size() != e.top.size())
    return false;
  for (std::size_t i = 0; i < e.top.size(); ++i) {
    const json::Value& b = best->as_array()[i];
    const json::Value* label = b.find("label");
    const json::Value* time = b.find("t");
    if (label == nullptr || !label->is_string() ||
        label->as_string() != e.top[i].config.to_string() || time == nullptr ||
        !time->is_number() || time->as_number() != e.top[i].estimate)
      return false;
  }
  return true;
}

// --- the server's own metrics ------------------------------------------------

/// Fine-histogram bins keyed by lower edge: (upper edge, count).
using Bins = std::map<double, std::pair<double, double>>;

Bins bins_of(const json::Value* hist) {
  Bins out;
  const json::Value* bins = hist != nullptr ? hist->find("bins") : nullptr;
  if (bins == nullptr || !bins->is_array()) return out;
  for (const auto& b : bins->as_array()) {
    const auto& e = b.as_array();
    const double upper = e[1].is_number() ? e[1].as_number() : e[0].as_number();
    out[e[0].as_number()] = {upper, e[2].as_number()};
  }
  return out;
}

Bins minus(Bins after, const Bins& before) {
  for (const auto& [lo, b] : before) after[lo].second -= b.second;
  return after;
}

Bins plus(Bins a, const Bins& b) {
  for (const auto& [lo, e] : b) {
    a[lo].first = e.first;
    a[lo].second += e.second;
  }
  return a;
}

/// Quantile of a bin set, FineHistogram's midpoint convention.
double bins_quantile(const Bins& bins, double q) {
  double total = 0;
  for (const auto& [lo, b] : bins) total += b.second;
  if (total <= 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * total));
  double before = 0;
  for (const auto& [lo, b] : bins) {
    if (b.second <= 0) continue;
    if (before + b.second >= rank)
      return lo + (b.first - lo) * (rank - before - 0.5) / b.second;
    before += b.second;
  }
  return 0.0;
}

double number_at(const json::Value& v, std::initializer_list<const char*> path) {
  const json::Value* at = &v;
  for (const char* key : path) {
    at = at->is_object() ? at->find(key) : nullptr;
    if (at == nullptr) return 0.0;
  }
  return at->is_number() ? at->as_number() : 0.0;
}

Bins op_bins(const json::Value& metrics, const char* op) {
  const json::Value* ops = metrics.find("ops");
  return bins_of(ops != nullptr ? ops->find(op) : nullptr);
}

// --- the socket run ------------------------------------------------------------

/// What a writer measured: each observe's and each refit's round trip
/// and completion offset.
struct WriterTimes {
  std::vector<double> observes, observe_done, refits, refit_done;
};

/// The measurements of one timed window.
struct Window {
  double window_s = 0;
  std::uint64_t answered = 0;
  std::vector<double> reads;      ///< read round trips
  std::vector<double> read_done;  ///< completion offset of each read
  WriterTimes writes;
  double steal = 0;                 ///< share of the machine's CPU stolen
  double slice_s = 0;               ///< width of the kSlices slices
  std::vector<double> slice_steal;  ///< the same, per slice
  std::vector<double> slice_cpu_s;  ///< server CPU seconds per slice
  Metrics wire;  ///< per-layer metrics from the server's own ops
};

/// The window's quiet slices: a slice in which more than
/// kQuietSliceSteal of the machine's CPU time was stolen measures the
/// hypervisor, so only the others count, or the quieter half by steal
/// when fewer than half of them are that quiet.
std::vector<bool> quiet_slices(const Window& win) {
  if (win.slice_steal.empty()) return {true};
  std::vector<double> sorted = win.slice_steal;
  std::sort(sorted.begin(), sorted.end());
  const double cutoff =
      std::max(kQuietSliceSteal, sorted[(sorted.size() - 1) / 2]);
  std::vector<bool> quiet;
  for (const double s : win.slice_steal) quiet.push_back(s <= cutoff);
  return quiet;
}

std::size_t slice_of(const Window& win, const std::vector<bool>& quiet,
                     double offset_s) {
  return std::min(static_cast<std::size_t>(offset_s / win.slice_s),
                  quiet.size() - 1);
}

/// The round trips of `times` that completed (at offsets `done`) in the
/// window's quiet slices (all of them when none did).
std::vector<double> in_quiet_slices(const Window& win,
                                    const std::vector<double>& times,
                                    const std::vector<double>& done) {
  const std::vector<bool> quiet = quiet_slices(win);
  std::vector<double> out;
  for (std::size_t i = 0; i < times.size(); ++i)
    if (quiet[slice_of(win, quiet, done[i])]) out.push_back(times[i]);
  return out.empty() ? times : out;
}

/// Samples the machine's steal time and the server's CPU time at each
/// of `slices` boundaries `win.slice_s` apart from `start`: the steal
/// share and server CPU seconds of every slice, and the whole span's
/// steal share.
void sample_slices(const ServerProcess& srv, Clock::time_point start,
                   int slices, Window& win) {
  std::this_thread::sleep_until(start);
  std::pair<double, double> steal = machine_steal();
  const auto first = steal;
  double cpu = srv.cpu_s();
  for (int k = 1; k <= slices; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(k * win.slice_s)));
    const auto next_steal = machine_steal();
    const double next_cpu = srv.cpu_s();
    win.slice_steal.push_back(steal_share(steal, next_steal));
    win.slice_cpu_s.push_back(next_cpu - cpu);
    steal = next_steal;
    cpu = next_cpu;
  }
  win.steal = steal_share(first, steal);
}

struct SocketRun {
  std::vector<double> setups;
  int windows = 0;  ///< windows measured; `window` is the quietest
  Window window;
  std::vector<double> observes, refits;
  double rss_mb = 0;
  double estimate_err = 0;
  double selection_err = 0;
  Ledger ledger;
  bool checks_ok = true;
};

/// A request helper bound to one connection and its id counter.
struct Conn {
  server::Client client;
  std::uint64_t next_id = 0;
  explicit Conn(const std::string& socket) : client("unix:" + socket) {}
  std::string call(const std::string& body) {
    return client.roundtrip(with_id(++next_id, body));
  }
};

/// Runs one connection's loop on its own thread; an exception (a
/// dropped connection) is counted as a failed op instead of ending the
/// process.
template <typename Fn>
void guarded(Ledger& ledger, Fn&& loop) {
  try {
    loop();
  } catch (const std::exception& e) {
    ledger.add("connection", false, e.what());
  }
}

std::optional<json::Value> call_ok(Conn& c, const std::string& op_name,
                                   const std::string& body, Ledger& ledger) {
  const std::string resp = c.call(body);
  auto doc = parse(resp);
  const bool ok = doc && ok_result(*doc) != nullptr;
  ledger.add(op_name, ok, ok ? "" : resp.substr(0, 200));
  if (!ok) return std::nullopt;
  return *ok_result(*doc);
}

/// Answer quality after the load: the estimate and selection errors of
/// the served model against the simulator.
void score_accuracy(Workload w, Conn& c, const ServedModel& model,
                    SocketRun& run) {
  std::vector<std::pair<cluster::Config, int>> estimate_probes;
  struct SelectionProbe {
    int n;
    std::vector<std::string> exclude;
    int max_total_procs;
  };
  std::vector<SelectionProbe> selection_probes;
  if (w == Workload::kLargeCold) {
    // 62,499 candidates are too many to simulate, so selection is scored
    // on constrained advises whose feasible sets are small.
    Rng rng(20040426);
    for (int i = 0; i < 32; ++i)
      estimate_probes.emplace_back(
          model.space.config_at(rng.uniform_index(model.space.size())),
          1600 + static_cast<int>(rng.uniform_index(14401)));
    const std::vector<std::string> kinds = model.spec.kind_names();
    const int pairs[4][2] = {{0, 1}, {2, 3}, {0, 3}, {1, 2}};
    for (int i = 0; i < 4; ++i) {
      SelectionProbe p{2400 + 1600 * i, {}, 6};
      for (int k = 0; k < static_cast<int>(kinds.size()); ++k)
        if (k != pairs[i][0] && k != pairs[i][1]) p.exclude.push_back(kinds[k]);
      selection_probes.push_back(p);
    }
  } else {
    for (const int n : hot_sizes()) {
      for (const auto& config : model.space.all())
        estimate_probes.emplace_back(config, n);
      selection_probes.push_back(SelectionProbe{n, {}, 0});
    }
  }

  std::vector<double> served;
  for (const auto& [config, n] : estimate_probes) {
    const auto r = call_ok(c, "estimate", estimate_body(config, n), run.ledger);
    served.push_back(r ? number_at(*r, {"t"}) : 0.0);
  }
  std::vector<cluster::Config> advised;
  for (const auto& p : selection_probes) {
    const auto r = call_ok(c, "advise",
                           advise_body(p.n, 1, p.exclude, p.max_total_procs),
                           run.ledger);
    const json::Value* best = r ? r->find("best") : nullptr;
    std::optional<cluster::Config> config;
    if (best != nullptr && best->is_array() && !best->as_array().empty())
      if (const json::Value* cj = best->as_array()[0].find("config"))
        config = parse_config(*cj);
    advised.push_back(config.value_or(cluster::Config{}));
  }

  // Ground truth: every estimate probe, plus every feasible candidate of
  // each selection probe.
  std::vector<std::pair<cluster::Config, int>> runs = estimate_probes;
  std::vector<std::pair<std::size_t, std::size_t>> feasible_at;
  const std::vector<cluster::Config> all = model.space.all();
  for (const auto& p : selection_probes) {
    const std::size_t begin = runs.size();
    for (const auto& config : all)
      if (satisfies(config, p.exclude, p.max_total_procs))
        runs.emplace_back(config, p.n);
    feasible_at.emplace_back(begin, runs.size());
  }
  const std::vector<double> truth = simulate(model.spec, kTruthSalt, runs);

  double err = 0;
  for (std::size_t i = 0; i < estimate_probes.size(); ++i)
    err += std::abs(served[i] - truth[i]) / truth[i];
  run.estimate_err = err / static_cast<double>(estimate_probes.size());

  double sel = 0;
  for (std::size_t i = 0; i < selection_probes.size(); ++i) {
    const auto [begin, end] = feasible_at[i];
    double best = INFINITY;
    double chosen = NAN;
    for (std::size_t r = begin; r < end; ++r) {
      best = std::min(best, truth[r]);
      if (runs[r].first.to_string() == advised[i].to_string())
        chosen = truth[r];
    }
    if (std::isnan(chosen)) {
      run.ledger.add("advise", false, "advised config outside the space");
      continue;
    }
    sel += (chosen - best) / best;
  }
  run.selection_err = sel / static_cast<double>(selection_probes.size());
}

/// Sends `ops` on `c` round by round, each round ended by its refit,
/// round r starting `round_s` * r after `start`, and records each op's
/// round trip. The pacing spreads the writes over a span; the writes and
/// their order, and hence the final model, are the same on every run.
void paced_writer(Conn& c, const std::vector<WriteOp>& ops,
                  const std::vector<double>& measured, Clock::time_point start,
                  double round_s, Ledger& ledger, WriterTimes& out) {
  std::size_t op = 0;
  for (int round = 0; op < ops.size(); ++round) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(round_s * round)));
    for (; op < ops.size(); ++op) {
      const WriteOp& w = ops[op];
      const auto t0 = Clock::now();
      call_ok(c, w.refit ? "refit" : "observe",
              w.refit ? op_body("refit")
                      : observe_body(w.config, w.n, measured[op]),
              ledger);
      const auto t1 = Clock::now();
      if (w.refit) {
        out.refits.push_back(secs(t1 - t0));
        out.refit_done.push_back(secs(t1 - start));
        ++op;
        break;
      }
      out.observes.push_back(secs(t1 - t0));
      out.observe_done.push_back(secs(t1 - start));
    }
  }
}

/// Refits after the load for the workloads whose mix has none, so that
/// refit latency is measured on every workload: the paced writer sends
/// `ops` (probe_writes) at the simulator's times `measured`, one round
/// every `round_s` seconds, while the other connection keeps sending
/// cheap estimates. The window's observes have filled every class's
/// refit window, so each refit fits full windows. Each round is one
/// slice of the returned window.
Window write_probe(const ServerProcess& srv, const ServedModel& model,
                   const std::vector<WriteOp>& ops,
                   const std::vector<double>& measured, double round_s,
                   std::uint64_t seed, Conn& c, Conn& other, Ledger& ledger) {
  std::atomic<bool> writing{true};
  Ledger background;
  std::thread reader([&] {
    guarded(background, [&] {
      // A fixed set of 64 estimates, so that the answer cache (and with
      // it peak_rss_mb) does not grow with this reader's pace, sent
      // 100 us apart, so that the reader keeps the server awake without
      // taking the CPUs the writes need.
      Rng rng(stream_seed(seed, 5));
      std::vector<std::string> bodies;
      for (int i = 0; i < 64; ++i)
        bodies.push_back(estimate_body(
            model.space.config_at(rng.uniform_index(model.space.size())),
            1600 + static_cast<int>(rng.uniform_index(14401))));
      while (writing.load()) {
        call_ok(other, "estimate", bodies[rng.uniform_index(bodies.size())],
                background);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  });
  Window probe;
  probe.slice_s = round_s;
  const auto start = Clock::now();
  std::thread writer([&] {
    guarded(ledger, [&] {
      paced_writer(c, ops, measured, start, round_s, ledger, probe.writes);
    });
  });
  sample_slices(srv, start, kProbeRounds, probe);
  writer.join();
  writing = false;
  reader.join();
  ledger.merge(background);
  return probe;
}

/// Large-cold answers: every returned configuration satisfies the
/// request's constraints and is priced exactly as Estimator::estimate
/// prices it, in ascending order; for three seeded requests the whole
/// top-k equals core::rank_all filtered by the constraints.
void check_cold(const std::vector<std::pair<ColdAdvise, std::string>>& answers,
                const core::Estimator& est, const core::ConfigSpace& space,
                std::uint64_t seed, bool corrupt, Ledger& ledger) {
  std::vector<std::vector<core::Ranked>> served(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto& [req, resp] = answers[i];
    const auto doc = parse(resp);
    const json::Value* result = doc ? ok_result(*doc) : nullptr;
    const json::Value* best = result ? result->find("best") : nullptr;
    bool ok = best != nullptr && best->is_array() &&
              !best->as_array().empty() &&
              static_cast<int>(best->as_array().size()) <= req.top;
    double prev = -INFINITY;
    for (std::size_t b = 0; ok && b < best->as_array().size(); ++b) {
      const json::Value& entry = best->as_array()[b];
      const json::Value* cj = entry.find("config");
      const auto config = cj ? parse_config(*cj) : std::nullopt;
      const double t = number_at(entry, {"t"});
      double expect = config && est.covers(*config)
                          ? est.estimate(*config, req.n) : NAN;
      if (corrupt && i == 0 && b == 0) expect = std::nextafter(expect, 0.0);
      ok = config && satisfies(*config, req.exclude, req.max_total_procs) &&
           t == expect && t >= prev;
      prev = t;
      if (ok) served[i].push_back(core::Ranked{*config, t});
    }
    ledger.add("advise", ok, ok ? "" : resp.substr(0, 200));
    if (!ok) served[i].clear();
  }

  Rng rng(stream_seed(seed, 4));
  std::vector<std::size_t> sample;
  for (int i = 0; i < 3 && !answers.empty(); ++i)
    sample.push_back(rng.uniform_index(answers.size()));
  std::vector<std::future<bool>> verdicts;
  for (const std::size_t i : sample)
    verdicts.push_back(std::async(std::launch::async, [&, i] {
      const ColdAdvise& req = answers[i].first;
      const auto expect =
          oracle_top(core::rank_all(est, space, req.n), req.exclude,
                     req.max_total_procs, req.top);
      if (expect.size() != served[i].size()) return false;
      for (std::size_t b = 0; b < expect.size(); ++b)
        if (expect[b].config.to_string() != served[i][b].config.to_string() ||
            expect[b].estimate != served[i][b].estimate)
          return false;
      return true;
    }));
  for (auto& v : verdicts) ledger.add("advise.oracle_top_k", v.get());
}

/// Refit-churn: an in-process Service on the same model, fed the
/// writer's exact sequence, must end on the daemon's model fingerprint.
/// `measured` is taken by value: --corrupt perturbs one of its values,
/// so the replay must end on another model.
bool replay_writer(const ServedModel& model, const std::vector<WriteOp>& ops,
                   std::vector<double> measured, const std::string& initial_fp,
                   const std::string& final_fp, bool corrupt) {
  if (corrupt) measured.front() *= 1.5;
  server::Service service(build_snapshot(model));
  const auto fingerprint = [&] {
    const auto doc = parse(service.handle_payload(with_id(0, op_body("stats"))));
    const json::Value* r = doc ? ok_result(*doc) : nullptr;
    const json::Value* fp = r ? r->find("model_fingerprint") : nullptr;
    return fp != nullptr && fp->is_string() ? fp->as_string() : std::string();
  };
  if (fingerprint() != initial_fp) return false;
  for (std::size_t i = 0; i < ops.size(); ++i)
    service.handle_payload(with_id(
        i + 1, ops[i].refit ? op_body("refit")
                            : observe_body(ops[i].config, ops[i].n,
                                           measured[i])));
  return fingerprint() == final_fp;
}

std::string model_fingerprint(Conn& c, Ledger& ledger) {
  const auto r = call_ok(c, "stats", op_body("stats"), ledger);
  const json::Value* fp = r ? r->find("model_fingerprint") : nullptr;
  return fp != nullptr && fp->is_string() ? fp->as_string() : std::string();
}

SocketRun run_socket(const Args& args) {
  SocketRun run;
  const Workload w = args.workload;
  const ServedModel model = served_model(w);
  const std::string socket = "srv-" + std::to_string(::getpid()) + ".sock";
  const std::string log = std::string("server-") + workload_name(w) + ".log";

  const std::vector<WriteOp> writes = w == Workload::kRefitChurn
                                          ? churn_writes(model)
                                          : probe_writes(model, args.seed);
  const std::vector<double> write_measured =
      writer_measurements(model.spec, writes);

  // Set-up samples: the server is started and stopped extra_setups
  // times, half now and half after the last server has stopped, so that
  // they span the run (the guest's speed switches between two levels
  // about 1.5x apart for seconds at a time); every window below starts
  // one more, which serves it.
  const int extra_setups = w == Workload::kPaperHot    ? 4
                           : w == Workload::kLargeCold ? 8
                                                       : 16;
  const auto sample_setups = [&](int count) {
    for (int i = 0; i < count; ++i)
      run.setups.push_back(
          ServerProcess(server_argv(args, socket), log).setup_s());
  };
  sample_setups(extra_setups / 2);

  // The oracle: the same model fitted in-process, which must be the
  // one the server answers from.
  const auto oracle = build_snapshot(model);
  const core::Estimator& est = oracle->estimator();
  char oracle_fp[32];
  std::snprintf(oracle_fp, sizeof oracle_fp, "0x%016llx",
                static_cast<unsigned long long>(oracle->fingerprint()));

  const ReadMix mix(model.space, args.seed);
  const auto& templates = mix.templates();
  std::vector<Expected> expected(templates.size());
  if (w != Workload::kLargeCold) {
    std::map<int, std::vector<core::Ranked>> ranked;
    for (const int n : hot_sizes()) ranked[n] = core::rank_all(est, model.space, n);
    for (std::size_t i = 0; i < templates.size(); ++i) {
      const ReadTemplate& t = templates[i];
      if (t.advise)
        expected[i].top = oracle_top(ranked[t.n], t.exclude, 0, t.top);
      else
        expected[i].t = est.estimate(t.config, t.n);
    }
    if (args.corrupt)
      expected.back().t = std::nextafter(expected.back().t, 0.0);
  }
  // The observes connection 1 of a read-only workload sends in the
  // window, with the start of the result each must get: the oracle's
  // prediction and provenance, and the measured time sent (under
  // --corrupt, another time for the first observe, which is sent first).
  struct WindowObserve {
    std::string body, expect;
  };
  std::vector<WindowObserve> window_observes;
  if (w != Workload::kRefitChurn)
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (writes[i].refit) continue;
      const auto bd = est.breakdown(writes[i].config, writes[i].n);
      const double measured = write_measured[i];
      const double echoed = args.corrupt && window_observes.empty()
                                ? std::nextafter(measured, 0.0)
                                : measured;
      window_observes.push_back(WindowObserve{
          observe_body(writes[i].config, writes[i].n, measured),
          "{\"family\":" + server::json_quote(core::to_string(bd.provenance)) +
              ",\"predicted\":" + server::json_number(bd.total) +
              ",\"measured\":" + server::json_number(echoed) + ","});
    }
  std::vector<std::string> verified(templates.size());
  std::vector<std::tuple<std::size_t, std::uint64_t, std::string>> suspects;
  std::vector<std::pair<ColdAdvise, std::string>> cold_answers;

  // One timed window on a fresh server: warm-up, then two closed-loop
  // connections for args.seconds, bracketed by `metrics` scrapes.
  const auto measure_window = [&](ServerProcess& srv, Conn& c1, Conn& c2) {
    Window win;
    // Warm-up: every distinct read of the mix once, each checked against
    // the oracle; the verified answer bytes then check the window.
    if (w != Workload::kLargeCold) {
      for (std::size_t i = 0; i < templates.size(); ++i) {
        const ReadTemplate& t = templates[i];
        const std::uint64_t id = ++c1.next_id;
        const std::string resp = c1.client.roundtrip(with_id(id, t.body));
        const bool ok = read_matches(t, expected[i], resp);
        run.ledger.add(t.advise ? "advise" : "estimate", ok, resp.substr(0, 200));
        const std::size_t at = ok_envelope(resp, id);
        if (ok && at != std::string::npos && verified[i].empty())
          verified[i] = resp.substr(at, resp.size() - at - 1);
      }
    } else {
      Rng rng(stream_seed(args.seed, 9));
      for (int i = 0; i < 8; ++i) {
        const ColdAdvise a = next_cold_advise(rng, model.space);
        cold_answers.emplace_back(
            a, c1.call(advise_body(a.n, a.top, a.exclude, a.max_total_procs)));
      }
    }
    struct Lane {
      Ledger ledger;
      std::vector<double> reads, read_done;
      WriterTimes writes;
      std::uint64_t answered = 0;
      Clock::time_point end;  ///< when the loop stopped
      std::vector<std::tuple<std::size_t, std::uint64_t, std::string>> suspects;
      std::vector<std::pair<ColdAdvise, std::string>> cold;
    } lanes[2];
    for (auto& lane : lanes) {
      lane.reads.reserve(1 << 20);
      lane.read_done.reserve(1 << 20);
    }
    Clock::time_point start, deadline;
    std::latch go(1);
    // Connection 1 scrapes the server's metrics as the window opens, and
    // again after it, so that the W metrics cover the window alone.
    std::optional<json::Value> before;

    const auto check_read = [&](Lane& lane, std::size_t idx, std::uint64_t id,
                                std::string&& resp) {
      const std::size_t at = ok_envelope(resp, id);
      if (w == Workload::kRefitChurn) {
        // Snapshot swaps change the answers; each must still be ok.
        const bool ok = at != std::string::npos && resp[at] == '{';
        lane.ledger.add(templates[idx].advise ? "advise" : "estimate", ok,
                        resp.substr(0, 200));
      } else if (result_is(resp, at, verified[idx])) {
        lane.ledger.add(templates[idx].advise ? "advise" : "estimate", true);
      } else {
        lane.suspects.emplace_back(idx, id, std::move(resp));
      }
    };
    // Only requests sent after `start` count; the warm-up's answers are
    // checked all the same.
    const auto record_read = [&](Lane& lane, Clock::time_point t0) {
      if (t0 < start) return;
      const auto t1 = Clock::now();
      lane.reads.push_back(secs(t1 - t0));
      lane.read_done.push_back(secs(t1 - start));
    };

    const auto singles = [&](Lane& lane, Conn& c, int stream) {
      Rng rng(stream_seed(args.seed, stream));
      std::uint64_t sent = 0;
      std::size_t observed = 0;
      go.wait();
      for (auto now = Clock::now(); now < deadline; now = Clock::now()) {
        const std::uint64_t timed = now >= start ? 1 : 0;
        if (timed && &c == &c1 && !before)
          before = call_ok(c, "metrics", op_body("metrics"), lane.ledger);
        ++sent;
        if (w == Workload::kPaperHot && sent % kScrapeEvery == 0) {
          call_ok(c, "health", op_body("health"), lane.ledger);
          call_ok(c, "metrics", op_body("metrics"), lane.ledger);
          lane.answered += 2 * timed;
          continue;
        }
        lane.answered += timed;
        if (&c == &c1 && !window_observes.empty() &&
            sent % kObserveEvery == 0) {
          const WindowObserve& o =
              window_observes[observed++ % window_observes.size()];
          const std::uint64_t id = ++c.next_id;
          const auto t0 = Clock::now();
          const std::string resp = c.client.roundtrip(with_id(id, o.body));
          const auto t1 = Clock::now();
          if (t0 >= start) {
            lane.writes.observes.push_back(secs(t1 - t0));
            lane.writes.observe_done.push_back(secs(t1 - start));
          }
          const std::size_t at = ok_envelope(resp, id);
          lane.ledger.add("observe",
                          at != std::string::npos &&
                              resp.compare(at, o.expect.size(), o.expect) == 0,
                          resp.substr(0, 200));
          continue;
        }
        if (w == Workload::kLargeCold) {
          const ColdAdvise a = next_cold_advise(rng, model.space);
          const auto t0 = Clock::now();
          std::string resp =
              c.call(advise_body(a.n, a.top, a.exclude, a.max_total_procs));
          record_read(lane, t0);
          lane.cold.emplace_back(a, std::move(resp));
          continue;
        }
        const std::size_t idx = mix.next(rng);
        const std::uint64_t id = ++c.next_id;
        const auto t0 = Clock::now();
        std::string resp = c.client.roundtrip(with_id(id, templates[idx].body));
        record_read(lane, t0);
        check_read(lane, idx, id, std::move(resp));
      }
    };

    const auto bursts = [&](Lane& lane, Conn& c) {
      Rng rng(stream_seed(args.seed, 2));
      std::string burst;
      std::size_t idx[kBurst];
      std::uint64_t ids[kBurst];
      go.wait();
      while (Clock::now() < deadline) {
        burst.clear();
        for (std::size_t i = 0; i < kBurst; ++i) {
          idx[i] = mix.next_estimate(rng);
          ids[i] = ++c.next_id;
          burst += server::encode_frame(with_id(ids[i], templates[idx[i]].body));
        }
        const auto t0 = Clock::now();
        c.client.send_bytes(burst);
        for (std::size_t i = 0; i < kBurst; ++i) {
          std::string resp = c.client.read_frame();
          record_read(lane, t0);
          check_read(lane, idx[i], ids[i], std::move(resp));
        }
        if (t0 >= start) lane.answered += kBurst;
      }
    };

    const auto writer = [&](Lane& lane, Conn& c) {
      go.wait();
      std::this_thread::sleep_until(start);
      before = call_ok(c, "metrics", op_body("metrics"), lane.ledger);
      // Rounds are spread evenly over the window.
      paced_writer(c, writes, write_measured, start,
                   args.seconds / kWriterRounds, lane.ledger, lane.writes);
      lane.answered = lane.writes.observes.size() + lane.writes.refits.size();
    };

    std::thread t1([&] {
      guarded(lanes[0].ledger, [&] {
        if (w == Workload::kRefitChurn)
          writer(lanes[0], c1);
        else
          singles(lanes[0], c1, 1);
      });
      lanes[0].end = Clock::now();
    });
    std::thread t2([&] {
      guarded(lanes[1].ledger, [&] {
        if (w == Workload::kPaperHot)
          bursts(lanes[1], c2);
        else
          singles(lanes[1], c2, 2);
      });
      lanes[1].end = Clock::now();
    });
    start = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(kWarmup_s));
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    go.count_down();
    win.slice_s = args.seconds / kSlices;
    sample_slices(srv, start, kSlices, win);
    t1.join();
    t2.join();
    win.window_s = secs(std::max(lanes[0].end, lanes[1].end) - start);
    for (Lane& lane : lanes) {
      run.ledger.merge(lane.ledger);
      win.reads.insert(win.reads.end(), lane.reads.begin(), lane.reads.end());
      win.read_done.insert(win.read_done.end(), lane.read_done.begin(),
                           lane.read_done.end());
      win.answered += lane.answered;
      for (auto& sus : lane.suspects) suspects.push_back(std::move(sus));
      for (auto& a : lane.cold) cold_answers.push_back(std::move(a));
    }
    win.writes = std::move(lanes[0].writes);

    // The server's own view of the window.
    const auto after = call_ok(c1, "metrics", op_body("metrics"), run.ledger);
    if (!before || !after) {
      run.checks_ok = false;
      return win;
    }
    const auto stat = [&](const char* k) {
      return number_at(*after, {"stats", k}) - number_at(*before, {"stats", k});
    };
    const auto delta = [&](const char* op) {
      return minus(op_bins(*after, op), op_bins(*before, op));
    };
    const auto batch_size = [&](const char* field) {
      return number_at(*after, {"process", "histograms", "server.batch_size", field}) -
             number_at(*before, {"process", "histograms", "server.batch_size", field});
    };
    const double hits = stat("cache_hits");
    const double probes = hits + stat("cache_misses");
    std::vector<double> reads = win.reads;
    win.wire["server.net.transport_p50_s"] = {
        quantile(reads, 0.5) -
            bins_quantile(plus(delta("advise"), delta("estimate")), 0.5),
        "s"};
    win.wire["server.net.frames_per_batch"] = {
        batch_size("count") > 0 ? batch_size("sum") / batch_size("count") : 0.0,
        "count"};
    for (const char* op : {"advise", "estimate", "observe", "refit", "metrics"}) {
      const std::string name = std::string("server.service.") + op;
      win.wire[name + ".p50_s"] = {bins_quantile(delta(op), 0.5), "s"};
      win.wire[name + ".p99_s"] = {bins_quantile(delta(op), 0.99), "s"};
    }
    win.wire["search.cache.hit_ratio"] = {probes > 0 ? hits / probes : 0.0, "ratio"};
    win.wire["search.cache.hits"] = {hits, "count"};
    win.wire["search.cache.probes"] = {probes, "count"};
    win.wire["search.cache.entries"] = {
        number_at(*after, {"stats", "cache_entries"}), "count"};
    win.wire["server.snapshot.warmed_sizes"] = {
        number_at(*after, {"stats", "warmed_sizes"}), "count"};
    win.wire["server.snapshot.swaps"] = {stat("snapshot_swaps"), "count"};
    return win;
  };

  // A host that steals CPU time from this machine in bursts slows every
  // metric, so a window during which more than kCalmWindowSteal of the
  // CPU time was stolen is measured again on a fresh server, up to
  // kMaxWindows times; the quietest window counts.
  std::unique_ptr<ServerProcess> srv;
  std::unique_ptr<Conn> c1, c2;
  std::string served_fp;
  for (int attempt = 0; attempt < kMaxWindows; ++attempt) {
    c1.reset();
    c2.reset();
    srv.reset();
    srv = std::make_unique<ServerProcess>(server_argv(args, socket), log);
    run.setups.push_back(srv->setup_s());
    c1 = std::make_unique<Conn>(socket);
    c2 = std::make_unique<Conn>(socket);
    if (attempt == 0) {
      served_fp = model_fingerprint(*c1, run.ledger);
      run.ledger.add("hello", served_fp == oracle_fp,
                     "served model " + served_fp + " is not the oracle's " +
                         oracle_fp);
    }
    Window win = measure_window(*srv, *c1, *c2);
    ++run.windows;
    if (attempt == 0 || win.steal < run.window.steal) run.window = std::move(win);
    if (run.window.steal <= kCalmWindowSteal) break;
  }
  score_accuracy(w, *c1, model, run);
  // The probe's rounds are spread over as long as the window, as
  // refit-churn's writer rounds are.
  const Window probe =
      w == Workload::kRefitChurn
          ? Window{}
          : write_probe(*srv, model, writes, write_measured,
                        args.seconds / kProbeRounds, args.seed, *c1, *c2,
                        run.ledger);
  // Observe and refit latency count the writes of the quiet slices: the
  // window's observes (the probe's on a window too short to hold any)
  // and the refits of refit-churn's window or of the probe.
  const WriterTimes& in_window = run.window.writes;
  run.observes = in_window.observes.empty()
                     ? in_quiet_slices(probe, probe.writes.observes,
                                       probe.writes.observe_done)
                     : in_quiet_slices(run.window, in_window.observes,
                                       in_window.observe_done);
  const Window& refitted = w == Workload::kRefitChurn ? run.window : probe;
  run.refits = in_quiet_slices(refitted, refitted.writes.refits,
                               refitted.writes.refit_done);
  const std::string final_fp = model_fingerprint(*c1, run.ledger);
  run.rss_mb = srv->peak_rss_mb();
  c1.reset();
  c2.reset();
  srv.reset();
  sample_setups(extra_setups - extra_setups / 2);

  // Checks outside the windows.
  for (auto& [idx, id, resp] : suspects) {
    const ReadTemplate& t = templates[idx];
    const bool ok = ok_envelope(resp, id) != std::string::npos &&
                    read_matches(t, expected[idx], resp) && !verified[idx].empty();
    run.ledger.add(t.advise ? "advise" : "estimate", ok, resp.substr(0, 200));
  }
  if (w == Workload::kLargeCold)
    check_cold(cold_answers, est, model.space, args.seed, args.corrupt,
               run.ledger);
  if (w == Workload::kRefitChurn)
    run.ledger.add("refit.final_fingerprint",
                   replay_writer(model, writes, write_measured, served_fp,
                                 final_fp, args.corrupt),
                   "final model " + final_fp +
                       " differs from the in-process replay");
  return run;
}

struct WindowStats {
  double throughput = 0;
  double p50 = 0;
  double p99 = 0;
  double cpu_us_per_req = 0;
  std::size_t quiet = 0;     ///< slices the rate statistics come from
  double quiet_steal = 0;    ///< their mean steal share
  std::size_t samples = 0;   ///< reads behind p50 and p99
};

/// Statistics of the window. The host this runs on steals CPU time from
/// the machine in bursts, and a stolen slice measures the hypervisor
/// rather than the advisor, so the statistics come from the quiet
/// slices: throughput is their requests (reads, scaled by all answered
/// requests per read) over their time, CPU per request the server's CPU
/// in them over those requests, p50 and p99 those of their reads.
WindowStats window_stats(const Window& win) {
  WindowStats ws;
  const std::vector<bool> quiet = quiet_slices(win);
  const double per_read = win.reads.empty()
                              ? 0.0
                              : static_cast<double>(win.answered) /
                                    static_cast<double>(win.reads.size());
  std::vector<double> reads;
  for (std::size_t i = 0; i < win.reads.size(); ++i)
    if (quiet[slice_of(win, quiet, win.read_done[i])]) reads.push_back(win.reads[i]);
  double cpu = 0;
  for (std::size_t k = 0; k < quiet.size(); ++k) {
    if (!quiet[k]) continue;
    ++ws.quiet;
    if (k < win.slice_steal.size()) ws.quiet_steal += win.slice_steal[k];
    if (k < win.slice_cpu_s.size()) cpu += win.slice_cpu_s[k];
  }
  ws.quiet_steal /= static_cast<double>(ws.quiet);
  const double requests = static_cast<double>(reads.size()) * per_read;
  ws.throughput = requests / (static_cast<double>(ws.quiet) * win.slice_s);
  ws.cpu_us_per_req = requests > 0 ? cpu * 1e6 / requests : 0.0;
  ws.samples = reads.size();
  ws.p50 = quantile(reads, 0.5);
  ws.p99 = quantile(reads, 0.99);
  return ws;
}

void print_result(const Ledger& ledger, bool correct, const Metrics& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(ledger.attempted());
  out += ",\"failed\":" + std::to_string(ledger.failed());
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ',';
    first = false;
    out += server::json_quote(name) + ":{\"value\":" +
           server::json_number(std::isfinite(m.value) ? m.value : 0.0) +
           ",\"unit\":" + server::json_quote(m.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench_load --workload=paper-hot|large-cold|"
               "refit-churn --seed=N --seconds=S --trace=0|1 --bin-dir=DIR "
               "[--corrupt]\n";
  return 2;
}

}  // namespace


int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      const auto w = parse_workload(arg.substr(11));
      if (!w) return usage();
      args.workload = *w;
      have_workload = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--seconds=", 0) == 0) {
      args.seconds = std::stod(arg.substr(10));
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace = std::stoi(arg.substr(8));
    } else if (arg.rfind("--bin-dir=", 0) == 0) {
      args.bin_dir = arg.substr(10);
    } else if (arg == "--corrupt") {
      args.corrupt = true;
    } else {
      return usage();
    }
  }
  if (!have_workload || args.bin_dir.empty() || !(args.seconds > 0) ||
      (args.trace != 0 && args.trace != 1))
    return usage();
  ::signal(SIGPIPE, SIG_IGN);

  try {
    SocketRun run = run_socket(args);
    const Workload w = args.workload;

    const WindowStats ws = window_stats(run.window);
    for (const auto& [op, c] : run.ledger.ops)
      std::cout << "op " << op << ": attempted " << c.first << ", failed "
                << c.second << "\n";
    for (const auto& f : run.ledger.failures)
      std::cout << "failure: " << f << "\n";
    const Window& win = run.window;
    std::cout << run.windows << " window(s) measured; the quietest: "
              << win.window_s << " s, " << win.answered << " answered, "
              << win.reads.size() << " reads; steal " << 100 * win.steal
              << "% of the machine's CPU time; statistics from its " << ws.quiet
              << " quiet " << win.slice_s << " s slices (steal "
              << 100 * ws.quiet_steal << "%); p50 and p99 over "
              << ws.samples << " reads of those slices ("
              << ws.samples - static_cast<std::size_t>(std::ceil(
                                  0.99 * static_cast<double>(ws.samples)))
              << " beyond p99); " << run.observes.size() << " observes, "
              << run.refits.size() << " refits, " << run.setups.size()
              << " set-ups (s):";
    for (const double s : run.setups) std::cout << " " << s;
    std::cout << "\n";

    Metrics metrics;
    if (args.trace == 0) {
      metrics["setup_s"] = {median(run.setups), "s"};
      metrics["throughput_rps"] = {ws.throughput, "req/s"};
      metrics["latency_p50_s"] = {ws.p50, "s"};
      metrics["latency_p99_s"] = {ws.p99, "s"};
      metrics["server_cpu_us_per_req"] = {ws.cpu_us_per_req, "us"};
      metrics["peak_rss_mb"] = {run.rss_mb, "MB"};
      metrics["observe_p50_s"] = {median(run.observes), "s"};
      metrics["refit_p50_s"] = {median(run.refits), "s"};
      metrics["estimate_err"] = {run.estimate_err, "ratio"};
      metrics["selection_err"] = {run.selection_err, "ratio"};
    } else {
      metrics = run.window.wire;
      const std::string spans =
          std::string("spans-") + workload_name(w) + "-" +
          std::to_string(args.seed) + ".json";
      for (auto& [name, m] : traced_run(w, args.seed, spans))
        metrics[name] = m;
    }
    const bool correct = run.checks_ok && run.ledger.failed() == 0;
    print_result(run.ledger, correct, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_load: " << e.what() << "\n";
    return 1;
  }
}
