// hetsched_lint CLI — project-invariant static analysis over the
// hetsched tree. See docs/STATIC_ANALYSIS.md for the rule catalog and
// suppression syntax.
//
//   hetsched_lint --root=/path/to/repo          # lint the whole tree
//   hetsched_lint --root=. src tools            # restrict to subdirs
//   hetsched_lint --root=. --json               # machine-readable output
//   hetsched_lint --root=. --max-wall-ms=2000   # enforce a time budget
//   hetsched_lint --list-rules
//
// --json emits one object per finding — including suppressed ones,
// flagged `"suppressed": true`, so CI can audit the allow() inventory —
// while the exit code still counts only unsuppressed findings.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error (or a blown
// --max-wall-ms budget) — the `lint` CTest
// (tools/hetsched_lint/CMakeLists.txt) and the CI lint step gate on
// them.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "driver.hpp"
#include "obs/json.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root=DIR] [--naming-doc=REL.md] "
               "[--layer-doc=REL.md] [--json] [--max-wall-ms=N] "
               "[--list-rules] [subdir...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetsched::lint;
  using hetsched::obs::json::json_quote;
  DriverOptions opts;
  std::vector<std::string> subdirs;
  bool json = false;
  long max_wall_ms = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_catalog())
        std::printf("%-20s %s\n", r.name.c_str(), r.description.c_str());
      return 0;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--root=", 0) == 0) {
      opts.root = std::string(arg.substr(7));
    } else if (arg.rfind("--naming-doc=", 0) == 0) {
      opts.naming_doc = std::string(arg.substr(13));
    } else if (arg.rfind("--layer-doc=", 0) == 0) {
      opts.layer_doc = std::string(arg.substr(12));
    } else if (arg.rfind("--max-wall-ms=", 0) == 0) {
      max_wall_ms = std::strtol(arg.substr(14).data(), nullptr, 10);
      if (max_wall_ms <= 0) return usage(argv[0]);
    } else if (arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      subdirs.emplace_back(arg);
    }
  }
  if (!subdirs.empty()) opts.subdirs = std::move(subdirs);

  const DriverResult res = run_driver(opts);
  if (res.files_scanned == 0) {
    std::fprintf(stderr, "hetsched_lint: no sources found under %s\n",
                 opts.root.c_str());
    return 2;
  }

  std::size_t active = 0, suppressed = 0;
  for (const Finding& f : res.findings)
    (f.suppressed ? suppressed : active)++;

  if (json) {
    std::printf("[");
    bool first = true;
    for (const Finding& f : res.findings) {
      std::printf("%s\n  {\"file\": %s, \"line\": %d, \"rule\": %s, "
                  "\"message\": %s, \"suppressed\": %s}",
                  first ? "" : ",", json_quote(f.path).c_str(), f.line,
                  json_quote(f.rule).c_str(), json_quote(f.message).c_str(),
                  f.suppressed ? "true" : "false");
      first = false;
    }
    std::printf("%s]\n", first ? "" : "\n");
  } else {
    for (const Finding& f : res.findings)
      if (!f.suppressed)
        std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
  }
  std::fprintf(stderr,
               "hetsched_lint: %zu finding(s) (%zu suppressed) in %d "
               "file(s), %.1f ms\n",
               active, suppressed, res.files_scanned, res.wall_ms);
  if (max_wall_ms > 0 && res.wall_ms > static_cast<double>(max_wall_ms)) {
    std::fprintf(stderr,
                 "hetsched_lint: wall time %.1f ms exceeds budget %ld ms\n",
                 res.wall_ms, max_wall_ms);
    return 2;
  }
  return active == 0 ? 0 : 1;
}
