// CLI over the run-report artifacts (obs/report.hpp).
//
//   hetsched_report summarize FILE            pretty-print one report
//   hetsched_report check FILE...             strict schema + self-consistency
//   hetsched_report merge -o OUT [opts] FILE...   combine per-bench reports
//   hetsched_report diff --baseline BASE [opts] FILE   regression gate
//
// Exit codes: 0 success / gate passed; 1 gate regressed (only with
// --fail-on-regress — without it a regression is reported but exit stays
// 0, so exploratory diffs do not fail scripts); 2 usage, I/O, parse or
// schema errors. CI runs `diff --baseline BENCH_PR6.json --fail-on-regress`
// against the merged report of the current build.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "support/table.hpp"

namespace {

using namespace hetsched;
namespace report = obs::report;

int usage() {
  std::cerr <<
      "usage: hetsched_report <command> [args]\n"
      "  summarize FILE\n"
      "      print scalars and per-family accuracy tables\n"
      "  check FILE...\n"
      "      validate schema; when records are present, cross-check the\n"
      "      stored aggregates against a recomputation\n"
      "  merge -o OUT [--name=NAME] [--strip-records] FILE...\n"
      "      combine reports (records concatenated, scalars unioned,\n"
      "      aggregates recomputed); --strip-records keeps only the\n"
      "      aggregates, the right shape for committed baselines\n"
      "  diff --baseline BASE [--fail-on-regress] [--require-all]\n"
      "       [--abs-tol=X] [--rel-tol=X] [--wall-ratio=X] FILE\n"
      "      compare FILE against the BASE report; nonzero exit on\n"
      "      regression only with --fail-on-regress\n";
  return 2;
}

/// Parses `--key=value` into `out`; returns false if `arg` is not --key=.
bool double_flag(const std::string& arg, const std::string& key, double& out) {
  const std::string prefix = key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  try {
    std::size_t pos = 0;
    const std::string body = arg.substr(prefix.size());
    out = std::stod(body, &pos);
    if (pos != body.size()) throw std::invalid_argument(body);
  } catch (const std::exception&) {
    throw report::SchemaError("bad numeric flag: " + arg);
  }
  return true;
}

report::RunReport load_or_die(const std::string& path) {
  return report::RunReport::load(path);
}

void print_stats_row(Table& t, const std::string& family,
                     const std::string& bin, const report::AccuracyStats& s) {
  t.row()
      .cell(family)
      .cell(bin)
      .integer(static_cast<long long>(s.count))
      .num(s.mean_rel_err, 4)
      .num(s.mean_abs_rel_err, 4)
      .num(s.max_abs_rel_err, 4)
      .num(s.pearson_r, 4);
}

int cmd_summarize(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const report::RunReport rep = load_or_die(args[0]);

  print_banner(std::cout, "Run report — " + rep.name);
  std::cout << "  schema " << report::kSchema << ", "
            << rep.records.size() << " record(s), "
            << rep.scalars.size() << " scalar(s), "
            << rep.accuracy.size() << " famil"
            << (rep.accuracy.size() == 1 ? "y" : "ies") << "\n\n";

  if (!rep.accuracy.empty()) {
    Table acc({"family", "bin", "count", "mean err", "mean |err|",
               "max |err|", "pearson r"});
    for (const auto& [family, fam] : rep.accuracy) {
      print_stats_row(acc, family, "(all)", fam.all);
      for (const auto& [bin, stats] : fam.bins)
        print_stats_row(acc, family, bin, stats);
      // Model-provenance split: measured vs refined vs composed vs
      // fallback vs drifted accuracy (only printed when a non-measured
      // model served some prediction — a single all-measured row would
      // just repeat "(all)"). The keys are the record's free-form
      // provenance string, so new tags need no change here.
      if (fam.provenance.size() > 1 ||
          (fam.provenance.size() == 1 &&
           fam.provenance.begin()->first != "measured"))
        for (const auto& [prov, stats] : fam.provenance)
          print_stats_row(acc, family, "prov:" + prov, stats);
    }
    acc.print(std::cout);

    std::vector<std::string> headers{"family"};
    for (const double edge : report::kHistEdges)
      headers.push_back("<" + format_fixed(edge, 2));
    headers.push_back(">=" + format_fixed(report::kHistEdges.back(), 2));
    Table hist(std::move(headers));
    for (const auto& [family, fam] : rep.accuracy) {
      Table& row = hist.row().cell(family);
      for (const std::uint64_t c : fam.all.hist)
        row.integer(static_cast<long long>(c));
    }
    std::cout << "\n  |relative error| histogram (record counts per bin):\n";
    hist.print(std::cout);
  }

  if (!rep.scalars.empty()) {
    std::cout << "\n";
    Table t({"scalar", "value"});
    for (const auto& [name, value] : rep.scalars)
      t.row().cell(name).num(value, 4);
    t.print(std::cout);
  }
  return 0;
}

/// Near-equality for the check cross-validation: serialized doubles
/// round-trip exactly (obs/json.hpp), but recomputation may reassociate
/// sums, so allow a few ulps worth of slack.
bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

bool stats_match(const report::AccuracyStats& a,
                 const report::AccuracyStats& b) {
  return a.count == b.count && a.hist == b.hist &&
         close(a.mean_rel_err, b.mean_rel_err) &&
         close(a.mean_abs_rel_err, b.mean_abs_rel_err) &&
         close(a.max_abs_rel_err, b.max_abs_rel_err) &&
         close(a.pearson_r, b.pearson_r);
}

int cmd_check(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  for (const std::string& path : args) {
    report::RunReport rep = load_or_die(path);
    if (!rep.records.empty()) {
      report::RunReport recomputed = rep;
      recomputed.recompute_accuracy();
      if (recomputed.accuracy.size() != rep.accuracy.size())
        throw report::SchemaError(
            path + ": stored accuracy families disagree with records");
      for (const auto& [family, fam] : recomputed.accuracy) {
        const auto it = rep.accuracy.find(family);
        if (it == rep.accuracy.end() || !stats_match(fam.all, it->second.all) ||
            fam.bins.size() != it->second.bins.size())
          throw report::SchemaError(
              path + ": stored aggregates for family '" + family +
              "' disagree with a recomputation from the records");
        for (const auto& [bin, stats] : fam.bins) {
          const auto bit = it->second.bins.find(bin);
          if (bit == it->second.bins.end() ||
              !stats_match(stats, bit->second))
            throw report::SchemaError(
                path + ": stored aggregates for family '" + family +
                "' bin '" + bin + "' disagree with a recomputation");
        }
      }
    }
    std::cout << "ok: " << path << " (" << rep.records.size()
              << " record(s), " << rep.accuracy.size() << " famil"
              << (rep.accuracy.size() == 1 ? "y" : "ies") << ", "
              << rep.scalars.size() << " scalar(s))\n";
  }
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  std::string out_path, name = "merged";
  bool strip = false;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "-o") {
      if (++i >= args.size()) return usage();
      out_path = args[i];
    } else if (a.rfind("--name=", 0) == 0) {
      name = a.substr(std::strlen("--name="));
    } else if (a == "--strip-records") {
      strip = true;
    } else if (a.rfind("--", 0) == 0) {
      return usage();
    } else {
      inputs.push_back(a);
    }
  }
  if (out_path.empty() || inputs.empty()) return usage();

  std::vector<report::RunReport> parts;
  parts.reserve(inputs.size());
  for (const std::string& path : inputs) parts.push_back(load_or_die(path));
  const report::RunReport merged =
      report::merge_reports(parts, name, strip);

  std::ofstream out(out_path);
  if (!out) throw report::SchemaError("cannot open for write: " + out_path);
  merged.write_json(out);
  if (!out) throw report::SchemaError("write failed: " + out_path);
  std::cout << "merged " << inputs.size() << " report(s) into " << out_path
            << " (" << merged.records.size() << " record(s), "
            << merged.accuracy.size() << " families, "
            << merged.scalars.size() << " scalars)\n";
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  std::string baseline_path, current_path;
  bool fail_on_regress = false;
  report::DiffOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--baseline") {
      if (++i >= args.size()) return usage();
      baseline_path = args[i];
    } else if (a.rfind("--baseline=", 0) == 0) {
      baseline_path = a.substr(std::strlen("--baseline="));
    } else if (a == "--fail-on-regress") {
      fail_on_regress = true;
    } else if (a == "--require-all") {
      opts.require_all = true;
    } else if (double_flag(a, "--abs-tol", opts.abs_tol) ||
               double_flag(a, "--rel-tol", opts.rel_tol) ||
               double_flag(a, "--wall-ratio", opts.wall_ratio)) {
      // parsed in the condition
    } else if (a.rfind("--", 0) == 0) {
      return usage();
    } else if (current_path.empty()) {
      current_path = a;
    } else {
      return usage();
    }
  }
  if (baseline_path.empty() || current_path.empty()) return usage();

  const report::RunReport baseline = load_or_die(baseline_path);
  const report::RunReport current = load_or_die(current_path);
  const report::DiffResult result = diff_reports(baseline, current, opts);

  Table t({"metric", "baseline", "current", "limit", "status"});
  for (const report::DiffItem& item : result.checked)
    t.row()
        .cell(item.metric)
        .num(item.baseline, 4)
        .num(item.current, 4)
        .num(item.limit, 4)
        .cell(item.regressed ? "REGRESSED" : "ok");
  t.print(std::cout);
  for (const std::string& metric : result.skipped)
    std::cout << "  skipped (absent in current): " << metric << "\n";

  if (result.regressed()) {
    std::cout << "\nREGRESSION: ";
    const std::vector<std::string> bad = result.regressions();
    for (std::size_t i = 0; i < bad.size(); ++i)
      std::cout << (i ? ", " : "") << bad[i];
    std::cout << "\n";
    return fail_on_regress ? 1 : 0;
  }
  std::cout << "\nok: " << result.checked.size() << " metric(s) within "
            << "thresholds vs " << baseline_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "summarize") return cmd_summarize(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "diff") return cmd_diff(args);
  } catch (const hetsched::obs::json::ParseError& e) {
    std::cerr << "hetsched_report: parse error: " << e.what() << "\n";
    return 2;
  } catch (const report::SchemaError& e) {
    std::cerr << "hetsched_report: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "hetsched_report: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
