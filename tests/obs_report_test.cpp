#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/json.hpp"

namespace hetsched::obs::report {
namespace {

PredictionRecord make_record(const std::string& family, double predicted,
                             double measured, const std::string& bin = "multi-pe") {
  PredictionRecord r;
  r.family = family;
  r.bench = "test";
  r.config = "(1,1,0,0)";
  r.n = 1600;
  r.bin = bin;
  r.adjusted = true;
  r.tai = predicted * 0.8;
  r.tci = predicted * 0.2;
  r.predicted = predicted;
  r.measured = measured;
  return r;
}

TEST(HistBin, EdgesAreHalfOpen) {
  EXPECT_EQ(hist_bin(0.0), 0u);
  EXPECT_EQ(hist_bin(0.0099), 0u);
  EXPECT_EQ(hist_bin(0.01), 1u);
  EXPECT_EQ(hist_bin(0.05), 3u);
  EXPECT_EQ(hist_bin(0.999), kHistBins - 2);
  EXPECT_EQ(hist_bin(1.0), kHistBins - 1);   // overflow bin
  EXPECT_EQ(hist_bin(50.0), kHistBins - 1);
}

TEST(Aggregate, KnownValues) {
  // Errors: +10% and -10% -> signed mean 0, |mean| 0.1, max 0.1.
  const PredictionRecord a = make_record("F", 110, 100);
  const PredictionRecord b = make_record("F", 180, 200);
  const AccuracyStats st = aggregate({&a, &b});
  EXPECT_EQ(st.count, 2u);
  EXPECT_NEAR(st.mean_rel_err, 0.0, 1e-12);
  EXPECT_NEAR(st.mean_abs_rel_err, 0.1, 1e-12);
  EXPECT_NEAR(st.max_abs_rel_err, 0.1, 1e-12);
  // (110,100) and (180,200) are positively correlated.
  EXPECT_GT(st.pearson_r, 0.99);
  // Both errors land in the [0.10, 0.20) bin.
  EXPECT_EQ(st.hist[hist_bin(0.1)], 2u);
}

TEST(Aggregate, DegenerateCases) {
  EXPECT_EQ(aggregate({}).count, 0u);
  const PredictionRecord a = make_record("F", 100, 100);
  EXPECT_EQ(aggregate({&a}).pearson_r, 0.0);  // < 2 points
  // Identical predictions: zero variance -> correlation left at 0.
  const PredictionRecord b = make_record("F", 100, 120);
  EXPECT_EQ(aggregate({&a, &b}).pearson_r, 0.0);
}

TEST(Recorder, DisabledIsNoOp) {
  Recorder& rec = Recorder::instance();
  rec.reset();
  EXPECT_FALSE(rec.enabled());
  rec.record(make_record("F", 1, 1));
  rec.set_scalar("error.F.x", 1.0);
  const RunReport rep = rec.build();
  EXPECT_TRUE(rep.records.empty());
  EXPECT_TRUE(rep.scalars.empty());
  rec.reset();
}

TEST(Recorder, StampsContextAndWallTime) {
  Recorder& rec = Recorder::instance();
  rec.reset();
  rec.enable();
  rec.set_bench("bench_x");
  rec.set_family("NL");
  PredictionRecord r = make_record("", 110, 100);
  r.bench.clear();
  rec.record(std::move(r));
  rec.record(make_record("Basic", 90, 100));
  rec.set_scalar("error.NL.estimate.mean_abs", 0.1);
  const RunReport rep = rec.build();
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.name, "bench_x");
  EXPECT_EQ(rep.records[0].family, "NL");      // stamped from context
  EXPECT_EQ(rep.records[0].bench, "bench_x");
  EXPECT_EQ(rep.records[1].family, "Basic");   // explicit field wins
  EXPECT_EQ(rep.accuracy.count("NL"), 1u);
  EXPECT_EQ(rep.accuracy.count("Basic"), 1u);
  EXPECT_GE(rep.scalars.at("bench.bench_x.wall_s"), 0.0);
  rec.reset();
}

RunReport sample_report() {
  RunReport rep;
  rep.name = "sample";
  rep.records.push_back(make_record("NL", 110, 100, "single-pe"));
  rep.records.push_back(make_record("NL", 95, 100, "multi-pe"));
  rep.records.push_back(make_record("NL", 130, 100, "multi-pe"));
  rep.records.push_back(make_record("Basic", 250.5, 300.25, "paged"));
  rep.scalars["bench.sample.wall_s"] = 1.25;
  rep.scalars["error.NL.estimate.mean_abs"] = 0.15;
  rep.scalars["cost.NL.total_s"] = 12235.0;
  rep.recompute_accuracy();
  return rep;
}

void expect_stats_eq(const AccuracyStats& a, const AccuracyStats& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.mean_rel_err, b.mean_rel_err);
  EXPECT_DOUBLE_EQ(a.mean_abs_rel_err, b.mean_abs_rel_err);
  EXPECT_DOUBLE_EQ(a.max_abs_rel_err, b.max_abs_rel_err);
  EXPECT_DOUBLE_EQ(a.pearson_r, b.pearson_r);
  EXPECT_EQ(a.hist, b.hist);
}

TEST(RunReport, SerializeParseRoundTrip) {
  const RunReport rep = sample_report();
  std::ostringstream os;
  rep.write_json(os);
  const RunReport back = RunReport::from_json(json::parse(os.str()));

  EXPECT_EQ(back.name, rep.name);
  ASSERT_EQ(back.records.size(), rep.records.size());
  for (std::size_t i = 0; i < rep.records.size(); ++i) {
    EXPECT_EQ(back.records[i].family, rep.records[i].family);
    EXPECT_EQ(back.records[i].config, rep.records[i].config);
    EXPECT_EQ(back.records[i].n, rep.records[i].n);
    EXPECT_EQ(back.records[i].bin, rep.records[i].bin);
    EXPECT_EQ(back.records[i].adjusted, rep.records[i].adjusted);
    // Shortest round-trip numbers read back exactly.
    EXPECT_DOUBLE_EQ(back.records[i].predicted, rep.records[i].predicted);
    EXPECT_DOUBLE_EQ(back.records[i].measured, rep.records[i].measured);
  }
  EXPECT_EQ(back.scalars, rep.scalars);
  ASSERT_EQ(back.accuracy.size(), rep.accuracy.size());
  for (const auto& [family, fam] : rep.accuracy) {
    const auto it = back.accuracy.find(family);
    ASSERT_NE(it, back.accuracy.end());
    expect_stats_eq(it->second.all, fam.all);
    ASSERT_EQ(it->second.bins.size(), fam.bins.size());
    for (const auto& [bin, st] : fam.bins)
      expect_stats_eq(it->second.bins.at(bin), st);
  }

  // Parsed aggregates agree with a recomputation from the parsed records.
  RunReport recomputed = back;
  recomputed.recompute_accuracy();
  expect_stats_eq(recomputed.accuracy.at("NL").all, back.accuracy.at("NL").all);

  // Serialize -> parse -> serialize is a fixed point.
  std::ostringstream os2;
  back.write_json(os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(RunReport, ProvenanceSplitRoundTrips) {
  RunReport rep;
  rep.name = "prov";
  rep.records.push_back(make_record("NL", 110, 100));  // default "measured"
  PredictionRecord composed = make_record("NL", 95, 100);
  composed.provenance = "composed";
  rep.records.push_back(composed);
  PredictionRecord fallback = make_record("NL", 150, 100);
  fallback.provenance = "fallback";
  rep.records.push_back(fallback);
  rep.recompute_accuracy();

  // recompute_accuracy splits the family stats by provenance tag.
  const FamilyAccuracy& fam = rep.accuracy.at("NL");
  ASSERT_EQ(fam.provenance.size(), 3u);
  EXPECT_EQ(fam.provenance.at("measured").count, 1u);
  EXPECT_EQ(fam.provenance.at("composed").count, 1u);
  EXPECT_EQ(fam.provenance.at("fallback").count, 1u);
  EXPECT_NEAR(fam.provenance.at("fallback").mean_abs_rel_err, 0.5, 1e-12);

  std::ostringstream os;
  rep.write_json(os);
  const RunReport back = RunReport::from_json(json::parse(os.str()));
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records[0].provenance, "measured");
  EXPECT_EQ(back.records[1].provenance, "composed");
  EXPECT_EQ(back.records[2].provenance, "fallback");
  ASSERT_EQ(back.accuracy.at("NL").provenance.size(), 3u);
  expect_stats_eq(back.accuracy.at("NL").provenance.at("composed"),
                  fam.provenance.at("composed"));
}

// Removes every `, "provenance": <string-or-object>` from a serialized
// report, reconstructing the pre-provenance on-disk format.
std::string strip_provenance(std::string text) {
  const std::string needle = ", \"provenance\": ";
  for (std::string::size_type p; (p = text.find(needle)) !=
                                 std::string::npos;) {
    std::string::size_type end = p + needle.size();
    if (text[end] == '{') {
      int depth = 0;
      do {
        if (text[end] == '{') ++depth;
        if (text[end] == '}') --depth;
        ++end;
      } while (depth > 0);
    } else {  // quoted string value
      end = text.find('"', end + 1) + 1;
    }
    text.erase(p, end - p);
  }
  return text;
}

TEST(RunReport, ProvenanceOptionalWhenAbsentFromJson) {
  // Reports written before the provenance field must still parse, with
  // records defaulting to "measured" and no provenance split.
  const RunReport rep = sample_report();
  std::ostringstream os;
  rep.write_json(os);
  const std::string stripped = strip_provenance(os.str());
  ASSERT_EQ(stripped.find("provenance"), std::string::npos);
  const RunReport back = RunReport::from_json(json::parse(stripped));
  ASSERT_EQ(back.records.size(), rep.records.size());
  for (const auto& r : back.records) EXPECT_EQ(r.provenance, "measured");
  EXPECT_TRUE(back.accuracy.at("NL").provenance.empty());
}

TEST(RunReport, FromJsonRejectsMalformedDocuments) {
  const RunReport rep = sample_report();
  std::ostringstream os;
  rep.write_json(os);
  const std::string good = os.str();

  EXPECT_THROW(RunReport::from_json(json::parse("[1, 2]")), SchemaError);
  {
    std::string s = good;
    s.replace(s.find("run_report.v1"), 13, "run_report.v9");
    EXPECT_THROW(RunReport::from_json(json::parse(s)), SchemaError);
  }
  {
    std::string s = good;
    s.replace(s.find("\"records\""), 9, "\"recordz\"");
    EXPECT_THROW(RunReport::from_json(json::parse(s)), SchemaError);
  }
  {
    std::string s = good;
    s.replace(s.find("\"n\": 1600"), 9, "\"n\": 16.5");
    EXPECT_THROW(RunReport::from_json(json::parse(s)), SchemaError);
  }
  {
    // hist_edges must match the v1 edge list exactly.
    std::string s = good;
    s.replace(s.find("0.01"), 4, "0.03");
    EXPECT_THROW(RunReport::from_json(json::parse(s)), SchemaError);
  }
}

TEST(Merge, ConcatenatesAndRecomputes) {
  RunReport a;
  a.name = "a";
  a.records.push_back(make_record("NL", 110, 100));
  a.scalars["bench.a.wall_s"] = 1.0;
  a.recompute_accuracy();
  RunReport b;
  b.name = "b";
  b.records.push_back(make_record("NL", 90, 100));
  b.records.push_back(make_record("NS", 105, 100));
  b.scalars["bench.b.wall_s"] = 2.0;
  b.recompute_accuracy();

  const RunReport merged = merge_reports({a, b}, "both");
  EXPECT_EQ(merged.name, "both");
  EXPECT_EQ(merged.records.size(), 3u);
  EXPECT_EQ(merged.scalars.size(), 2u);
  EXPECT_EQ(merged.accuracy.at("NL").all.count, 2u);
  EXPECT_EQ(merged.accuracy.at("NS").all.count, 1u);

  const RunReport stripped = merge_reports({a, b}, "both", true);
  EXPECT_TRUE(stripped.records.empty());
  EXPECT_EQ(stripped.accuracy.at("NL").all.count, 2u);  // aggregates survive
}

TEST(Merge, RejectsConflictsAndStrippedInputs) {
  RunReport a;
  a.records.push_back(make_record("NL", 110, 100));
  a.scalars["error.NL.x"] = 1.0;
  a.recompute_accuracy();
  RunReport b = a;
  b.scalars["error.NL.x"] = 2.0;
  EXPECT_THROW(merge_reports({a, b}, "m"), SchemaError);

  // A stripped report cannot be re-merged: its records are gone.
  const RunReport stripped = merge_reports({a}, "s", true);
  EXPECT_THROW(merge_reports({stripped, a}, "m"), SchemaError);
}

TEST(Diff, SelfComparisonPasses) {
  const RunReport rep = sample_report();
  const DiffResult res = diff_reports(rep, rep);
  EXPECT_FALSE(res.regressed());
  EXPECT_TRUE(res.skipped.empty());
  EXPECT_GT(res.checked.size(), 4u);
}

TEST(Diff, InjectedRegressionNamesMetric) {
  const RunReport baseline = sample_report();
  RunReport current = sample_report();
  // Degrade one NL prediction far past the 25%-relative threshold.
  current.records[2].predicted = 500;
  current.recompute_accuracy();
  const DiffResult res = diff_reports(baseline, current);
  EXPECT_TRUE(res.regressed());
  const std::vector<std::string> bad = res.regressions();
  EXPECT_NE(std::find(bad.begin(), bad.end(),
                      "accuracy.NL.all.mean_abs_rel_err"),
            bad.end());
  EXPECT_NE(std::find(bad.begin(), bad.end(),
                      "accuracy.NL.all.max_abs_rel_err"),
            bad.end());
}

TEST(Diff, CountDropIsLostCoverage) {
  const RunReport baseline = sample_report();
  RunReport current = sample_report();
  // Drop one of the three NL records (the family survives with fewer).
  current.records.erase(current.records.begin() + 2);
  current.recompute_accuracy();
  const DiffResult res = diff_reports(baseline, current);
  EXPECT_TRUE(res.regressed());
  const std::vector<std::string> bad = res.regressions();
  EXPECT_NE(std::find(bad.begin(), bad.end(), "accuracy.NL.all.count"),
            bad.end());
  EXPECT_NE(std::find(bad.begin(), bad.end(), "accuracy.NL.multi-pe.count"),
            bad.end());
}

TEST(Diff, WallTimeRatioGuard) {
  RunReport baseline;
  baseline.scalars["bench.x.wall_s"] = 2.0;
  RunReport current = baseline;
  current.scalars["bench.x.wall_s"] = 15.0;  // < 2 * 10 + 1
  EXPECT_FALSE(diff_reports(baseline, current).regressed());
  current.scalars["bench.x.wall_s"] = 30.0;  // > 21
  const DiffResult res = diff_reports(baseline, current);
  EXPECT_TRUE(res.regressed());
  EXPECT_EQ(res.regressions(), std::vector<std::string>{"bench.x.wall_s"});
}

TEST(Diff, DoctoredBaselineFailsLoudlyInsteadOfDisarmingTheGate) {
  // Non-finite values disarm every rule (NaN compares false against
  // any limit), so a hand-edited or corrupted baseline holding one, or
  // a run that produced one, must itself read as a regression — for
  // wall clocks and error scalars alike.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RunReport nan_base;
  nan_base.scalars["bench.x.wall_s"] = nan;
  RunReport nan_cur = nan_base;
  nan_cur.scalars["bench.x.wall_s"] = 1.0;
  EXPECT_TRUE(diff_reports(nan_base, nan_cur).regressed());
  RunReport fin_base;
  fin_base.scalars["error.NL.estimate.mean_abs"] = 0.1;
  RunReport inf_cur = fin_base;
  inf_cur.scalars["error.NL.estimate.mean_abs"] =
      std::numeric_limits<double>::infinity();
  EXPECT_TRUE(diff_reports(fin_base, inf_cur).regressed());
}

TEST(Diff, ErrorScalarsGateAndCostScalarsDoNot) {
  RunReport baseline;
  baseline.scalars["error.NL.estimate.mean_abs"] = 0.10;
  baseline.scalars["cost.NL.total_s"] = 100.0;
  RunReport current = baseline;
  current.scalars["cost.NL.total_s"] = 5000.0;  // informational only
  EXPECT_FALSE(diff_reports(baseline, current).regressed());
  current.scalars["error.NL.estimate.mean_abs"] = 0.50;
  EXPECT_TRUE(diff_reports(baseline, current).regressed());
}

TEST(Diff, MissingFamilySkippedUnlessRequireAll) {
  const RunReport baseline = sample_report();
  RunReport current;  // empty: nothing measured this run
  const DiffResult relaxed = diff_reports(baseline, current);
  EXPECT_FALSE(relaxed.regressed());
  EXPECT_FALSE(relaxed.skipped.empty());

  DiffOptions opts;
  opts.require_all = true;
  const DiffResult strict = diff_reports(baseline, current, opts);
  EXPECT_TRUE(strict.regressed());
}

TEST(Diff, ToleranceIsMaxOfAbsoluteAndRelative)  {
  RunReport baseline;
  baseline.records.push_back(make_record("F", 101, 100));  // |err| 0.01
  baseline.recompute_accuracy();
  RunReport current;
  // 0.025 > 0.01 + max(0.02, 0.25*0.01) = 0.03? No: 0.025 < 0.03 -> ok.
  current.records.push_back(make_record("F", 102.5, 100));
  current.recompute_accuracy();
  EXPECT_FALSE(diff_reports(baseline, current).regressed());
  // 0.035 > 0.03 -> regression.
  current.records[0] = make_record("F", 103.5, 100);
  current.recompute_accuracy();
  EXPECT_TRUE(diff_reports(baseline, current).regressed());
}

}  // namespace
}  // namespace hetsched::obs::report
