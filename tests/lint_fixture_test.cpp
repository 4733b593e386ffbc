// hetsched_lint's pinned behaviour: every rule trips exactly once on
// its fixture tree (tests/lint_fixtures/<rule>/), the clean tree stays
// finding-free, and suppression comments round-trip — a suppressed
// tree lints clean, and stripping the suppressions resurfaces every
// finding. A regression here means the whole-tree `lint` CTest can no
// longer be trusted in either direction.
#include "driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace hetsched::lint {
namespace {

std::string fixture_root(const std::string& name) {
  return std::string(LINT_FIXTURE_DIR) + "/" + name;
}

DriverResult lint_tree(const std::string& name) {
  DriverOptions opts;
  opts.root = fixture_root(name);
  return run_driver(opts);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool catalog_has(const std::string& rule) {
  const auto& cat = rule_catalog();
  return std::any_of(cat.begin(), cat.end(),
                     [&](const RuleInfo& r) { return r.name == rule; });
}

TEST(LintFixtures, CleanTreePasses) {
  const DriverResult res = lint_tree("clean");
  EXPECT_GE(res.files_scanned, 4);
  for (const Finding& f : res.findings)
    ADD_FAILURE() << f.path << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  // The driver reports how long the sweep took (the whole-tree CTest
  // holds it to a budget via --max-wall-ms).
  EXPECT_GE(res.wall_ms, 0.0);
}

struct RuleCase {
  const char* tree;
  const char* rule;
  const char* path;  ///< expected finding location (tree-relative)
};

// Without a printer gtest shows a RuleCase as its raw bytes, i.e. three
// pointer values that ASLR changes on every run of the binary.
void PrintTo(const RuleCase& c, std::ostream* os) {
  *os << c.path << " [" << c.rule << "]";
}

class LintRuleTrip : public ::testing::TestWithParam<RuleCase> {};

TEST_P(LintRuleTrip, FiresExactlyOnce) {
  const RuleCase& c = GetParam();
  const DriverResult res = lint_tree(c.tree);
  ASSERT_EQ(res.findings.size(), 1u)
      << "fixture '" << c.tree << "' must trip exactly one finding";
  EXPECT_EQ(res.findings[0].rule, c.rule);
  EXPECT_EQ(res.findings[0].path, c.path);
  EXPECT_GT(res.findings[0].line, 0);
  EXPECT_FALSE(res.findings[0].suppressed);
  EXPECT_TRUE(catalog_has(c.rule))
      << "finding rule '" << c.rule << "' missing from rule_catalog()";
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintRuleTrip,
    ::testing::Values(
        RuleCase{"layering", "layering", "src/support/bad_layering.cpp"},
        RuleCase{"obs_direct", "obs-direct", "src/des/bad_obs.cpp"},
        RuleCase{"metric_name", "metric-name", "src/des/bad_metric.cpp"},
        RuleCase{"banned_construct", "banned-construct",
                 "src/core/bad_banned.cpp"},
        RuleCase{"raw_new", "raw-new", "src/hpl/bad_new.cpp"},
        RuleCase{"float_fit", "float-fit", "src/linalg/bad_float.cpp"},
        RuleCase{"hot_path_alloc", "hot-path-alloc",
                 "src/core/bad_hot.cpp"},
        RuleCase{"hot_path_alloc_new", "hot-path-alloc",
                 "src/core/bad_hot_new.cpp"},
        RuleCase{"assert_message", "assert-message",
                 "src/des/bad_assert.cpp"},
        RuleCase{"include_guard", "include-guard",
                 "src/des/bad_guard.hpp"},
        RuleCase{"self_include", "self-include-first",
                 "src/des/widget.cpp"},
        RuleCase{"layer_doc_sync", "layer-doc-sync",
                 "docs/ARCHITECTURE.md"},
        RuleCase{"guarded_field", "guarded-field",
                 "src/core/bad_guarded.hpp"},
        RuleCase{"memory_order_doc", "memory-order-doc",
                 "src/core/bad_order.cpp"},
        RuleCase{"seqlock_protocol", "seqlock-protocol",
                 "src/obs/flight_bad.cpp"},
        RuleCase{"lock_scope", "lock-scope", "src/core/bad_lock.cpp"}),
    [](const ::testing::TestParamInfo<RuleCase>& param) {
      return std::string(param.param.tree);
    });

TEST(LintFixtures, EveryCatalogRuleHasAFixture) {
  // The INSTANTIATE list above must cover the catalog: a rule without a
  // tripping fixture could silently stop firing.
  std::vector<std::string> covered = {
      "layering",    "obs-direct",       "metric-name",
      "banned-construct", "raw-new",     "float-fit",
      "hot-path-alloc",   "assert-message", "include-guard",
      "self-include-first", "layer-doc-sync", "guarded-field",
      "memory-order-doc", "seqlock-protocol", "lock-scope"};
  for (const RuleInfo& r : rule_catalog())
    EXPECT_NE(std::find(covered.begin(), covered.end(), r.name),
              covered.end())
        << "rule '" << r.name << "' has no fixture case";
  EXPECT_EQ(covered.size(), rule_catalog().size());
}

TEST(LintFixtures, SuppressedTreeLintsClean) {
  // Suppressed findings are kept (flagged, for --json auditing) but
  // must not count against the tree: none may be active.
  const DriverResult res = lint_tree("suppressed");
  EXPECT_EQ(res.files_scanned, 4);
  std::size_t suppressed = 0;
  for (const Finding& f : res.findings) {
    if (f.suppressed) {
      ++suppressed;
      continue;
    }
    ADD_FAILURE() << f.path << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  EXPECT_EQ(suppressed, 8u);  // 4 legacy + one per concurrency rule
}

TEST(LintFixtures, StrippedSuppressionsResurfaceFindings) {
  // Round-trip: neutering the allow() markers must bring back exactly
  // the findings the comments were holding down.
  struct File {
    std::string rel;
    std::vector<std::string> expected_rules;  // sorted
  };
  const std::vector<File> files = {
      {"src/core/justified.cpp", {"banned-construct", "raw-new", "raw-new"}},
      {"src/support/uses_core.cpp", {"layering"}},
      {"src/core/concurrency_justified.hpp",
       {"guarded-field", "lock-scope"}},
      {"src/obs/flight_justified.cpp",
       {"memory-order-doc", "seqlock-protocol"}},
  };
  const LintConfig cfg;  // no naming table; metric-name not in play here
  for (const File& file : files) {
    FileInput in;
    in.path = file.rel;
    in.content =
        read_file(fixture_root("suppressed") + "/" + file.rel);

    // With suppressions intact: every finding flagged, none active.
    for (const Finding& f : lint_file(in, cfg))
      EXPECT_TRUE(f.suppressed)
          << file.rel << ":" << f.line << " [" << f.rule << "]";

    // Neuter the marker (keep line structure identical).
    std::string stripped = in.content;
    const std::string marker = "hetsched-lint:";
    for (std::size_t at = stripped.find(marker);
         at != std::string::npos; at = stripped.find(marker, at))
      stripped.replace(at, marker.size(), "xx-disabled-xx");
    in.content = std::move(stripped);

    std::vector<std::string> got;
    for (const Finding& f : lint_file(in, cfg)) got.push_back(f.rule);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, file.expected_rules) << file.rel;
  }
}

TEST(LintFixtures, NamingTableParserExpandsVariants) {
  const LintConfig cfg = load_naming_table(
      fixture_root("metric_name") + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(cfg.have_naming_table);
  EXPECT_TRUE(cfg.metric_names.count("des.events_dispatched"));
  EXPECT_TRUE(cfg.metric_names.count("mpisim.sends"));
  EXPECT_TRUE(cfg.metric_names.count("mpisim.recvs"));
  EXPECT_TRUE(cfg.metric_names.count("search.cache.hits"));
  // `.misses` shorthand expands against the row's first full name.
  EXPECT_TRUE(cfg.metric_names.count("search.cache.misses"));
  EXPECT_FALSE(cfg.metric_names.count("des.bogus_metric"));
}

TEST(LintFixtures, MissingTreeReportsNothingScanned) {
  const DriverResult res = lint_tree("no_such_fixture_tree");
  EXPECT_EQ(res.files_scanned, 0);
  EXPECT_TRUE(res.findings.empty());
}

}  // namespace
}  // namespace hetsched::lint
