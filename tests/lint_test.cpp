// Tier-1 suite for the determinism lint (tools/lint_core.*).
//
// Fixture scan: tests/lint_fixtures/ contains one known violation per
// rule (plus an inline-waived site and a file-waived site); the exact
// finding set is asserted. The real src/ tree is checked against
// tools/lint_waivers.txt by analyze_test, which runs these five rules
// as part of the full analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "lint_core.hpp"

namespace certquic::lint {
namespace {

std::vector<std::tuple<std::string, std::size_t, std::string>> keys(
    const std::vector<finding>& findings) {
  std::vector<std::tuple<std::string, std::size_t, std::string>> out;
  out.reserve(findings.size());
  for (const finding& f : findings) {
    out.emplace_back(f.path, f.line, f.rule);
  }
  return out;
}

const std::string kFixtureRoot = CERTQUIC_LINT_FIXTURE_DIR;

TEST(LintFixtures, FindsExactlyTheKnownViolations) {
  const auto files = collect_sources(kFixtureRoot);
  const report rep = lint_files(files, kFixtureRoot, {});
  EXPECT_EQ(keys(rep.findings),
            (std::vector<std::tuple<std::string, std::size_t, std::string>>{
                {"core/mixed.cpp", 7, "float-accum"},
                {"core/url_log.cpp", 13, "float-accum"},
                {"engine/hash_iter.cpp", 12, "unordered-iter"},
                {"engine/pair.cpp", 10, "unordered-iter"},
                {"engine/ring_misuse.cpp", 13, "atomic-plain"},
                {"net/wall.cpp", 8, "nondet-source"},
                {"scan/seeded.cpp", 8, "raw-rng"},
                {"util/clocky.cpp", 8, "nondet-source"},
            }));
  EXPECT_TRUE(rep.unused_waivers.empty());
}

TEST(LintFixtures, StringLiteralSlashSlashDoesNotTruncateTheLine) {
  // core/url_log.cpp puts a float accumulation AFTER a "http://..."
  // URL string on the same line. The old line-based scanner cut the
  // line at the `//` inside the string and missed the accumulation;
  // the token scanner blanks the literal body instead and must find
  // it at the pinned line.
  const auto files = collect_sources(kFixtureRoot);
  const report rep = lint_files(files, kFixtureRoot, {});
  const bool hit = std::any_of(
      rep.findings.begin(), rep.findings.end(), [](const finding& f) {
        return f.path == "core/url_log.cpp" && f.line == 13 &&
               f.rule == "float-accum";
      });
  EXPECT_TRUE(hit);
}

TEST(LintFixtures, CommentsAndLiteralsNeverMatch) {
  // util/commented.cpp spells every nondet-source pattern inside a
  // block comment, a string literal and a raw string literal — zero
  // findings (the old scanner flagged the block-comment lines).
  const auto files = collect_sources(kFixtureRoot);
  const report rep = lint_files(files, kFixtureRoot, {});
  for (const finding& f : rep.findings) {
    EXPECT_NE(f.path, "util/commented.cpp")
        << f.line << ": [" << f.rule << "] " << f.source_line;
  }
}

TEST(LintFixtures, HeaderDeclarationsReachTheCompanionSource) {
  // pair.hpp declares the unordered member; pair.cpp iterates it. The
  // finding must land in the .cpp — proof the per-basename declaration
  // unit merge works (the cdf.hpp/cdf.cpp situation in the real tree).
  const auto files = collect_sources(kFixtureRoot);
  const report rep = lint_files(files, kFixtureRoot, {});
  const bool hit = std::any_of(
      rep.findings.begin(), rep.findings.end(), [](const finding& f) {
        return f.path == "engine/pair.cpp" && f.rule == "unordered-iter";
      });
  EXPECT_TRUE(hit);
}

TEST(LintFixtures, InlineWaiverSuppressesOnlyItsLine) {
  // core/mixed.cpp has two float accumulations; the second carries
  // "// certquic-lint: allow float-accum — ..." on the preceding line.
  const auto files = collect_sources(kFixtureRoot);
  const report rep = lint_files(files, kFixtureRoot, {});
  std::size_t mixed_hits = 0;
  for (const finding& f : rep.findings) {
    if (f.path == "core/mixed.cpp") {
      ++mixed_hits;
      EXPECT_EQ(f.line, 7u);
    }
  }
  EXPECT_EQ(mixed_hits, 1u);
}

TEST(LintFixtures, FileWaiverSuppressesAndIsMarkedUsed) {
  const auto files = collect_sources(kFixtureRoot);
  const auto waivers = load_waivers(kFixtureRoot + "/waivers.txt");
  ASSERT_EQ(waivers.size(), 1u);
  const report rep = lint_files(files, kFixtureRoot, waivers);
  for (const finding& f : rep.findings) {
    EXPECT_NE(f.path, "net/wall.cpp");
  }
  EXPECT_TRUE(rep.unused_waivers.empty());
}

TEST(LintFixtures, StaleWaiverIsReported) {
  const waiver stale{
      .rule = "raw-rng",
      .path = "core/mixed.cpp",  // file exists but has no raw-rng hit
      .substring = "*",
      .reason = "fixture: deliberately stale",
      .file_line = 1,
  };
  const auto files = collect_sources(kFixtureRoot);
  const report rep = lint_files(files, kFixtureRoot, {stale});
  ASSERT_EQ(rep.unused_waivers.size(), 1u);
  EXPECT_EQ(rep.unused_waivers[0].path, "core/mixed.cpp");
  EXPECT_FALSE(rep.clean());
}

TEST(LintFixtures, MalformedWaiverFilesThrow) {
  EXPECT_THROW((void)load_waivers(kFixtureRoot + "/does-not-exist.txt"),
               std::exception);
}

TEST(LintRules, KnownRuleIds) {
  EXPECT_TRUE(known_rule("nondet-source"));
  EXPECT_TRUE(known_rule("unordered-iter"));
  EXPECT_TRUE(known_rule("float-accum"));
  EXPECT_TRUE(known_rule("raw-rng"));
  EXPECT_TRUE(known_rule("atomic-plain"));
  // The analyzer's rule ids are valid waiver targets too.
  EXPECT_TRUE(known_rule("layer-upward"));
  EXPECT_TRUE(known_rule("layer-cycle"));
  EXPECT_TRUE(known_rule("layer-drift"));
  EXPECT_TRUE(known_rule("pragma-once"));
  EXPECT_TRUE(known_rule("self-contained"));
  EXPECT_TRUE(known_rule("unused-include"));
  EXPECT_FALSE(known_rule("made-up-rule"));
}

}  // namespace
}  // namespace certquic::lint
