// The repo's determinism lint: five rules that certquic_analyze runs
// over src/ alongside its layering and hygiene passes.
//
// The engine's headline guarantee (parallel runs bit-identical to
// serial, spill replays byte-identical) rests on source-level
// discipline that no compiler flag checks: no wall-clock or global
// entropy in probe paths, no iteration over unordered containers
// feeding aggregates, no unreviewed floating-point accumulation in
// golden-feeding paths, and no ad-hoc rng seeding outside the
// per-probe hash(base_seed, domain, salt) scheme. This lint scans
// src/ for those patterns; intentional uses are waived explicitly —
// either inline ("// certquic-lint: allow <rule> — reason") or in the
// checked-in waiver file tools/lint_waivers.txt.
//
// Rules (ids are what waivers name):
//   nondet-source   calls to std::rand/srand, std::random_device,
//                   chrono::{system,steady,high_resolution}_clock,
//                   time()/clock_gettime()/gettimeofday() — anywhere
//                   in src/. Simulated time is the only clock.
//   unordered-iter  range-for / .begin() iteration over a variable
//                   declared std::unordered_{map,set} in engine/ or
//                   core/ (aggregators and sinks): hash-order would
//                   feed aggregates in nondeterministic order.
//   float-accum     `x += ...` where x was declared float/double (or
//                   vector<double> element) in engine/, core/ or
//                   stats/ — golden-feeding paths. Order-sensitive
//                   float accumulation is only deterministic because
//                   the stream is plan-ordered; each site must say so
//                   via a waiver.
//   raw-rng         direct construction of certquic::rng with an
//                   explicit seed outside util/rng.{hpp,cpp}. Probe
//                   paths must derive seeds via
//                   engine::probe_seed(base_seed, domain, salt) or an
//                   explicitly waived scheme.
//   atomic-plain    plain (memberless) use of a variable declared
//                   std::atomic in engine/ — e.g. `head_ == tail_` or
//                   `flag = true` where the code should name its
//                   memory order with an explicit .load() / .store().
//                   Implicit seq_cst compiles and races-free under
//                   TSan, but it hides the intended ordering and
//                   invites the plain-load-where-acquire-is-required
//                   misuse that lock-free code must never contain.
//
// The scanner is token-level: every rule matches against the blanked
// code view produced by analyze::scan_source (tools/analyze_core.*),
// in which block and line comments and string/char/raw-string literal
// bodies are spaces. A `//` inside a URL string no longer truncates
// the line before matching, and a pattern inside a block comment no
// longer matches at all. Findings still carry the RAW source line —
// that is what waiver substrings and humans read.
//
// The waiver machinery is shared with the rest of the architecture
// analyzer (certquic_analyze): its rule ids (layer-upward,
// layer-cycle, layer-drift, pragma-once, self-contained,
// unused-include) are valid in the waiver file too, and every waiver
// is always in scope.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace certquic::lint {

/// One lint hit: file (relative to the scan root), 1-based line, rule
/// id, the offending source line and a human explanation.
struct finding {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string source_line;
};

/// One parsed entry of the waiver file.
struct waiver {
  std::string rule;
  std::string path;       // relative to the scan root
  std::string substring;  // must appear in the flagged line; "*" = any
  std::string reason;
  std::size_t file_line = 0;  // line in the waiver file (diagnostics)
};

/// Result of a lint run: surviving findings plus any waivers that
/// matched nothing (stale waivers fail the gate too — the file must
/// describe reality).
struct report {
  std::vector<finding> findings;
  std::vector<waiver> unused_waivers;

  [[nodiscard]] bool clean() const noexcept {
    return findings.empty() && unused_waivers.empty();
  }
};

/// Parses the pipe-delimited waiver file:
///   rule|path|line-substring|reason
/// '#' lines and blank lines are skipped. Throws config_error on a
/// malformed line (wrong field count, unknown rule, empty reason).
[[nodiscard]] std::vector<waiver> load_waivers(const std::string& path);

/// Lints one in-memory file. `relative_path` decides which
/// path-scoped rules apply (unordered-iter: engine/ and core/;
/// float-accum: engine/, core/ and stats/) and is what waivers match
/// against. Companion headers/sources share declaration context only
/// when linted through lint_files/lint_sources (which merge
/// per-basename units).
[[nodiscard]] std::vector<finding> lint_source(
    const std::string& relative_path, const std::string& content);

/// Lints preloaded (relative_path, content) pairs with per-basename
/// declaration-unit merge, exactly as lint_files does for on-disk
/// trees. Returns UNWAIVED findings sorted by (path, line, rule);
/// callers apply waivers via apply_waivers. This is the entry the
/// architecture analyzer uses — it has already read every file once.
[[nodiscard]] std::vector<finding> lint_sources(
    const std::vector<std::pair<std::string, std::string>>& sources);

/// Only the nondet-source rule, token-level, for the tools/ self-scan:
/// the analyzer must obey its own no-wall-clock rule, but tools/ is
/// not subject to the src/-shaped aggregator/golden-path rules.
[[nodiscard]] std::vector<finding> lint_nondet_only(
    const std::string& relative_path, const std::string& content);

/// Applies waivers to findings (first matching waiver wins). Every
/// waiver must match at least one finding or it is reported unused.
[[nodiscard]] report apply_waivers(std::vector<finding> findings,
                                   const std::vector<waiver>& waivers);

/// Lints files on disk (the fixture entry point of lint_test). Paths
/// must live under `root`; findings carry root-relative paths and go
/// through apply_waivers. Throws config_error on unreadable files.
[[nodiscard]] report lint_files(const std::vector<std::string>& files,
                                const std::string& root,
                                const std::vector<waiver>& waivers);

/// All .hpp/.cpp files under root, sorted (deterministic scan order).
[[nodiscard]] std::vector<std::string> collect_sources(
    const std::string& root);

/// True for rule ids the toolchain implements (waiver validation):
/// the five lint rules plus the analyzer's layer-upward / layer-cycle
/// / layer-drift / pragma-once / self-contained / unused-include.
[[nodiscard]] bool known_rule(const std::string& rule);

}  // namespace certquic::lint
