// Shared scaffolding for the per-figure bench binaries.
//
// Every binary regenerates one table or figure of the paper against the
// synthetic Internet. Scale knobs come from the environment:
//   CERTQUIC_DOMAINS — population size   (default 30000; paper: 1M)
//   CERTQUIC_SEED    — generator seed    (default 42)
//   CERTQUIC_SAMPLE  — max probes per experiment step (default varies)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "internet/model.hpp"
#include "stats/cdf.hpp"
#include "util/text_table.hpp"

namespace certquic::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

inline internet::config population_config() {
  internet::config cfg;
  cfg.domains = env_size("CERTQUIC_DOMAINS", 30000);
  cfg.seed = env_size("CERTQUIC_SEED", 42);
  return cfg;
}

/// The process-wide population: built once from the environment knobs
/// and shared by every experiment in the binary, so multi-study figures
/// (and any future combined drivers) pay the generation cost once. The
/// engine-backed studies then probe it from their sharded thread pools.
inline const internet::model& shared_model() {
  static const internet::model model =
      internet::model::generate(population_config());
  return model;
}

inline std::size_t sample_cap(std::size_t fallback) {
  return env_size("CERTQUIC_SAMPLE", fallback);
}

inline void header(const char* id, const char* title) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

inline void footnote_scale(const internet::config& cfg) {
  std::printf("\n[population: %zu domains, seed %llu — paper scanned 1M; "
              "counts scale linearly, shares are comparable]\n",
              cfg.domains, static_cast<unsigned long long>(cfg.seed));
}

/// Label of a popularity-rank group: the half-open interval
/// "[first, end)". Built with += (GCC 12 -O3 reports a false -Wrestrict
/// on chained std::string operator+).
inline std::string rank_group(std::size_t first, std::size_t end) {
  std::string label = "[";
  label += std::to_string(first);
  label += ", ";
  label += std::to_string(end);
  label += ')';
  return label;
}

/// Prints an empirical CDF as aligned rows of (x, F(x)).
inline void print_cdf(const char* label, const stats::sample_set& samples,
                      std::size_t points = 11, int x_digits = 0) {
  std::printf("%s (n=%zu)\n", label, samples.size());
  if (samples.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  for (const auto& point : samples.cdf_series(points)) {
    std::printf("  F(%12s) = %5.1f%%\n", fixed(point.x, x_digits).c_str(),
                point.f * 100.0);
  }
}

}  // namespace certquic::bench
