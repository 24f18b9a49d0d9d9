// TTFB under post-quantum chain profiles x network conditions: the
// full grid of the time-domain study. Every (profile, condition) cell
// probes the census population with matched per-probe randomness, so
// the per-cell deltas against the classical baseline isolate what the
// bigger chains cost in *time* — extra round trips on clean paths,
// serialization stretch on thin pipes, PTO tails under loss.
#include <cstdio>

#include "common.hpp"
#include "core/ttfb_study.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace certquic;
  bench::header("TTFB x PQC study",
                "time to first byte: chain profiles x network conditions");

  const auto cfg = bench::population_config();
  const auto& model = bench::shared_model();
  core::ttfb_options opt;
  opt.max_services = bench::sample_cap(4000);

  const auto study = core::run_ttfb_study(model, opt);

  std::printf("\n");
  text_table grid({"profile", "condition", "probed", "fetched", "med [ms]",
                   "p95 [ms]", "d med [ms]", "d p95 [ms]"});
  for (const auto& cell : study.cells) {
    // Matched-randomness delta against the classical cell of the same
    // condition.
    const std::size_t cond_idx =
        static_cast<std::size_t>(&cell - study.cells.data()) %
        study.conditions.size();
    const auto& base =
        study.cell(x509::pq_profile::classical, cond_idx);
    auto delta = [&](double mine, double theirs) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%+.1f", mine - theirs);
      return std::string(buf);
    };
    const bool have = !cell.ttfb_ms.empty() && !base.ttfb_ms.empty();
    grid.add_row(
        {x509::to_string(cell.profile), cell.condition.name,
         std::to_string(cell.probed), std::to_string(cell.completed()),
         cell.ttfb_ms.empty() ? std::string("-")
                              : fixed(cell.ttfb_ms.median(), 1),
         cell.ttfb_ms.empty() ? std::string("-")
                              : fixed(cell.ttfb_ms.quantile(0.95), 1),
         have ? delta(cell.ttfb_ms.median(), base.ttfb_ms.median())
              : std::string("-"),
         have ? delta(cell.ttfb_ms.quantile(0.95),
                      base.ttfb_ms.quantile(0.95))
              : std::string("-")});
  }
  std::printf("%s", grid.render().c_str());

  std::printf(
      "\nPost-quantum chains cost little extra TTFB on clean fast paths "
      "(the extra bytes ride\nexisting flights) but compound on "
      "constrained ones: serialization of ML-DSA chains adds\nwhole "
      "milliseconds per flight, and any lost Initial turns the larger "
      "flight into a longer\nPTO recovery.\n");
  bench::footnote_scale(cfg);
  return 0;
}
