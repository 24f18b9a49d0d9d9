// Figure 13: handshake classification per Tranco rank group at the
// default Initial size of 1362 bytes. Paper: stable across groups,
// except 1-RTT which is more common among the top-100k (3.02%).
#include "common.hpp"
#include "core/census.hpp"

int main() {
  using namespace certquic;
  bench::header("Figure 13", "handshake classification per rank group");

  const auto cfg = bench::population_config();
  const auto& model = bench::shared_model();
  core::census_options opt;
  opt.initial_size = 1362;
  opt.max_services = bench::sample_cap(6000);
  opt.collect_payload_details = false;
  const auto census = core::run_census(model, opt);

  text_table table({"rank group", "Amplification", "Multi-RTT", "RETRY",
                    "1-RTT"});
  constexpr std::size_t kGroups = internet::model::kRankGroups;
  const std::size_t group_span = cfg.domains / kGroups;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const auto& row = census.group_counts[g];
    std::size_t n = 0;
    for (const auto count : row) {
      n += count;
    }
    auto share = [&](scan::handshake_class c) {
      return n == 0 ? 0.0
                    : static_cast<double>(
                          row[static_cast<std::size_t>(c)]) /
                          static_cast<double>(n);
    };
    table.add_row({bench::rank_group(g * group_span + 1,
                                     (g + 1) * group_span + 1),
                   pct(share(scan::handshake_class::amplification)),
                   pct(share(scan::handshake_class::multi_rtt)),
                   pct(share(scan::handshake_class::retry)),
                   pct(share(scan::handshake_class::one_rtt))});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nPaper (top group): 64.18%% / 32.76%% / 0.04%% / 3.02%%; bottom "
      "group: 57.37%% / 42.40%% / 0.06%% / 0.18%%.\n");
  bench::footnote_scale(cfg);
  return 0;
}
