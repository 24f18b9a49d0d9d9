// Figure 12: share of QUIC and HTTPS-only services per Tranco rank
// group. Paper: ~21% QUIC per group (sigma = 3) + ~59% HTTPS-only,
// independent of popularity.
#include "common.hpp"
#include "stats/summary.hpp"

int main() {
  using namespace certquic;
  bench::header("Figure 12", "service deployment across rank groups");

  const auto cfg = bench::population_config();
  const auto& model = bench::shared_model();

  constexpr std::size_t kGroups = internet::model::kRankGroups;
  std::array<std::size_t, kGroups> total{};
  std::array<std::size_t, kGroups> quic{};
  std::array<std::size_t, kGroups> https_only{};
  for (const auto& rec : model.records()) {
    const std::size_t g = model.rank_group(rec);
    ++total[g];
    quic[g] += rec.serves_quic() ? 1 : 0;
    https_only[g] +=
        rec.svc == internet::service_class::https_only ? 1 : 0;
  }

  text_table table({"rank group", "QUIC", "HTTPS only", "no TLS"});
  stats::summary quic_share;
  const std::size_t group_span = cfg.domains / kGroups;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const double n = static_cast<double>(total[g]);
    const double q = static_cast<double>(quic[g]) / n;
    const double h = static_cast<double>(https_only[g]) / n;
    quic_share.add(q * 100.0);
    table.add_row({bench::rank_group(g * group_span + 1,
                                     (g + 1) * group_span + 1),
                   pct(q), pct(h), pct(1.0 - q - h)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nQUIC share across groups: mean %.1f%%, sigma %.1f (paper: ~21%%, "
      "sigma = 3).\nPaper: popularity has no influence on QUIC deployment "
      "share.\n",
      quic_share.mean(), quic_share.stddev());
  bench::footnote_scale(cfg);
  return 0;
}
