// Throughput: the census path (stateless reach backend → class
// counting aggregator) through engine::parallel_ordered at full thread
// count. One probe per sampled QUIC service; one record per probe.
#include "throughput_common.hpp"

#include "core/census.hpp"

int main() {
  using namespace certquic;
  bench::header("Throughput: census", "reach backend, class aggregation");

  const auto& model = bench::shared_model();
  core::census_options opt;
  opt.max_services = bench::sample_cap(0);  // 0 = the full population

  const engine::options exec{};
  const bench::wall_timer timer;
  const auto result = core::run_census(model, opt, exec);

  bench::finish({
      .path = "census",
      .probes = result.probed,
      .records = result.probed,
      .wall_seconds = timer.seconds(),
      .threads = engine::resolved_threads(exec),
  });
  return 0;
}
