// Throughput: the longitudinal-service path (per-epoch churn → sharded
// census → epoch store spill → manifest seal → re-merge) through
// engine::parallel_ordered, over a fresh 3-epoch store.
#include <unistd.h>

#include <filesystem>
#include <string>

#include "throughput_common.hpp"

#include "service/census_service.hpp"

int main() {
  using namespace certquic;
  bench::header("Throughput: epochs", "longitudinal census service");

  const auto cfg = bench::population_config();
  service::service_options opt;
  opt.domains = cfg.domains;
  opt.seed = cfg.seed;
  opt.sample = bench::sample_cap(0);
  opt.shards = 4;
  opt.epochs = bench::env_size("CERTQUIC_EPOCHS", 3);
  opt.store_dir = (std::filesystem::temp_directory_path() /
                   ("certquic_throughput_epochs_" + std::to_string(::getpid())))
                      .string();

  const engine::options exec{};
  const bench::wall_timer timer;
  const auto result = service::run_epochs(opt, exec);
  const double wall_seconds = timer.seconds();
  {
    std::error_code ec;
    std::filesystem::remove_all(opt.store_dir, ec);
  }

  std::size_t probes = 0;
  std::size_t records = 0;
  for (const auto& epoch : result.epochs) {
    probes += epoch.sampled;
    records += epoch.aggregate.records;
  }
  bench::finish({
      .path = "epochs",
      .probes = probes,
      .records = records,
      .wall_seconds = wall_seconds,
      .threads = engine::resolved_threads(exec),
  });
  return 0;
}
