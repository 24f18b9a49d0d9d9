// Throughput: the out-of-core path (sharded probe → spill to disk →
// k-way merge in plan order) through engine::parallel_ordered. The
// in-memory baseline is skipped: this measures the spill pipeline.
#include <unistd.h>

#include <filesystem>
#include <string>

#include "throughput_common.hpp"

#include "core/outofcore_study.hpp"

int main() {
  using namespace certquic;
  bench::header("Throughput: spill", "sharded spill → merge pipeline");

  const auto& model = bench::shared_model();
  core::outofcore_options opt;
  opt.max_services = bench::sample_cap(0);
  opt.shards = 4;
  opt.compare_in_memory = false;
  opt.spill_dir = (std::filesystem::temp_directory_path() /
                   ("certquic_throughput_spill_" + std::to_string(::getpid())))
                      .string();

  const engine::options exec{};
  const bench::wall_timer timer;
  const auto result = core::run_outofcore_study(model, opt, exec);
  const double wall_seconds = timer.seconds();
  {
    std::error_code ec;
    std::filesystem::remove_all(opt.spill_dir, ec);
  }

  bench::finish({
      .path = "spill",
      .probes = result.sampled,
      .records = result.spill.records,
      .wall_seconds = wall_seconds,
      .threads = engine::resolved_threads(exec),
  });
  return 0;
}
