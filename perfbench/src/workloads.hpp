// The four benchmark workloads (census, corpus, ttfb-sweep, epochs) and
// the two ways of running one: an untraced run that reports the
// end-to-end metrics, and a traced run that times the calls into each
// layer's public functions and reports the per-layer metrics.
// README.md in this directory explains the choice of workloads and
// which layer metric should move which end-to-end metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase of an untraced run.
  double seconds = 10.0;
  bool trace = false;
  /// Engine threads of the parallel side: nproc.
  std::size_t threads = 1;
  /// Scratch directory for the epoch store and the span dump.
  std::string work_dir = ".bench_work";
};

struct run_report {
  /// Every output check held, and the 1-thread and nproc-thread results
  /// were equal.
  bool correct = true;
  std::size_t attempted = 0;  // units attempted
  std::size_t failed = 0;     // units that threw or failed a check
  /// End-to-end metrics (untraced) or per-layer metrics (traced), in
  /// BENCHMARK.json order.
  std::vector<metric> metrics;
  /// Human-readable lines: sizes, per-check verdicts, notes.
  std::vector<std::string> notes;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] run_report run_workload(const run_options& opt);

}  // namespace perfbench
