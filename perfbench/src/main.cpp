// certquic_perfbench: runs one benchmark workload and prints its
// metrics, ending with one JSON line:
//   {"correct": B, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// usage: certquic_perfbench --workload <census|corpus|ttfb-sweep|epochs>
//          --seed N --seconds S --trace <0|1> [--work-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run. The parallel side runs at nproc engine
// threads. Exit codes: 0 run completed (the JSON says
// whether its outputs were correct), 2 usage error, 3 the build
// refuses to measure (asserts or a sanitizer compiled in, or an
// unoptimized build type).
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct build_facts {
  std::string type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  std::string compiler = "gcc " __VERSION__;
#else
  std::string compiler = "unknown";
#endif
#ifdef CERTQUIC_ENABLE_ASSERTS
  bool asserts = true;
#else
  bool asserts = false;
#endif
#ifdef __SANITIZE_ADDRESS__
  bool asan = true;
#else
  bool asan = false;
#endif
#ifdef __SANITIZE_THREAD__
  bool tsan = true;
#else
  bool tsan = false;
#endif
#ifdef NDEBUG
  bool ndebug = true;
#else
  bool ndebug = false;
#endif

  /// Why this build must not report numbers, or "" when it may.
  [[nodiscard]] std::string refusal() const {
    if (asserts) {
      return "CERTQUIC_ENABLE_ASSERTS is compiled in";
    }
    if (asan || tsan) {
      return "a sanitizer is compiled in";
    }
    if (type != "Release" && type != "RelWithDebInfo") {
      return "build type '" + type + "' is not optimized";
    }
    return {};
  }
};

/// CPUs this process may run on: what `nproc` prints.
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <census|corpus|ttfb-sweep|epochs> "
               "--seed N --seconds S --trace <0|1> [--work-dir DIR]\n",
               argv0);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options opt;
  opt.threads = nproc();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (i + 1 >= argc) {
      usage(argv[0]);
      return 2;
    }
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (arg == "--work-dir") {
        opt.work_dir = val;
      } else {
        usage(argv[0]);
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(), val.c_str());
      return 2;
    }
  }
  if (!have_workload) {
    usage(argv[0]);
    return 2;
  }

  const build_facts build;
  std::printf("build: type=%s compiler=\"%s\" asserts=%s asan=%s tsan=%s "
              "ndebug=%s nproc=%zu\n",
              build.type.c_str(), build.compiler.c_str(),
              build.asserts ? "on" : "off", build.asan ? "on" : "off",
              build.tsan ? "on" : "off", build.ndebug ? "on" : "off",
              opt.threads);
  if (const std::string why = build.refusal(); !why.empty()) {
    std::fprintf(stderr, "refusing to measure: %s\n", why.c_str());
    return 3;
  }

  perfbench::run_report rep;
  try {
    rep = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }

  for (const std::string& note : rep.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("workload=%s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::printf("  %-40s %22s %s\n", "failed_share",
              json_number(rep.attempted == 0
                              ? 0.0
                              : static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted))
                  .c_str(),
              "ratio");
  for (const perfbench::metric& m : rep.metrics) {
    std::printf("  %-40s %22s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += rep.correct && rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::metric& m = rep.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
