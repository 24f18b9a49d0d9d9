#include "engine/engine.hpp"

#include <cstdlib>

#include "engine/backend.hpp"
#include "util/errors.hpp"

namespace certquic::engine {

std::size_t resolved_threads(const options& opt) {
  if (opt.threads > 0) {
    return opt.threads;
  }
  if (const char* env = std::getenv("CERTQUIC_THREADS");
      env != nullptr && *env != '\0') {
    const auto parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) {
      // Cap garbage values (e.g. "-1" wrapping to ULLONG_MAX) at a
      // generous ceiling instead of spawning unbounded threads.
      constexpr unsigned long long kMaxThreads = 1024;
      return static_cast<std::size_t>(std::min(parsed, kMaxThreads));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void executor::run(const probe_plan& plan, observation_sink& sink) const {
  run(plan, sample(plan), sink);
}

void executor::run(const probe_plan& plan,
                   const std::vector<std::uint32_t>& sampled,
                   observation_sink& sink) const {
  if (plan.variants.empty()) {
    throw config_error("probe_plan without variants");
  }
  const std::size_t services = sampled.size();
  sink.on_begin(plan, services);
  if (services > 0) {
    const reach_backend backend{model_, plan, sampled};
    run_backend(backend, opt_, [&](std::size_t k, unit_outcome&& outcome) {
      const auto variant_index = static_cast<std::uint32_t>(k / services);
      const std::uint32_t service_index = sampled[k % services];
      sink.on_record(probe_record{
          .service_index = service_index,
          .variant_index = variant_index,
          .record = model_.records()[service_index],
          .variant = plan.variants[variant_index],
          .result = outcome.probe,
      });
    });
  }
  sink.on_end();
}

}  // namespace certquic::engine
