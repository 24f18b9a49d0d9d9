// Throughput: the certificate-corpus path (per-service chain
// materialization over QUIC and HTTPS, field/size aggregation) through
// engine::parallel_ordered. Each sized chain is one probe and one record.
#include "throughput_common.hpp"

#include "core/certificates.hpp"

int main() {
  using namespace certquic;
  bench::header("Throughput: corpus", "chain materialization, size/field "
                                      "aggregation");

  const auto& model = bench::shared_model();
  core::corpus_options opt;
  opt.max_services = bench::sample_cap(0);

  const engine::options exec{};
  const bench::wall_timer timer;
  const auto result = core::analyze_corpus(model, opt, exec);

  const std::size_t chains =
      result.quic_chain_sizes.size() + result.https_chain_sizes.size();
  bench::finish({
      .path = "corpus",
      .probes = chains,
      .records = chains,
      .wall_seconds = timer.seconds(),
      .threads = engine::resolved_threads(exec),
  });
  return 0;
}
