#include "core/compression_study.hpp"

#include "engine/engine.hpp"
#include "tls/handshake.hpp"

namespace certquic::core {
namespace {

constexpr double kLimit = 3.0 * 1357.0;

/// Per-chain synthetic compression outcome, computed on the pool.
struct chain_compression {
  std::size_t plain_size = 0;
  std::array<std::size_t, 3> compressed_size{};  // brotli/zlib/zstd
};

/// Streams compression-offering probes into the "in the wild" rates.
class wild_aggregator final : public engine::observation_sink {
 public:
  explicit wild_aggregator(compression_result& out) : out_(out) {}

  void on_begin(const engine::probe_plan& plan,
                std::size_t sampled) override {
    lifecycle_.begin();
    out_.wild_savings.reserve(sampled * plan.variants.size());
  }

  void on_record(const engine::probe_record& pr) override {
    lifecycle_.record();
    ++probed_;
    brotli_support_ += pr.record.supports_brotli ? 1 : 0;
    all_support_ += pr.record.supports_all_algorithms ? 1 : 0;
    const quic::observation& obs = pr.result.obs;
    if (obs.handshake_complete && obs.compression_used &&
        obs.certificate_uncompressed_size > 0) {
      out_.wild_savings.add(
          1.0 - static_cast<double>(obs.certificate_msg_size) /
                    static_cast<double>(obs.certificate_uncompressed_size));
    }
  }

  void on_end() override { lifecycle_.end(); }

  void finish() const {
    if (probed_ == 0) {
      return;
    }
    out_.support_brotli = static_cast<double>(brotli_support_) /
                          static_cast<double>(probed_);
    out_.support_all_three = static_cast<double>(all_support_) /
                             static_cast<double>(probed_);
  }

 private:
  compression_result& out_;
  std::size_t probed_ = 0;
  std::size_t brotli_support_ = 0;
  std::size_t all_support_ = 0;
  engine::sink_lifecycle lifecycle_;
};

}  // namespace

compression_result run_compression_study(const internet::model& m,
                                         const compression_options& opt,
                                         const engine::options& exec) {
  compression_result out;
  const bytes& dict = m.compression_dictionary();
  const compress::codec codecs[3] = {
      compress::codec{compress::algorithm::brotli, dict},
      compress::codec{compress::algorithm::zlib, dict},
      compress::codec{compress::algorithm::zstd, dict},
  };

  // ---- Synthetic experiment over collected chains -----------------------
  // One up-front deterministic sample, then chain materialization and
  // compression sharded across the pool; the ordered consumer keeps the
  // aggregates bit-identical to the serial walk.
  const std::vector<std::uint32_t> chain_sample = engine::sample_indices(
      m, engine::service_filter::tls, opt.max_chains);

  std::size_t under_limit = 0;
  std::size_t under_limit_plain = 0;
  std::size_t chains = 0;
  for (auto& savings : out.synthetic_savings) {
    savings.reserve(chain_sample.size());
  }
  engine::parallel_ordered(
      chain_sample.size(), exec,
      [&](std::size_t i) {
        const auto& rec = m.records()[chain_sample[i]];
        const bytes cert_msg = tls::encode_certificate(
            m.chain_of(rec, internet::fetch_protocol::https));
        chain_compression result;
        result.plain_size = cert_msg.size();
        for (int a = 0; a < 3; ++a) {
          result.compressed_size[static_cast<std::size_t>(a)] =
              codecs[a].compress(cert_msg).size();
        }
        return result;
      },
      [&](std::size_t, chain_compression&& result) {
        ++chains;
        under_limit_plain +=
            static_cast<double>(result.plain_size) <= kLimit ? 1 : 0;
        for (std::size_t a = 0; a < 3; ++a) {
          const double saving =
              1.0 - static_cast<double>(result.compressed_size[a]) /
                        static_cast<double>(result.plain_size);
          out.synthetic_savings[a].add(saving);
          if (a == 0) {
            under_limit +=
                static_cast<double>(result.compressed_size[a]) <= kLimit ? 1
                                                                         : 0;
          }
        }
      });
  if (chains > 0) {
    out.under_limit_compressed =
        static_cast<double>(under_limit) / static_cast<double>(chains);
    out.under_limit_uncompressed =
        static_cast<double>(under_limit_plain) / static_cast<double>(chains);
  }

  // ---- In-the-wild probe: offer all three algorithms --------------------
  engine::probe_variant variant;
  variant.initial_size = 1250;  // Chromium-like client (Table 1)
  variant.offer_compression = {compress::algorithm::brotli,
                               compress::algorithm::zlib,
                               compress::algorithm::zstd};
  const engine::probe_plan plan =
      engine::probe_plan::single(std::move(variant), opt.max_probes);
  wild_aggregator aggregator{out};
  engine::executor{m, exec}.run(plan, aggregator);
  aggregator.finish();
  return out;
}

}  // namespace certquic::core
