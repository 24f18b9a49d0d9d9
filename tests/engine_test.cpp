// Engine determinism and probe-plan tests: the sharded parallel
// executor must produce byte-identical aggregates to the serial path on
// a fixed-seed population, at any thread count.
#include <atomic>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/amplification_study.hpp"
#include "core/census.hpp"
#include "core/certificates.hpp"
#include "core/compression_study.hpp"
#include "core/funnel.hpp"
#include "core/tuner.hpp"
#include "engine/engine.hpp"
#include "scan/reach.hpp"

namespace certquic {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  return m;
}

/// Full-precision rendering so any bit-level difference in a double
/// (e.g. from a reordered floating-point sum) shows up in the digest.
std::string full(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string digest(const stats::sample_set& s) {
  std::ostringstream out;
  out << s.size();
  if (!s.empty()) {
    // mean() sums in insertion order — it detects reordered merges that
    // the sorted quantiles would mask.
    out << ' ' << full(s.mean()) << ' ' << full(s.min()) << ' '
        << full(s.median()) << ' ' << full(s.max());
  }
  return out.str();
}

std::string digest(const core::census_result& census) {
  std::ostringstream out;
  out << census.initial_size << '|' << census.probed << '|';
  for (const auto count : census.counts) {
    out << count << ',';
  }
  out << '|';
  for (const auto& group : census.group_counts) {
    for (const auto count : group) {
      out << count << ',';
    }
  }
  out << '|' << digest(census.first_burst_amplification);
  out << '|' << census.multi_tls_exceeding_limit << '|'
      << census.max_non_tls_bytes << '|' << census.amplifying << '|'
      << census.amplifying_cloudflare << '|'
      << digest(census.cloudflare_padding) << '|';
  for (const auto& [total, tls] : census.multi_rtt_payload) {
    out << total << ':' << tls << ',';
  }
  return out.str();
}

std::string digest(const core::compression_result& study) {
  std::ostringstream out;
  for (const auto& savings : study.synthetic_savings) {
    out << digest(savings) << '|';
  }
  out << full(study.under_limit_compressed) << '|'
      << full(study.under_limit_uncompressed) << '|'
      << full(study.support_brotli) << '|' << full(study.support_all_three)
      << '|' << digest(study.wild_savings);
  return out.str();
}

std::string digest(const std::vector<core::meta_probe_row>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    out << row.host_octet << ':' << row.responded << ':'
        << row.bytes_received << ':' << full(row.amplification.mean())
        << ':' << full(row.duration_s) << '|';
  }
  return out.str();
}

TEST(EngineDeterminism, CensusIdenticalAcrossThreadCounts) {
  core::census_options opt;
  opt.initial_size = 1362;
  opt.max_services = 300;
  const std::string serial =
      digest(core::run_census(shared_model(), opt, engine::options::serial()));
  for (const std::size_t threads : {2UL, 8UL}) {
    const std::string parallel = digest(
        core::run_census(shared_model(), opt, {.threads = threads}));
    EXPECT_EQ(serial, parallel) << "census diverged at " << threads
                                << " threads";
  }
}

TEST(EngineDeterminism, CompressionStudyIdenticalAcrossThreadCounts) {
  core::compression_options opt;
  opt.max_chains = 200;
  opt.max_probes = 80;
  const std::string serial = digest(core::run_compression_study(
      shared_model(), opt, engine::options::serial()));
  for (const std::size_t threads : {2UL, 8UL}) {
    const std::string parallel = digest(core::run_compression_study(
        shared_model(), opt, {.threads = threads}));
    EXPECT_EQ(serial, parallel) << "compression study diverged at "
                                << threads << " threads";
  }
}

TEST(EngineDeterminism, MetaScanIdenticalAcrossThreadCounts) {
  const std::string serial = digest(core::run_meta_scan(
      shared_model(), false, 2, engine::options::serial()));
  for (const std::size_t threads : {2UL, 8UL}) {
    const std::string parallel = digest(
        core::run_meta_scan(shared_model(), false, 2, {.threads = threads}));
    EXPECT_EQ(serial, parallel) << "meta scan diverged at " << threads
                                << " threads";
  }
}

TEST(EngineDeterminism, TunerStudyIdenticalAcrossThreadCounts) {
  const auto serial =
      core::run_tuner_study(shared_model(), 150, engine::options::serial());
  for (const std::size_t threads : {2UL, 8UL}) {
    const auto parallel =
        core::run_tuner_study(shared_model(), 150, {.threads = threads});
    EXPECT_EQ(serial.services, parallel.services);
    EXPECT_EQ(serial.multi_rtt_default, parallel.multi_rtt_default);
    EXPECT_EQ(serial.multi_rtt_tuned, parallel.multi_rtt_tuned);
    EXPECT_EQ(serial.converted_to_one_rtt, parallel.converted_to_one_rtt);
  }
}

TEST(EngineDeterminism, FunnelConsistencyIdenticalAcrossThreadCounts) {
  const auto serial = core::run_funnel(
      shared_model(), {.consistency_sample = 60}, engine::options::serial());
  for (const std::size_t threads : {2UL, 8UL}) {
    const auto parallel = core::run_funnel(
        shared_model(), {.consistency_sample = 60}, {.threads = threads});
    EXPECT_EQ(serial.consistency_checked, parallel.consistency_checked);
    EXPECT_EQ(serial.consistency_same, parallel.consistency_same);
  }
}

std::string digest(const stats::summary& s) {
  return std::to_string(s.count()) + ' ' + full(s.mean()) + ' ' +
         full(s.variance()) + ' ' + full(s.min()) + ' ' + full(s.max()) +
         ' ' + full(s.total());
}

std::string digest(const std::vector<core::chain_row>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    out << row.display << ':';
    for (const auto size : row.parent_sizes) {
      out << size << ',';
    }
    out << ':' << row.median_leaf << ':' << row.max_leaf << ':'
        << full(row.share) << ';';
  }
  return out.str();
}

/// Every corpus_result field, so a field the parallel path drops or
/// reorders cannot hide behind the ones that survive.
std::string digest(const core::corpus_result& c) {
  std::ostringstream out;
  out << digest(c.quic_chain_sizes) << '|' << digest(c.https_chain_sizes)
      << '|' << full(c.all_chains_over_4071) << '|';
  for (const auto* fields :
       {&c.field_subject, &c.field_issuer, &c.field_spki,
        &c.field_extensions, &c.field_signature}) {
    out << digest(*fields) << '|';
  }
  for (const auto& size_class : c.field_means) {
    for (const auto& role : size_class) {
      for (const auto& field : role) {
        out << digest(field) << ',';
      }
    }
  }
  out << '|';
  for (const auto& side : c.alg_counts) {
    for (const auto& role : side) {
      for (const auto count : role) {
        out << count << ',';
      }
    }
  }
  out << '|' << digest(c.quic_rows) << '|' << digest(c.https_rows) << '|'
      << full(c.quic_top10_coverage) << '|' << full(c.https_top10_coverage)
      << '|' << c.leaves_total << '|' << c.quadrant_small_low << ','
      << c.quadrant_small_high << ',' << c.quadrant_large_high << ','
      << c.quadrant_large_low << '|' << full(c.san_share_p99) << '|'
      << digest(c.san_shares);
  return out.str();
}

TEST(EngineDeterminism, CorpusMeansIdenticalAcrossThreadCounts) {
  const auto serial = core::analyze_corpus(shared_model(), {.max_services = 400},
                                           engine::options::serial());
  ASSERT_FALSE(serial.quic_rows.empty());
  ASSERT_FALSE(serial.https_rows.empty());
  ASSERT_GT(serial.leaves_total, 0u);
  const std::string expected = digest(serial);
  for (const std::size_t threads : {1UL, 4UL, 16UL}) {
    EXPECT_EQ(expected,
              digest(core::analyze_corpus(shared_model(),
                                          {.max_services = 400},
                                          {.threads = threads})))
        << "corpus diverged from serial at " << threads << " threads";
  }
}

TEST(SampleIndices, CapZeroSelectsEveryMatch) {
  const auto& m = shared_model();
  const auto all = engine::sample_indices(m, engine::service_filter::quic, 0);
  std::size_t quic_total = 0;
  for (const auto& rec : m.records()) {
    quic_total += rec.serves_quic() ? 1 : 0;
  }
  EXPECT_EQ(all.size(), quic_total);
  for (const auto index : all) {
    EXPECT_TRUE(m.records()[index].serves_quic());
  }
}

TEST(SampleIndices, StridingMatchesHistoricalRule) {
  const auto& m = shared_model();
  const std::size_t cap = 100;
  const auto sampled =
      engine::sample_indices(m, engine::service_filter::quic, cap);
  // The historical interleaved walk, reproduced literally.
  std::size_t quic_total = 0;
  for (const auto& rec : m.records()) {
    quic_total += rec.serves_quic() ? 1 : 0;
  }
  const std::size_t stride = (quic_total + cap - 1) / cap;
  std::vector<std::uint32_t> expected;
  std::size_t quic_index = 0;
  for (std::uint32_t i = 0; i < m.records().size(); ++i) {
    if (!m.records()[i].serves_quic()) {
      continue;
    }
    if (quic_index++ % stride == 0) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(sampled, expected);
}

TEST(SampleIndices, TlsFilterIncludesHttpsOnly) {
  const auto& m = shared_model();
  const auto tls = engine::sample_indices(m, engine::service_filter::tls, 0);
  const auto quic = engine::sample_indices(m, engine::service_filter::quic, 0);
  EXPECT_GT(tls.size(), quic.size());
}

TEST(ParallelOrdered, ConsumesInAscendingIndexOrder) {
  std::vector<std::size_t> consumed;
  engine::parallel_ordered(
      257, engine::options{.threads = 8, .chunk = 16},
      [](std::size_t i) { return i * 3; },
      [&](std::size_t i, std::size_t value) {
        EXPECT_EQ(value, i * 3);
        consumed.push_back(i);
      });
  ASSERT_EQ(consumed.size(), 257u);
  for (std::size_t i = 0; i < consumed.size(); ++i) {
    EXPECT_EQ(consumed[i], i);
  }
}

TEST(ParallelOrdered, PropagatesWorkerExceptions) {
  std::atomic<std::size_t> consumed{0};
  EXPECT_THROW(
      engine::parallel_ordered(
          100, engine::options{.threads = 4, .chunk = 8},
          [](std::size_t i) -> int {
            if (i == 57) {
              throw std::runtime_error("boom");
            }
            return static_cast<int>(i);
          },
          [&](std::size_t, int) { ++consumed; }),
      std::runtime_error);
  EXPECT_LT(consumed.load(), 100u);
}

TEST(ProbeSeed, ZeroBaseAndSaltPreserveRecordSeeding) {
  EXPECT_EQ(engine::probe_seed(0, "a.example", 0), 0u);
  EXPECT_NE(engine::probe_seed(1, "a.example", 0), 0u);
  EXPECT_NE(engine::probe_seed(0, "a.example", 1), 0u);
  // Distinct per domain and per salt, stable across calls.
  EXPECT_NE(engine::probe_seed(1, "a.example", 0),
            engine::probe_seed(1, "b.example", 0));
  EXPECT_NE(engine::probe_seed(1, "a.example", 1),
            engine::probe_seed(1, "a.example", 2));
  EXPECT_EQ(engine::probe_seed(7, "a.example", 3),
            engine::probe_seed(7, "a.example", 3));
}

TEST(ProbePlan, SweepBuilderExpandsVariants) {
  engine::probe_plan plan;
  plan.sweep_initial_sizes({1200, 1250, 1472});
  ASSERT_EQ(plan.variants.size(), 3u);
  EXPECT_EQ(plan.variants[0].initial_size, 1200u);
  EXPECT_EQ(plan.variants[2].initial_size, 1472u);
}

TEST(ProbePlan, NoAckVariantNeverAcknowledges) {
  const auto& m = shared_model();
  engine::probe_variant variant;
  variant.initial_size = 1362;
  variant.ack = quic::ack_policy::none;
  const auto plan = engine::probe_plan::single(std::move(variant), 20);
  std::size_t probes = 0;
  engine::callback_sink sink{[&](const engine::probe_record& pr) {
    ++probes;
    // A silent client sends nothing beyond its first flight.
    EXPECT_EQ(pr.result.obs.bytes_sent_total,
              pr.result.obs.bytes_sent_first_flight);
  }};
  engine::executor{m, {.threads = 2}}.run(plan, sink);
  EXPECT_GT(probes, 0u);
}

#if defined(CERTQUIC_ENABLE_ASSERTS)
// CERTQUIC_ASSERT is compiled in (Debug and sanitized builds): the
// sink lifecycle contract must abort loudly on misuse, not corrupt
// aggregates silently. Compiled out with the asserts themselves.
TEST(SinkLifecycleDeath, RecordBeforeBeginAborts) {
  engine::sink_lifecycle lc;
  EXPECT_DEATH_IF_SUPPORTED(lc.record(), "on_record before on_begin");
}

TEST(SinkLifecycleDeath, DoubleBeginAborts) {
  engine::sink_lifecycle lc;
  lc.begin();
  EXPECT_DEATH_IF_SUPPORTED(lc.begin(), "on_begin called twice");
}

TEST(SinkLifecycleDeath, RecordAfterEndAborts) {
  engine::sink_lifecycle lc;
  lc.begin();
  lc.record();
  lc.end();
  EXPECT_DEATH_IF_SUPPORTED(lc.record(), "after on_end");
}

TEST(SinkLifecycleDeath, LegalReuseDoesNotAbort) {
  engine::sink_lifecycle lc;
  lc.begin();
  lc.record();
  lc.end();
  lc.begin();  // re-begin after end is the documented reuse path
  lc.record();
  lc.end();
}
#endif  // CERTQUIC_ENABLE_ASSERTS

TEST(ProbePlan, MultiVariantPlansEnumerateVariantMajor) {
  const auto& m = shared_model();
  engine::probe_plan plan;
  plan.max_services = 10;
  plan.sweep_initial_sizes({1200, 1472});
  std::vector<std::uint32_t> variant_order;
  engine::callback_sink sink{[&](const engine::probe_record& pr) {
    variant_order.push_back(pr.variant_index);
    EXPECT_EQ(pr.variant.initial_size, pr.variant_index == 0 ? 1200u : 1472u);
  }};
  engine::executor{m, {.threads = 4}}.run(plan, sink);
  const std::size_t services = variant_order.size() / 2;
  ASSERT_GT(services, 0u);
  for (std::size_t i = 0; i < variant_order.size(); ++i) {
    EXPECT_EQ(variant_order[i], i < services ? 0u : 1u);
  }
}

}  // namespace
}  // namespace certquic
