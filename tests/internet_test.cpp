// Unit tests for the synthetic-Internet generator.
#include <gtest/gtest.h>

#include <set>

#include "core/stream_digest.hpp"
#include "internet/model.hpp"

namespace certquic::internet {
namespace {

class ModelTest : public ::testing::Test {
 protected:
  static const model& shared() {
    static const model m = model::generate({.domains = 8000, .seed = 42});
    return m;
  }
};

TEST_F(ModelTest, PopulationSizeAndRanks) {
  const auto& m = shared();
  ASSERT_EQ(m.records().size(), 8000u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(m.records()[i].rank, i + 1);
  }
}

TEST_F(ModelTest, GenerationIsDeterministic) {
  const auto a = model::generate({.domains = 500, .seed = 9});
  const auto b = model::generate({.domains = 500, .seed = 9});
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(a.records()[i].domain, b.records()[i].domain);
    EXPECT_EQ(a.records()[i].svc, b.records()[i].svc);
    EXPECT_EQ(a.records()[i].chain_profile, b.records()[i].chain_profile);
  }
}

TEST_F(ModelTest, DeploymentSharesMatchFig12) {
  const auto& m = shared();
  std::size_t quic = 0;
  std::size_t https_only = 0;
  for (const auto& rec : m.records()) {
    quic += rec.serves_quic() ? 1 : 0;
    https_only += rec.svc == service_class::https_only ? 1 : 0;
  }
  const double n = static_cast<double>(m.records().size());
  EXPECT_NEAR(quic / n, 0.21, 0.04);        // ~21% QUIC
  EXPECT_NEAR(https_only / n, 0.59, 0.05);  // ~59% HTTPS-only
}

TEST_F(ModelTest, CloudflareDominatesQuicChains) {
  const auto& m = shared();
  std::size_t quic = 0;
  std::size_t cloudflare = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    ++quic;
    cloudflare += rec.chain_profile == "cloudflare" ? 1 : 0;
  }
  ASSERT_GT(quic, 0u);
  EXPECT_NEAR(static_cast<double>(cloudflare) / static_cast<double>(quic),
              0.60, 0.05);  // Fig. 7a: 61.5%
}

TEST_F(ModelTest, ChainMaterializationIsDeterministic) {
  const auto& m = shared();
  for (const auto& rec : m.records()) {
    if (!rec.serves_tls()) {
      continue;
    }
    const auto a = m.chain_of(rec, fetch_protocol::https);
    const auto b = m.chain_of(rec, fetch_protocol::https);
    EXPECT_EQ(a.leaf().der(), b.leaf().der());
    break;
  }
}

TEST_F(ModelTest, RotatedServicesServeDifferentLeafOverQuic) {
  const auto& m = shared();
  std::size_t rotated_seen = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    const auto https = m.chain_of(rec, fetch_protocol::https);
    const auto quic = m.chain_of(rec, fetch_protocol::quic);
    if (rec.rotated_cert) {
      ++rotated_seen;
      EXPECT_NE(https.leaf().serial(), quic.leaf().serial());
    } else {
      EXPECT_EQ(https.leaf().der(), quic.leaf().der());
    }
    if (rotated_seen >= 3) {
      break;
    }
  }
  EXPECT_GT(rotated_seen, 0u);
}

TEST_F(ModelTest, BehaviorMappingIsConsistent) {
  const auto& m = shared();
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    const auto b = m.behavior_of(rec);
    switch (rec.behavior) {
      case behavior_kind::cloudflare:
        EXPECT_FALSE(b.count_padding_in_limit);
        EXPECT_TRUE(b.ack_in_separate_datagram);
        break;
      case behavior_kind::legacy_amplifier:
        EXPECT_EQ(b.policy, quic::amplification_policy::min_initial_only);
        break;
      case behavior_kind::standard_no_coalesce:
        EXPECT_FALSE(b.coalesce_levels);
        EXPECT_TRUE(b.count_padding_in_limit);
        break;
      case behavior_kind::standard_lean:
        EXPECT_FALSE(b.ack_in_separate_datagram);
        break;
      case behavior_kind::compliant_coalesce:
        EXPECT_TRUE(b.coalesce_levels);
        break;
      case behavior_kind::retry_always:
        EXPECT_TRUE(b.always_retry);
        break;
    }
  }
}

TEST_F(ModelTest, BrotliSupportMatchesTable1) {
  const auto& m = shared();
  std::size_t quic = 0;
  std::size_t brotli = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    ++quic;
    brotli += rec.supports_brotli ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(brotli) / static_cast<double>(quic), 0.96,
              0.03);
}

TEST_F(ModelTest, LoadBalancersConcentrateAtTopRanks) {
  // §4.1: top-1k 25%, top-10k 12%, elsewhere ~1%.
  const auto m = model::generate({.domains = 50000, .seed = 11});
  std::size_t top_lb = 0;
  std::size_t top_n = 0;
  std::size_t tail_lb = 0;
  std::size_t tail_n = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    if (rec.rank <= 50) {  // scaled top-1k equivalent (0.1%)
      ++top_n;
      top_lb += rec.lb_overhead > 0 ? 1 : 0;
    } else if (rec.rank > 5000) {
      ++tail_n;
      tail_lb += rec.lb_overhead > 0 ? 1 : 0;
    }
  }
  ASSERT_GT(top_n, 0u);
  ASSERT_GT(tail_n, 0u);
  const double top_rate = static_cast<double>(top_lb) / top_n;
  const double tail_rate = static_cast<double>(tail_lb) / tail_n;
  EXPECT_GT(top_rate, 0.10);
  EXPECT_LT(tail_rate, 0.03);
}

TEST_F(ModelTest, RankGroupPartitioning) {
  const auto& m = shared();
  const auto& first = m.records().front();
  const auto& last = m.records().back();
  EXPECT_EQ(m.rank_group(first), 0u);
  EXPECT_EQ(m.rank_group(last), model::kRankGroups - 1);
}

TEST_F(ModelTest, MetaPopHostGroups) {
  const auto& m = shared();
  const auto pre = m.meta_pop(false);
  EXPECT_GT(pre.size(), 60u);
  std::set<int> octets;
  bool found_facebook = false;
  bool found_instagram = false;
  bool found_silent = false;
  for (const auto& host : pre) {
    octets.insert(host.address.host_octet());
    if (host.address.host_octet() == 35) {
      EXPECT_TRUE(host.serves_quic);
      EXPECT_EQ(host.retransmissions, 1u);
      found_facebook = true;
    }
    if (host.address.host_octet() == 60) {
      EXPECT_GE(host.retransmissions, 7u);
      found_instagram = true;
    }
    found_silent |= !host.serves_quic;
  }
  EXPECT_TRUE(found_facebook);
  EXPECT_TRUE(found_instagram);
  EXPECT_TRUE(found_silent);
  EXPECT_TRUE(octets.contains(183));
  EXPECT_FALSE(octets.contains(44));  // gap in the observed octet list

  const auto post = m.meta_pop(true);
  for (const auto& host : post) {
    if (host.serves_quic) {
      EXPECT_EQ(host.retransmissions, 1u);  // homogeneous after the fix
    }
  }
}

TEST_F(ModelTest, MetaChainsScaleWithSans) {
  const auto& m = shared();
  const auto pop = m.meta_pop(false);
  const meta_host* fb = nullptr;
  const meta_host* ig = nullptr;
  for (const auto& host : pop) {
    if (host.address.host_octet() == 35) {
      fb = &host;
    }
    if (host.address.host_octet() == 60) {
      ig = &host;
    }
  }
  ASSERT_NE(fb, nullptr);
  ASSERT_NE(ig, nullptr);
  EXPECT_GT(m.meta_chain(*ig).wire_size(), m.meta_chain(*fb).wire_size());
  EXPECT_FALSE(m.meta_behavior(*ig).limit_covers_retransmissions);
}

class ChurnTest : public ::testing::Test {
 protected:
  static constexpr config kConfig{.domains = 1500, .seed = 7};

  static void expect_same_records(const model& a, const model& b) {
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
      const service_record& ra = a.records()[i];
      const service_record& rb = b.records()[i];
      EXPECT_EQ(ra.seed, rb.seed) << "record " << i;
      EXPECT_EQ(ra.domain, rb.domain) << "record " << i;
      EXPECT_EQ(ra.dns_result, rb.dns_result) << "record " << i;
      EXPECT_EQ(ra.address.to_string(), rb.address.to_string())
          << "record " << i;
      EXPECT_EQ(ra.svc, rb.svc) << "record " << i;
      EXPECT_EQ(ra.chain_profile, rb.chain_profile) << "record " << i;
      EXPECT_EQ(ra.force_rsa_leaf, rb.force_rsa_leaf) << "record " << i;
      EXPECT_EQ(ra.cruise_sans, rb.cruise_sans) << "record " << i;
      EXPECT_EQ(ra.behavior, rb.behavior) << "record " << i;
      EXPECT_EQ(ra.supports_brotli, rb.supports_brotli) << "record " << i;
    }
  }
};

TEST_F(ChurnTest, EpochZeroIsTheBasePopulation) {
  const model base = model::generate(kConfig);
  const model at0 = model::at_epoch(kConfig, {}, 0);
  expect_same_records(base, at0);
}

TEST_F(ChurnTest, EpochIsPureFunctionOfConfigAndIndex) {
  // Epoch 3 must be bit-identical whether epochs 0..2 were ever
  // materialized (a resumed service regenerates exactly the world the
  // killed process probed).
  const model direct = model::at_epoch(kConfig, {}, 3);
  for (std::uint64_t e = 0; e < 3; ++e) {
    const model detour = model::at_epoch(kConfig, {}, e);
    ASSERT_EQ(detour.records().size(), kConfig.domains);
  }
  const model again = model::at_epoch(kConfig, {}, 3);
  expect_same_records(direct, again);

  // And the manual path (generate + evolve) agrees with at_epoch.
  model folded = model::generate(kConfig);
  (void)folded.evolve_to_epoch({}, 3);
  expect_same_records(direct, folded);
}

TEST_F(ChurnTest, ChurnActuallyChangesThePopulation) {
  churn_summary summary;
  const model base = model::at_epoch(kConfig, {}, 0);
  const model evolved = model::at_epoch(kConfig, {}, 4, &summary);
  EXPECT_EQ(summary.epoch, 4u);
  EXPECT_GT(summary.total(), 0u);
  EXPECT_GT(summary.key_rotations, 0u);

  std::size_t differing = 0;
  ASSERT_EQ(base.records().size(), evolved.records().size());
  for (std::size_t i = 0; i < base.records().size(); ++i) {
    const service_record& rb = base.records()[i];
    const service_record& re = evolved.records()[i];
    EXPECT_EQ(rb.domain, re.domain) << "churn must not rename domains";
    EXPECT_EQ(rb.rank, re.rank);
    if (rb.seed != re.seed || rb.svc != re.svc ||
        rb.chain_profile != re.chain_profile) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST_F(ChurnTest, EpochSeedsAreDistinctPerEpoch) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t e = 0; e < 64; ++e) {
    seeds.insert(epoch_seed(42, e));
  }
  EXPECT_EQ(seeds.size(), 64u);
  EXPECT_NE(epoch_seed(42, 1), epoch_seed(43, 1));
}

// --- Chain bytes pin -------------------------------------------------------

/// Folds one certificate's DER bytes, field sizes, SAN bytes and CA flag.
void digest_certificate(std::uint64_t& h, const x509::certificate& c) {
  core::digest_mix(h, c.der().size());
  for (const std::uint8_t b : c.der()) {
    h ^= b;
    h *= 0x0000'0100'0000'01b3ULL;
  }
  const x509::field_sizes& s = c.sizes();
  for (const std::size_t v : {s.subject, s.issuer, s.public_key_info,
                              s.extensions, s.signature, s.total}) {
    core::digest_mix(h, v);
  }
  core::digest_mix(h, c.san_bytes());
  core::digest_mix(h, c.is_ca() ? 1 : 0);
}

void digest_chain(std::uint64_t& h, const x509::chain& chain) {
  core::digest_mix(h, chain.depth());
  chain.for_each(
      [&h](const x509::certificate& c) { digest_certificate(h, c); });
}

// Every certificate byte the model materializes is pinned to a digest
// taken before the DER writer existed: every TLS record of a fixed
// population under all three chain profiles (named profiles, the long
// tail and cruise liners; QUIC fetches of rotated records too), the Meta
// PoP chains before and after disclosure, and every named parent and
// its ML-DSA twin. An encoder change that moves one byte, one field
// size, the SAN share or the CA flag fails here.
TEST(ChainBytesPin, EveryMaterializedCertificateIsUnchanged) {
  const model m = model::generate({.domains = 10'000, .seed = 42});
  std::uint64_t h = core::kStreamDigestSeed;
  std::size_t chains = 0;
  for (const x509::pq_profile pq : x509::all_pq_profiles()) {
    for (const service_record& rec : m.records()) {
      if (!rec.serves_tls()) {
        continue;
      }
      digest_chain(h, m.chain_of(rec, fetch_protocol::https, pq));
      ++chains;
      if (rec.serves_quic() && rec.rotated_cert) {
        digest_chain(h, m.chain_of(rec, fetch_protocol::quic, pq));
        ++chains;
      }
    }
  }
  for (const bool post_disclosure : {false, true}) {
    for (const meta_host& host : m.meta_pop(post_disclosure)) {
      digest_chain(h, m.meta_chain(host));
      ++chains;
    }
  }
  std::size_t parents = 0;
  for (const ca::chain_profile& p : m.ecosystem().profiles()) {
    for (const auto* set : {&p.parents, &p.parents_pqc}) {
      for (const auto& parent : *set) {
        digest_certificate(h, *parent);
        ++parents;
      }
    }
  }
  EXPECT_EQ(chains, 24'495u);
  EXPECT_EQ(parents, 58u);
  EXPECT_EQ(h, 0x11fc'3674'60fd'06deULL);
}

}  // namespace
}  // namespace certquic::internet
