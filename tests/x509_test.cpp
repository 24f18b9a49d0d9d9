// Unit and property tests for the X.509 certificate model.
#include <gtest/gtest.h>

#include "asn1/der.hpp"
#include "util/rng.hpp"
#include "x509/certificate.hpp"
#include "x509/chain.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {
namespace {

bytes spki_of(key_algorithm a, rng& r) {
  return asn1::encode([&](asn1::writer& w) { encode_spki(w, a, r); });
}

bytes signature_of(signature_algorithm a, rng& r) {
  return asn1::encode(
      [&](asn1::writer& w) { encode_signature_value(w, a, r); });
}

certificate make_leaf(rng& r, key_algorithm key = key_algorithm::ecdsa_p256,
                      signature_algorithm sig =
                          signature_algorithm::sha256_rsa_2048,
                      std::vector<std::string> sans = {"example.org",
                                                       "www.example.org"}) {
  certificate_spec spec;
  spec.issuer = distinguished_name::org("US", "Example CA", "Example CA R1");
  spec.subject = distinguished_name::cn("example.org");
  spec.key_alg = key;
  spec.sig_alg = sig;
  spec.extensions = {
      make_basic_constraints(false),
      make_key_usage(0x80),
      make_ext_key_usage(),
      make_subject_key_id(r),
      make_authority_key_id(bytes(20, 0xab)),
      make_subject_alt_name(sans),
      make_certificate_policies(false, "http://cps.example.com"),
      make_authority_info_access("http://ocsp.example.com",
                                 "http://ca.example.com/r1.crt"),
      make_crl_distribution_points("http://crl.example.com/r1.crl"),
      make_sct_list(2, r),
  };
  return certificate{std::move(spec), r};
}

certificate make_ca(rng& r, const std::string& cn,
                    key_algorithm key = key_algorithm::rsa_2048,
                    bool self_signed = false) {
  certificate_spec spec;
  spec.issuer = distinguished_name::org(
      "US", "Example Trust", self_signed ? cn : "Example Root");
  spec.subject = distinguished_name::org("US", "Example Trust", cn);
  spec.key_alg = key;
  spec.sig_alg = signature_algorithm::sha256_rsa_4096;
  spec.extensions = {
      make_basic_constraints(true, 0),
      make_key_usage(0x06),
      make_subject_key_id(r),
  };
  return certificate{std::move(spec), r};
}

TEST(DistinguishedName, EncodeAndRender) {
  const auto dn = distinguished_name::org("US", "Let's Encrypt", "R3");
  EXPECT_EQ(dn.to_string(), "C=US, O=Let's Encrypt, CN=R3");
  EXPECT_EQ(dn.common_name(), "R3");
  const bytes der = asn1::encode([&](asn1::writer& w) { dn.encode(w); });
  EXPECT_EQ(der[0], 0x30);
  // C(13) + O(~24) + CN(~9) + header: spot-check a plausible size window.
  EXPECT_GT(der.size(), 30u);
  EXPECT_LT(der.size(), 70u);
}

TEST(DistinguishedName, EqualityIsStructural) {
  const auto a = distinguished_name::cn("x");
  const auto b = distinguished_name::cn("x");
  const auto c = distinguished_name::cn("y");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(Key, SpkiSizesMatchRealWorld) {
  rng r{1};
  // Real-world DER sizes: RSA-2048 SPKI = 294 B, RSA-4096 = 550 B,
  // P-256 = 91 B, P-384 = 120 B.
  EXPECT_EQ(spki_of(key_algorithm::rsa_2048, r).size(), 294u);
  EXPECT_EQ(spki_of(key_algorithm::rsa_4096, r).size(), 550u);
  EXPECT_EQ(spki_of(key_algorithm::ecdsa_p256, r).size(), 91u);
  EXPECT_EQ(spki_of(key_algorithm::ecdsa_p384, r).size(), 120u);
}

TEST(Key, SignatureSizesMatchRealWorld) {
  rng r{2};
  EXPECT_EQ(signature_of(signature_algorithm::sha256_rsa_2048, r)
                .size(),
            261u);  // 256 + BIT STRING framing
  EXPECT_EQ(signature_of(signature_algorithm::sha256_rsa_4096, r)
                .size(),
            517u);
  // ECDSA signatures jitter by the r/s sign octets: P-256 in [70, 74],
  // P-384 in [102, 106] including framing.
  for (int i = 0; i < 50; ++i) {
    const auto p256 =
        signature_of(signature_algorithm::ecdsa_sha256, r).size();
    EXPECT_GE(p256, 70u);
    EXPECT_LE(p256, 77u);
    const auto p384 =
        signature_of(signature_algorithm::ecdsa_sha384, r).size();
    EXPECT_GE(p384, 102u);
    EXPECT_LE(p384, 109u);
  }
}

TEST(Key, SignatureByIssuerKey) {
  EXPECT_EQ(signature_by(key_algorithm::rsa_2048),
            signature_algorithm::sha256_rsa_2048);
  EXPECT_EQ(signature_by(key_algorithm::ecdsa_p384),
            signature_algorithm::ecdsa_sha384);
}

TEST(Extensions, SubjectAltNameRoundTrip) {
  const std::vector<std::string> names = {"a.example", "*.b.example",
                                          "c.example"};
  const extension ext = make_subject_alt_name(names);
  EXPECT_EQ(parse_subject_alt_name(ext), names);
}

TEST(Extensions, SanSizeGrowsWithNames) {
  std::vector<std::string> names;
  const extension empty_ish = make_subject_alt_name({"x.example"});
  for (int i = 0; i < 50; ++i) {
    names.push_back("host" + std::to_string(i) + ".example.com");
  }
  const extension big = make_subject_alt_name(names);
  EXPECT_GT(big.encoded_size(), empty_ish.encoded_size() + 45 * 20);
}

TEST(Extensions, BasicConstraintsDistinguishesCa) {
  const extension ca = make_basic_constraints(true, 0);
  const extension leaf = make_basic_constraints(false);
  EXPECT_GT(ca.value.size(), leaf.value.size());
  EXPECT_TRUE(ca.critical);
}

TEST(Extensions, SctListSizeScalesWithCount) {
  rng r{3};
  const auto two = make_sct_list(2, r).encoded_size();
  const auto three = make_sct_list(3, r).encoded_size();
  // 119-byte SCT + 2-byte length prefix, plus up to two DER length-form
  // promotions (OCTET STRING and Extension SEQUENCE crossing 255 bytes).
  EXPECT_GE(three - two, 121u);
  EXPECT_LE(three - two, 123u);
}

TEST(Certificate, EncodesRealisticLeafSize) {
  rng r{4};
  const certificate leaf = make_leaf(r);
  // A DV ECDSA leaf with 2 SANs and 2 SCTs is ~1.0-1.3 kB in the wild.
  EXPECT_GT(leaf.size(), 900u);
  EXPECT_LT(leaf.size(), 1400u);
  EXPECT_FALSE(leaf.is_ca());
  EXPECT_FALSE(leaf.self_signed());
}

TEST(Certificate, FieldSizesSumToTotal) {
  rng r{5};
  const certificate leaf = make_leaf(r);
  const field_sizes& s = leaf.sizes();
  EXPECT_EQ(s.total, leaf.der().size());
  EXPECT_GT(s.other(), 0u);
  EXPECT_EQ(s.subject + s.issuer + s.public_key_info + s.extensions +
                s.signature + s.other(),
            s.total);
}

TEST(Certificate, DerParsesAsThreeElementSequence) {
  rng r{6};
  const certificate leaf = make_leaf(r);
  buffer_reader reader{leaf.der()};
  const asn1::tlv outer = asn1::read_tlv(reader);
  EXPECT_TRUE(outer.is(asn1::tag::sequence));
  EXPECT_TRUE(reader.empty());
  const auto kids = asn1::children(outer);
  ASSERT_EQ(kids.size(), 3u);          // tbs, sigAlg, signature
  EXPECT_TRUE(kids[0].is(asn1::tag::sequence));
  EXPECT_TRUE(kids[1].is(asn1::tag::sequence));
  EXPECT_TRUE(kids[2].is(asn1::tag::bit_string));
}

TEST(Certificate, RsaLeafLargerThanEcdsaLeaf) {
  rng r{7};
  const certificate ec = make_leaf(r, key_algorithm::ecdsa_p256);
  const certificate rsa = make_leaf(r, key_algorithm::rsa_2048,
                                    signature_algorithm::sha256_rsa_2048);
  EXPECT_GT(rsa.size(), ec.size() + 150);
}

TEST(Certificate, SanBytesTracked) {
  rng r{8};
  const certificate leaf = make_leaf(r);
  EXPECT_GT(leaf.san_bytes(), 0u);
  EXPECT_LT(leaf.san_bytes(), leaf.size());
  EXPECT_EQ(leaf.subject_alt_names().size(), 2u);
}

TEST(Certificate, CaAndSelfSignedDetection) {
  rng r{9};
  const certificate ca = make_ca(r, "Example Root", key_algorithm::rsa_4096,
                                 /*self_signed=*/false);
  EXPECT_TRUE(ca.is_ca());
  certificate_spec root_spec;
  root_spec.issuer = distinguished_name::org("US", "T", "Root X");
  root_spec.subject = distinguished_name::org("US", "T", "Root X");
  root_spec.extensions = {make_basic_constraints(true)};
  const certificate root{std::move(root_spec), r};
  EXPECT_TRUE(root.self_signed());
}

TEST(Certificate, SerialIsPositiveAnd16Bytes) {
  rng r{10};
  for (int i = 0; i < 20; ++i) {
    const certificate leaf = make_leaf(r);
    EXPECT_EQ(leaf.serial().size(), 16u);
    EXPECT_EQ(leaf.serial()[0] & 0x80, 0);
  }
}

TEST(Chain, SizesAndDepth) {
  rng r{11};
  auto inter = std::make_shared<const certificate>(make_ca(r, "CA 1"));
  auto root = std::make_shared<const certificate>(
      make_ca(r, "Root", key_algorithm::rsa_4096));
  const certificate leaf = make_leaf(r);
  const std::size_t leaf_size = leaf.size();
  const chain c{leaf, {inter, root}};
  EXPECT_EQ(c.depth(), 3u);
  EXPECT_EQ(c.wire_size(), leaf_size + inter->size() + root->size());
  EXPECT_EQ(c.parent_wire_size(), inter->size() + root->size());
  EXPECT_EQ(c.concatenated_der().size(), c.wire_size());
}

TEST(Chain, EmptyChainBehaviour) {
  const chain c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.wire_size(), 0u);
  EXPECT_THROW((void)c.leaf(), config_error);
}

TEST(Chain, DetectsTrustAnchorInclusion) {
  rng r{12};
  certificate_spec root_spec;
  root_spec.issuer = distinguished_name::org("US", "T", "Root X");
  root_spec.subject = distinguished_name::org("US", "T", "Root X");
  root_spec.extensions = {make_basic_constraints(true)};
  auto root = std::make_shared<const certificate>(
      certificate{std::move(root_spec), r});
  auto inter = std::make_shared<const certificate>(make_ca(r, "CA 2"));

  const chain with_anchor{make_leaf(r), {inter, root}};
  EXPECT_TRUE(with_anchor.includes_trust_anchor());
  const chain without{make_leaf(r), {inter}};
  EXPECT_FALSE(without.includes_trust_anchor());
}

TEST(Chain, SharedParentsReuseBytes) {
  rng r{13};
  auto inter = std::make_shared<const certificate>(make_ca(r, "Shared CA"));
  const chain a{make_leaf(r), {inter}};
  const chain b{make_leaf(r), {inter}};
  EXPECT_EQ(a.parents()[0].get(), b.parents()[0].get());
}

// Property sweep: every (key, signature) combination encodes, parses and
// accounts sizes consistently.
struct AlgCase {
  key_algorithm key;
  signature_algorithm sig;
};

class CertificateAlgSweep : public ::testing::TestWithParam<AlgCase> {};

TEST_P(CertificateAlgSweep, EncodesAndAccounts) {
  rng r{977};
  const auto& param = GetParam();
  const certificate leaf = make_leaf(r, param.key, param.sig);
  EXPECT_EQ(leaf.sizes().total, leaf.size());
  // SPKI sizes must match the algorithm exactly.
  const std::size_t expected_spki =
      param.key == key_algorithm::rsa_2048     ? 294u
      : param.key == key_algorithm::rsa_4096   ? 550u
      : param.key == key_algorithm::ecdsa_p256 ? 91u
                                               : 120u;
  EXPECT_EQ(leaf.sizes().public_key_info, expected_spki);
  buffer_reader reader{leaf.der()};
  EXPECT_NO_THROW((void)asn1::read_tlv(reader));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CertificateAlgSweep,
    ::testing::Values(
        AlgCase{key_algorithm::rsa_2048, signature_algorithm::sha256_rsa_2048},
        AlgCase{key_algorithm::rsa_2048, signature_algorithm::sha256_rsa_4096},
        AlgCase{key_algorithm::rsa_4096, signature_algorithm::sha256_rsa_2048},
        AlgCase{key_algorithm::ecdsa_p256, signature_algorithm::ecdsa_sha256},
        AlgCase{key_algorithm::ecdsa_p256,
                signature_algorithm::sha256_rsa_2048},
        AlgCase{key_algorithm::ecdsa_p384, signature_algorithm::ecdsa_sha384}));

}  // namespace
}  // namespace certquic::x509
