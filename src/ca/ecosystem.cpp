#include "ca/ecosystem.hpp"

#include <algorithm>
#include <array>

#include "util/errors.hpp"
#include "x509/extensions.hpp"

namespace certquic::ca {

using x509::certificate;
using x509::certificate_spec;
using x509::distinguished_name;
using x509::key_algorithm;
using x509::signature_algorithm;

namespace {

/// Extension richness of a CA certificate; modern intermediates carry
/// the full operational set, legacy roots are sparse.
enum class ca_style { root, legacy_root, intermediate };

std::shared_ptr<const certificate> make_ca_cert(
    rng& r, const distinguished_name& subject,
    const distinguished_name& issuer, key_algorithm key,
    key_algorithm issuer_key, ca_style style, const std::string& url_host) {
  certificate_spec spec;
  spec.subject = subject;
  spec.issuer = issuer;
  spec.key_alg = key;
  spec.sig_alg = x509::signature_by(issuer_key);
  // CA certificates are long-lived.
  spec.valid = {"200904000000Z", "300904000000Z"};
  spec.extensions.reserve(8);
  spec.extensions.push_back(x509::make_basic_constraints(true, 0));
  spec.extensions.push_back(x509::make_key_usage(0x86));  // sign+certSign+crl
  spec.extensions.push_back(x509::make_subject_key_id(r));
  if (style != ca_style::legacy_root) {
    std::array<std::uint8_t, 20> issuer_key_id;
    r.fill(issuer_key_id);
    spec.extensions.push_back(x509::make_authority_key_id(issuer_key_id));
  }
  if (style == ca_style::intermediate) {
    spec.extensions.push_back(x509::make_ext_key_usage(true));
    spec.extensions.push_back(x509::make_certificate_policies(
        false, "http://" + url_host + "/cps"));
    spec.extensions.push_back(x509::make_authority_info_access(
        "http://ocsp." + url_host, "http://" + url_host + "/root.crt"));
    spec.extensions.push_back(x509::make_crl_distribution_points(
        "http://crl." + url_host + "/root.crl"));
  }
  return std::make_shared<const certificate>(std::move(spec), r);
}

/// The extensions every leaf opens with, in issuance (and rng draw)
/// order: a random issuer key id, then basicConstraints through
/// subjectAltName. Appended one by one, not copied out of a braced
/// list; room is reserved for `more` extensions to follow.
std::vector<x509::extension> leaf_extensions(
    const std::vector<std::string>& sans, rng& r, std::size_t more) {
  std::array<std::uint8_t, 20> issuer_key_id;
  r.fill(issuer_key_id);
  std::vector<x509::extension> exts;
  exts.reserve(6 + more);
  exts.push_back(x509::make_basic_constraints(false));
  exts.push_back(x509::make_key_usage(0x80));
  exts.push_back(x509::make_ext_key_usage(true));
  exts.push_back(x509::make_subject_key_id(r));
  exts.push_back(x509::make_authority_key_id(issuer_key_id));
  exts.push_back(x509::make_subject_alt_name(sans));
  return exts;
}

/// ML-DSA twin of a classical parent certificate: the same position in
/// the hierarchy (subject, issuer) and the same extension richness as
/// its classical counterpart — built through make_ca_cert so
/// intermediates keep their full operational set (EKU, policies, AIA,
/// CRL DP) — with ML-DSA-65 keys on intermediates, ML-DSA-87 on roots,
/// and ML-DSA-87 signatures (every named parent is signed by a
/// root-grade key). Per-record pqc_full size deltas therefore isolate
/// the algorithm change; only the operational host is a synthetic
/// placeholder of realistic length.
std::shared_ptr<const certificate> make_pqc_twin(const certificate& parent,
                                                 rng& r) {
  const bool root = parent.self_signed();
  return make_ca_cert(
      r, parent.subject(), parent.issuer(),
      root ? key_algorithm::mldsa_87 : key_algorithm::mldsa_65,
      key_algorithm::mldsa_87, root ? ca_style::root : ca_style::intermediate,
      "pq.pki.example");
}

}  // namespace

std::size_t chain_profile::parent_wire_size() const {
  std::size_t total = 0;
  for (const auto& parent : parents) {
    total += parent->size();
  }
  return total;
}

ecosystem ecosystem::make(std::uint64_t seed) {
  rng r{seed};
  ecosystem eco;

  // ---- Distinguished names of the real hierarchies -----------------------
  const auto dn_cf =
      distinguished_name::org("US", "Cloudflare, Inc.", "Cloudflare Inc ECC CA-3");
  const auto dn_baltimore = distinguished_name::org(
      "IE", "Baltimore", "Baltimore CyberTrust Root");
  const auto dn_r3 = distinguished_name::org("US", "Let's Encrypt", "R3");
  const auto dn_e1 = distinguished_name::org("US", "Let's Encrypt", "E1");
  const auto dn_x1 = distinguished_name::org(
      "US", "Internet Security Research Group", "ISRG Root X1");
  const auto dn_x2 = distinguished_name::org(
      "US", "Internet Security Research Group", "ISRG Root X2");
  const auto dn_dst = distinguished_name::org(
      "US", "Digital Signature Trust Co.", "DST Root CA X3");
  const auto dn_gts_r1 = distinguished_name::org(
      "US", "Google Trust Services LLC", "GTS Root R1");
  const auto dn_gts_1c3 = distinguished_name::org(
      "US", "Google Trust Services LLC", "GTS CA 1C3");
  const auto dn_gts_1d4 = distinguished_name::org(
      "US", "Google Trust Services LLC", "GTS CA 1D4");
  const auto dn_globalsign_root = distinguished_name::org(
      "BE", "GlobalSign nv-sa", "GlobalSign Root CA - R3");
  const auto dn_usertrust = distinguished_name::org(
      "US", "The USERTRUST Network", "USERTrust RSA Certification Authority");
  const auto dn_sectigo = distinguished_name::org(
      "GB", "Sectigo Limited", "Sectigo RSA Domain Validation Secure Server CA");
  const auto dn_comodo = distinguished_name::org(
      "GB", "COMODO CA Limited", "COMODO RSA Certification Authority");
  const auto dn_cpanel =
      distinguished_name::org("US", "cPanel, Inc.", "cPanel, Inc. Certification Authority");
  const auto dn_globalsign_atlas = distinguished_name::org(
      "BE", "GlobalSign nv-sa", "GlobalSign Atlas R3 DV TLS CA H2 2021");
  const auto dn_digicert_root = distinguished_name::org(
      "US", "DigiCert Inc", "DigiCert Global Root CA");
  const auto dn_digicert_ca1 = distinguished_name::org(
      "US", "DigiCert Inc", "DigiCert TLS RSA SHA256 2020 CA1");
  const auto dn_amazon_root =
      distinguished_name::org("US", "Amazon", "Amazon Root CA 1");
  const auto dn_amazon_m01 =
      distinguished_name::org("US", "Amazon", "Amazon RSA 2048 M01");
  const auto dn_godaddy_root = distinguished_name::org(
      "US", "GoDaddy.com, Inc.", "GoDaddy Root Certificate Authority - G2");
  const auto dn_godaddy_g2 = distinguished_name::org(
      "US", "GoDaddy.com, Inc.", "GoDaddy Secure Certificate Authority - G2");

  // ---- Parent certificates ------------------------------------------------
  const auto cf_ecc = make_ca_cert(r, dn_cf, dn_baltimore,
                                   key_algorithm::ecdsa_p256,
                                   key_algorithm::rsa_2048,
                                   ca_style::intermediate, "cloudflare.com");
  const auto le_r3 = make_ca_cert(r, dn_r3, dn_x1, key_algorithm::rsa_2048,
                                  key_algorithm::rsa_4096,
                                  ca_style::intermediate, "x1.i.lencr.org");
  const auto le_e1 = make_ca_cert(r, dn_e1, dn_x2, key_algorithm::ecdsa_p384,
                                  key_algorithm::ecdsa_p384,
                                  ca_style::intermediate, "x2.i.lencr.org");
  const auto isrg_x1_cross =
      make_ca_cert(r, dn_x1, dn_dst, key_algorithm::rsa_4096,
                   key_algorithm::rsa_2048, ca_style::intermediate,
                   "apps.identrust.com");
  const auto isrg_x1_self =
      make_ca_cert(r, dn_x1, dn_x1, key_algorithm::rsa_4096,
                   key_algorithm::rsa_4096, ca_style::root, "x1.i.lencr.org");
  const auto isrg_x2_self =
      make_ca_cert(r, dn_x2, dn_x2, key_algorithm::ecdsa_p384,
                   key_algorithm::ecdsa_p384, ca_style::root,
                   "x2.i.lencr.org");
  const auto gts_r1_cross = make_ca_cert(
      r, dn_gts_r1, dn_globalsign_root, key_algorithm::rsa_4096,
      key_algorithm::rsa_2048, ca_style::intermediate, "pki.goog");
  const auto gts_1c3 =
      make_ca_cert(r, dn_gts_1c3, dn_gts_r1, key_algorithm::rsa_2048,
                   key_algorithm::rsa_4096, ca_style::intermediate,
                   "pki.goog");
  const auto gts_1d4 =
      make_ca_cert(r, dn_gts_1d4, dn_gts_r1, key_algorithm::ecdsa_p256,
                   key_algorithm::rsa_4096, ca_style::intermediate,
                   "pki.goog");
  // As served by Sectigo, the USERTrust root is cross-signed by the
  // older AAA Certificate Services root rather than self-signed.
  const auto dn_aaa = distinguished_name::org(
      "GB", "Comodo CA Limited", "AAA Certificate Services");
  const auto usertrust_root = make_ca_cert(
      r, dn_usertrust, dn_aaa, key_algorithm::rsa_4096,
      key_algorithm::rsa_2048, ca_style::root, "usertrust.com");
  const auto sectigo_dv =
      make_ca_cert(r, dn_sectigo, dn_usertrust, key_algorithm::rsa_2048,
                   key_algorithm::rsa_4096, ca_style::intermediate,
                   "sectigo.com");
  const auto comodo_root =
      make_ca_cert(r, dn_comodo, dn_comodo, key_algorithm::rsa_4096,
                   key_algorithm::rsa_4096, ca_style::root, "comodoca.com");
  const auto cpanel_ca =
      make_ca_cert(r, dn_cpanel, dn_comodo, key_algorithm::rsa_2048,
                   key_algorithm::rsa_4096, ca_style::intermediate,
                   "comodoca.com");
  const auto globalsign_atlas = make_ca_cert(
      r, dn_globalsign_atlas, dn_globalsign_root, key_algorithm::rsa_2048,
      key_algorithm::rsa_2048, ca_style::intermediate, "globalsign.com");
  const auto digicert_root = make_ca_cert(
      r, dn_digicert_root, dn_digicert_root, key_algorithm::rsa_2048,
      key_algorithm::rsa_2048, ca_style::legacy_root, "digicert.com");
  const auto digicert_ca1 =
      make_ca_cert(r, dn_digicert_ca1, dn_digicert_root,
                   key_algorithm::rsa_2048, key_algorithm::rsa_2048,
                   ca_style::intermediate, "digicert.com");
  const auto amazon_root = make_ca_cert(
      r, dn_amazon_root, dn_amazon_root, key_algorithm::rsa_2048,
      key_algorithm::rsa_2048, ca_style::legacy_root, "amazontrust.com");
  const auto amazon_m01 =
      make_ca_cert(r, dn_amazon_m01, dn_amazon_root, key_algorithm::rsa_2048,
                   key_algorithm::rsa_2048, ca_style::intermediate,
                   "amazontrust.com");
  const auto godaddy_g2 =
      make_ca_cert(r, dn_godaddy_g2, dn_godaddy_root, key_algorithm::rsa_2048,
                   key_algorithm::rsa_2048, ca_style::intermediate,
                   "certs.godaddy.com");

  // ---- Fig. 7a (QUIC services) + Fig. 7b (HTTPS-only) rows ---------------
  // Shares are the published row percentages; 96.49% / 71.91% coverage,
  // the remainder flows through issue_other().
  auto add = [&eco](chain_profile p) { eco.profiles_.push_back(std::move(p)); };

  add({.id = "cloudflare",
       .display = "Cloudflare Inc ECC CA-3",
       .parents = {cf_ecc},
       .quic_share = 0.6154,
       .https_share = 0.0140,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 4,
                .max_sans = 6,
                .sct_count = 3,
                .url_host = "cloudflaressl.com"},
       .parents_pqc = {}});
  // Fig. 7a rows 2 and 3: both serve R3 plus the DST-cross-signed ISRG
  // Root X1 (§4.2 calls this out as superfluous); they differ in the
  // leaf key algorithm.
  add({.id = "le-r3-x1cross",
       .display = "Let's Encrypt R3 + ISRG Root X1 (DST cross), RSA leaves",
       .parents = {le_r3, isrg_x1_cross},
       .quic_share = 0.1680,
       .https_share = 0.4142,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 2,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "r3.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = "le-r3-x1cross-ec",
       .display = "Let's Encrypt R3 + ISRG Root X1 (DST cross), ECDSA leaves",
       .parents = {le_r3, isrg_x1_cross},
       .quic_share = 0.1031,
       .https_share = 0.0,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "r3.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = "le-r3",
       .display = "Let's Encrypt R3",
       .parents = {le_r3},
       .quic_share = 0.0,
       .https_share = 0.0176,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .rsa_mix = 0.35,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "r3.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = "le-e1-x2",
       .display = "Let's Encrypt E1 + ISRG Root X2",
       .parents = {le_e1, isrg_x2_self},
       .quic_share = 0.0189,
       .https_share = 0.0,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "e1.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = "gts-1c3",
       .display = "GTS CA 1C3 + GTS Root R1",
       .parents = {gts_1c3, gts_r1_cross},
       .quic_share = 0.0153,
       .https_share = 0.0,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 1,
                .max_sans = 6,
                .sct_count = 2,
                .url_host = "pki.goog"},
       .parents_pqc = {}});
  add({.id = "le-r3-x1self",
       .display = "Let's Encrypt R3 + ISRG Root X1 (self-signed)",
       .parents = {le_r3, isrg_x1_self},
       .quic_share = 0.0127,
       .https_share = 0.0,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .rsa_mix = 0.3,
                .min_sans = 1,
                .max_sans = 4,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "r3.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = "gts-1d4",
       .display = "GTS CA 1D4 + GTS Root R1",
       .parents = {gts_1d4, gts_r1_cross},
       .quic_share = 0.0103,
       .https_share = 0.0,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 1,
                .max_sans = 4,
                .sct_count = 2,
                .url_host = "pki.goog"},
       .parents_pqc = {}});
  add({.id = "sectigo",
       .display = "Sectigo RSA DV + USERTrust RSA CA",
       .parents = {sectigo_dv, usertrust_root},
       .quic_share = 0.0092,
       .https_share = 0.0633,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .url_host = "sectigo.com"},
       .parents_pqc = {}});
  add({.id = "cpanel",
       .display = "cPanel, Inc. CA + COMODO RSA CA",
       .parents = {cpanel_ca, comodo_root},
       .quic_share = 0.0083,
       .https_share = 0.0503,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 2,
                .max_sans = 8,
                .sct_count = 3,
                .url_host = "comodoca.com"},
       .parents_pqc = {}});
  add({.id = "globalsign",
       .display = "GlobalSign Atlas R3 DV TLS CA H2 2021",
       .parents = {globalsign_atlas},
       .quic_share = 0.0037,
       .https_share = 0.0,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .url_host = "globalsign.com"},
       .parents_pqc = {}});
  // HTTPS-only rows absent from the QUIC top-10.
  add({.id = "digicert",
       .display = "DigiCert TLS RSA SHA256 2020 CA1 + DigiCert Global Root",
       .parents = {digicert_ca1, digicert_root},
       .quic_share = 0.0,
       .https_share = 0.0455,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 6,
                .sct_count = 3,
                .organization_validated = true,
                .url_host = "digicert.com"},
       .parents_pqc = {}});
  add({.id = "amazon",
       .display = "Amazon RSA 2048 M01 + Amazon Root CA 1",
       .parents = {amazon_m01, amazon_root},
       .quic_share = 0.0,
       .https_share = 0.0424,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 5,
                .sct_count = 2,
                .url_host = "amazontrust.com"},
       .parents_pqc = {}});
  add({.id = "comodo",
       .display = "cPanel, Inc. CA + COMODO RSA CA (legacy)",
       .parents = {cpanel_ca, comodo_root},
       .quic_share = 0.0,
       .https_share = 0.0403,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 6,
                .sct_count = 3,
                .url_host = "comodoca.com"},
       .parents_pqc = {}});
  add({.id = "godaddy",
       .display = "GoDaddy Secure CA - G2",
       .parents = {godaddy_g2},
       .quic_share = 0.0,
       .https_share = 0.0160,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 4,
                .sct_count = 2,
                .url_host = "godaddy.com"},
       .parents_pqc = {}});
  add({.id = "comodo-with-root",
       .display = "Sectigo RSA DV + USERTrust + COMODO root (superfluous anchor)",
       .parents = {sectigo_dv, usertrust_root, comodo_root},
       .quic_share = 0.0,
       .https_share = 0.0155,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 4,
                .sct_count = 3,
                .url_host = "sectigo.com"},
       .parents_pqc = {}});

  // ML-DSA twins of every distinct named parent, for pqc_full chains.
  // Drawn from a dedicated stream so the classical parents above — and
  // every golden output derived from them — keep their exact bytes.
  rng pq_rng{seed ^ 0x90C5'0D5AULL};
  std::vector<std::pair<const certificate*,
                        std::shared_ptr<const certificate>>>
      twins;
  for (auto& p : eco.profiles_) {
    p.parents_pqc.reserve(p.parents.size());
    for (const auto& parent : p.parents) {
      std::shared_ptr<const certificate> twin;
      for (const auto& [classical, existing] : twins) {
        if (classical == parent.get()) {
          twin = existing;
          break;
        }
      }
      if (!twin) {
        twin = make_pqc_twin(*parent, pq_rng);
        twins.emplace_back(parent.get(), twin);
      }
      p.parents_pqc.push_back(std::move(twin));
    }
  }
  return eco;
}

const chain_profile& ecosystem::profile(std::string_view id) const {
  for (const auto& p : profiles_) {
    if (p.id == id) {
      return p;
    }
  }
  throw config_error("unknown chain profile: " + std::string(id));
}

x509::chain ecosystem::issue(const chain_profile& profile,
                             const std::string& domain, rng& r,
                             x509::pq_profile pq) const {
  const auto& parents = pq == x509::pq_profile::pqc_full
                            ? profile.parents_pqc
                            : profile.parents;
  const leaf_profile& lp = profile.leaf;
  certificate_spec spec;
  spec.issuer = parents.empty() ? distinguished_name::cn("Unknown Issuer")
                                : parents.front()->subject();
  spec.subject = distinguished_name::cn(domain);
  // The classical key draw is consumed under every profile so a
  // record's chain keeps its structure (SANs, SCT count) across the
  // PQC sweep; both PQC stages then put ML-DSA-44 on the leaf.
  spec.key_alg = (lp.rsa_mix > 0.0 && r.chance(lp.rsa_mix))
                     ? key_algorithm::rsa_2048
                     : lp.key_alg;
  if (pq != x509::pq_profile::classical) {
    spec.key_alg = key_algorithm::mldsa_44;
  }
  const key_algorithm issuing_key = parents.empty()
                                        ? key_algorithm::rsa_2048
                                        : parents.front()->key_alg();
  spec.sig_alg = x509::signature_by(issuing_key);

  std::vector<std::string> sans;
  sans.push_back(domain);
  const auto extra = r.uniform(lp.min_sans > 0 ? lp.min_sans - 1 : 0,
                               lp.max_sans > 0 ? lp.max_sans - 1 : 0);
  for (std::uint64_t i = 0; i < extra; ++i) {
    sans.push_back(i == 0 ? "www." + domain
                          : r.ascii_label(3, 10) + "." + domain);
  }

  auto& exts = spec.extensions = leaf_extensions(sans, r, 4);
  exts.push_back(x509::make_certificate_policies(
      lp.organization_validated,
      lp.lean_extensions ? "" : "http://" + lp.url_host + "/cps"));
  exts.push_back(x509::make_authority_info_access(
      "http://ocsp." + lp.url_host, "http://" + lp.url_host + "/ca.crt"));
  if (!lp.lean_extensions) {
    exts.push_back(x509::make_crl_distribution_points(
        "http://crl." + lp.url_host + "/ca.crl"));
  }
  const std::size_t scts =
      lp.sct_count > 1 && r.chance(0.5) ? lp.sct_count - 1 : lp.sct_count;
  exts.push_back(x509::make_sct_list(scts, r));
  certificate leaf{std::move(spec), r};
  return x509::chain{std::move(leaf), parents};
}

x509::chain ecosystem::issue_other(const std::string& domain, rng& r,
                                   const other_chain_options& opt) const {
  // Long-tail CA: random identity, depth 1-4, Table 2 algorithm mixes.
  // QUIC-flavoured tails skew ECDSA and small; HTTPS-only tails skew RSA
  // and reach the 38 kB monsters of Fig. 6.
  const std::string ca_org = r.ascii_label(4, 12);
  const std::string ca_host = ca_org + ".example";

  // Table 2 non-leaf mixes: QUIC {RSA2048, RSA4096, EC256, EC384} =
  // {15.1, 22.4, 40.4, 22.1}%; HTTPS-only = {63.3, 32.1, 2.7, 1.6}%.
  static constexpr double kQuicNonLeaf[] = {0.151, 0.224, 0.404, 0.221};
  static constexpr double kHttpsNonLeaf[] = {0.633, 0.321, 0.027, 0.016};
  static constexpr key_algorithm kAlgs[] = {
      key_algorithm::rsa_2048, key_algorithm::rsa_4096,
      key_algorithm::ecdsa_p256, key_algorithm::ecdsa_p384};
  // The classical draw is always consumed so the tail hierarchy (depth,
  // names, SANs) is identical across chain profiles; pqc_full then
  // replaces the algorithms: ML-DSA-87 root, ML-DSA-65 intermediates.
  const bool pqc_full = opt.pq == x509::pq_profile::pqc_full;
  auto pick_nonleaf = [&](bool root) {
    const key_algorithm classical =
        kAlgs[r.weighted_index(opt.quic_flavor ? kQuicNonLeaf
                                               : kHttpsNonLeaf)];
    if (!pqc_full) {
      return classical;
    }
    return root ? key_algorithm::mldsa_87 : key_algorithm::mldsa_65;
  };

  // Depth distribution: mostly a single intermediate; monsters are rare
  // and deep. A "monster" event also inflates per-certificate content.
  const bool monster = r.chance(opt.quic_flavor ? 0.005 : 0.012);
  std::size_t depth;
  if (monster) {
    depth = 3 + r.uniform(0, 3);  // 3-6 parents
  } else {
    const double d = r.uniform01();
    depth = d < 0.55 ? 1 : (d < 0.9 ? 2 : 3);
  }

  std::vector<std::shared_ptr<const certificate>> parents;
  distinguished_name child_issuer;
  // Build top-down: root first, then intermediates; serve leaf-first.
  distinguished_name above = distinguished_name::org(
      "US", ca_org + " Trust Services", ca_org + " Root CA");
  key_algorithm above_key = pick_nonleaf(true);
  std::vector<std::shared_ptr<const certificate>> top_down;
  const bool include_anchor = r.chance(0.15);  // superfluous root
  if (include_anchor) {
    rng root_rng = r.fork(1);
    top_down.push_back(make_ca_cert(root_rng, above, above, above_key,
                                    above_key, ca_style::root, ca_host));
  }
  distinguished_name parent_dn = above;
  key_algorithm parent_key = above_key;
  for (std::size_t level = 0; level < depth; ++level) {
    const auto dn = distinguished_name::org(
        "US", ca_org + " Trust Services",
        ca_org + " CA " + std::to_string(level + 1));
    const key_algorithm key = pick_nonleaf(false);
    rng level_rng = r.fork(100 + level);
    auto cert = make_ca_cert(level_rng, dn, parent_dn, key, parent_key,
                             ca_style::intermediate, ca_host);
    if (monster) {
      // Monster chains in the wild carry bloated intermediates
      // (government/enterprise CAs with enormous policy statements,
      // kilobyte CPS texts and piles of embedded SCTs). Model by
      // re-issuing with oversized policy content; HTTPS-only tails are
      // allowed to grow larger than QUIC tails (Fig. 6: 38 kB vs 18 kB).
      certificate_spec spec;
      spec.subject = dn;
      spec.issuer = parent_dn;
      spec.key_alg =
          pqc_full ? key_algorithm::mldsa_65 : key_algorithm::rsa_4096;
      spec.sig_alg = x509::signature_by(
          pqc_full ? key_algorithm::mldsa_87 : key_algorithm::rsa_4096);
      const std::size_t cps_len =
          opt.quic_flavor ? 300 + level_rng.uniform(0, 500)
                          : 900 + level_rng.uniform(0, 2600);
      spec.extensions = {
          x509::make_basic_constraints(true, 0),
          x509::make_key_usage(0x86),
          x509::make_subject_key_id(level_rng),
          x509::make_certificate_policies(
              true, "http://" + ca_host + "/cps/" +
                        level_rng.ascii_label(cps_len, cps_len + 200)),
          x509::make_sct_list(3 + level_rng.uniform(0, 5), level_rng),
      };
      cert = std::make_shared<const certificate>(std::move(spec), level_rng);
    }
    top_down.push_back(std::move(cert));
    parent_dn = dn;
    parent_key = key;
  }
  child_issuer = parent_dn;

  // Serve leaf-first order: reverse of construction.
  parents.assign(top_down.rbegin(), top_down.rend());

  // Leaf algorithm, Table 2 leaf mixes: QUIC {19.2, 1.4, 78.9, 0.5}%;
  // HTTPS-only {81.4, 8.1, 7.8, 1.9}% (residuals folded into EC384).
  static constexpr double kQuicLeaf[] = {0.192, 0.014, 0.789, 0.005};
  static constexpr double kHttpsLeaf[] = {0.814, 0.081, 0.078, 0.019};
  key_algorithm leaf_key =
      kAlgs[r.weighted_index(opt.quic_flavor ? kQuicLeaf : kHttpsLeaf)];
  if (opt.pq != x509::pq_profile::classical) {
    leaf_key = key_algorithm::mldsa_44;
  }

  certificate_spec spec;
  spec.issuer = child_issuer;
  spec.subject = distinguished_name::cn(domain);
  spec.key_alg = leaf_key;
  spec.sig_alg = x509::signature_by(parent_key);
  std::vector<std::string> sans{domain, "www." + domain};
  const auto extra = r.uniform(0, monster ? 40 : 4);
  for (std::uint64_t i = 0; i < extra; ++i) {
    sans.push_back(r.ascii_label(3, 12) + "." + domain);
  }
  auto& exts = spec.extensions = leaf_extensions(sans, r, 3);
  exts.push_back(
      x509::make_certificate_policies(false, "http://" + ca_host + "/cps"));
  exts.push_back(x509::make_authority_info_access(
      "http://ocsp." + ca_host, "http://" + ca_host + "/ca.crt"));
  const std::size_t scts = 1 + r.uniform(0, 2);
  exts.push_back(x509::make_sct_list(scts, r));
  certificate leaf{std::move(spec), r};
  return x509::chain{std::move(leaf), std::move(parents)};
}

x509::chain ecosystem::issue_cruise_liner(const std::string& domain,
                                          std::size_t san_count, rng& r,
                                          x509::pq_profile pq) const {
  const chain_profile& base = profile("cpanel");
  const auto& parents =
      pq == x509::pq_profile::pqc_full ? base.parents_pqc : base.parents;
  certificate_spec spec;
  spec.issuer = parents.front()->subject();
  spec.subject = distinguished_name::cn(domain);
  spec.key_alg = pq == x509::pq_profile::classical ? key_algorithm::rsa_2048
                                                   : key_algorithm::mldsa_44;
  spec.sig_alg = x509::signature_by(parents.front()->key_alg());
  std::vector<std::string> sans;
  sans.reserve(san_count + 1);
  sans.push_back(domain);
  for (std::size_t i = 0; i < san_count; ++i) {
    // Shared-hosting SANs: unrelated customer domains on one cert.
    sans.push_back(r.ascii_label(4, 14) + "." +
                   (r.chance(0.5) ? "com" : "net"));
  }
  auto& exts = spec.extensions = leaf_extensions(sans, r, 2);
  exts.push_back(
      x509::make_certificate_policies(false, "http://comodoca.com/cps"));
  exts.push_back(x509::make_sct_list(3, r));
  certificate leaf{std::move(spec), r};
  return x509::chain{std::move(leaf), parents};
}

bytes ecosystem::compression_dictionary() const {
  bytes dict;
  // Common DER fragments first (coldest part of the window)...
  for (const char* fragment :
       {"http://ocsp.", "http://crl.", "/cps", ".com/", ".org/", "www.",
        "Let's Encrypt", "DigiCert Inc", "Sectigo Limited",
        "Google Trust Services LLC", "Cloudflare, Inc.", "Amazon",
        "GlobalSign nv-sa", "Domain Control Validated"}) {
    append(dict, std::string_view{fragment});
  }
  for (std::size_t i = 0; i < 8; ++i) {
    append(dict, x509::well_known_log_id(i));
  }
  // ...then every named parent certificate: the hottest content, since
  // most served chains consist largely of these exact bytes.
  std::vector<const x509::certificate*> seen;
  for (const auto& p : profiles_) {
    for (const auto& parent : p.parents) {
      if (std::find(seen.begin(), seen.end(), parent.get()) == seen.end()) {
        seen.push_back(parent.get());
        append(dict, parent->der());
      }
    }
  }
  return dict;
}

}  // namespace certquic::ca
