#include "x509/extensions.hpp"

#include "util/errors.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {
namespace {

/// Fills `out` (32 bytes) with the id of CT log `index % 8`.
void fill_log_id(std::size_t index, std::span<std::uint8_t> out) {
  // A fixed set of CT log identities stands in for the real public logs
  // (Google Argon/Xenon, Cloudflare Nimbus, DigiCert Yeti, ...). Keeping
  // them constant matters for the compression study: log ids repeat
  // across the whole corpus and are dictionary-compressible, exactly as
  // in real chains.
  rng log_rng{0x1070'0000 + static_cast<std::uint64_t>(index % 8)};
  log_rng.fill(out);
}

}  // namespace

void extension::encode(asn1::writer& w) const {
  w.sequence([&] {
    w.oid(id);
    if (critical) {
      w.boolean(true);
    }
    w.octet_string(value);
  });
}

std::size_t extension::encoded_size() const {
  return asn1::encode([&](asn1::writer& w) { encode(w); }).size();
}

extension make_basic_constraints(bool is_ca, std::optional<int> path_len) {
  return {oids::basic_constraints, /*critical=*/true,
          asn1::encode([&](asn1::writer& w) {
            w.sequence([&] {
              if (is_ca) {
                w.boolean(true);
                if (path_len) {
                  w.integer(*path_len);
                }
              }
            });
          })};
}

extension make_key_usage(std::uint8_t bits) {
  // KeyUsage is a BIT STRING; X.509 uses up to 9 bits, we model the
  // common single-octet form.
  int unused = 0;
  std::uint8_t probe = bits;
  if (probe == 0) {
    unused = 8;
  } else {
    while ((probe & 0x01) == 0) {
      probe = static_cast<std::uint8_t>(probe >> 1);
      ++unused;
    }
  }
  return {oids::key_usage, /*critical=*/true,
          asn1::encode([&](asn1::writer& w) {
            w.bit_string({&bits, 1}, static_cast<std::uint8_t>(unused));
          })};
}

extension make_ext_key_usage(bool client_auth) {
  return {oids::ext_key_usage, /*critical=*/false,
          asn1::encode([&](asn1::writer& w) {
            w.sequence([&] {
              w.oid(oids::eku_server_auth);
              if (client_auth) {
                w.oid(oids::eku_client_auth);
              }
            });
          })};
}

extension make_subject_key_id(rng& r) {
  return {oids::subject_key_identifier, /*critical=*/false,
          asn1::encode([&](asn1::writer& w) {
            r.fill(w.primitive(asn1::tag::octet_string, 20));
          })};
}

extension make_authority_key_id(bytes_view issuer_key_id) {
  // AuthorityKeyIdentifier ::= SEQUENCE { keyIdentifier [0] IMPLICIT ... }.
  return {oids::authority_key_identifier, /*critical=*/false,
          asn1::encode([&](asn1::writer& w) {
            w.sequence([&] { w.implicit(0, issuer_key_id); });
          })};
}

extension make_subject_alt_name(const std::vector<std::string>& dns_names) {
  return {oids::subject_alt_name, /*critical=*/false,
          asn1::encode([&](asn1::writer& w) {
            w.sequence([&] {
              for (const auto& name : dns_names) {
                // GeneralName dNSName is [2] IMPLICIT IA5String.
                w.implicit(2, std::string_view{name});
              }
            });
          })};
}

extension make_authority_info_access(const std::string& ocsp_url,
                                     const std::string& ca_issuers_url) {
  return {oids::authority_info_access, /*critical=*/false,
          asn1::encode([&](asn1::writer& w) {
            auto access = [&w](const asn1::object_id& method,
                               std::string_view url) {
              // GeneralName uniformResourceIdentifier is [6] IMPLICIT
              // IA5String.
              w.sequence([&] {
                w.oid(method);
                w.implicit(6, url);
              });
            };
            w.sequence([&] {
              if (!ocsp_url.empty()) {
                access(oids::aia_ocsp, ocsp_url);
              }
              if (!ca_issuers_url.empty()) {
                access(oids::aia_ca_issuers, ca_issuers_url);
              }
            });
          })};
}

extension make_crl_distribution_points(const std::string& url) {
  // DistributionPoint ::= SEQUENCE { distributionPoint [0] { fullName [0]
  //   GeneralNames } } — two nested context tags around the URI.
  return {oids::crl_distribution_points, /*critical=*/false,
          asn1::encode([&](asn1::writer& w) {
            w.sequence([&] {
              w.sequence([&] {
                w.context(0, [&] {
                  w.context(0, [&] { w.implicit(6, std::string_view{url}); });
                });
              });
            });
          })};
}

extension make_certificate_policies(bool organization_validated,
                                    const std::string& cps_uri) {
  return {oids::certificate_policies, /*critical=*/false,
          asn1::encode([&](asn1::writer& w) {
            w.sequence([&] {
              w.sequence([&] {
                w.oid(organization_validated
                          ? oids::policy_organization_validated
                          : oids::policy_domain_validated);
                if (!cps_uri.empty()) {
                  w.sequence([&] {
                    w.sequence([&] {
                      w.oid(oids::policy_cps);
                      w.ia5_string(cps_uri);
                    });
                  });
                }
              });
            });
          })};
}

bytes well_known_log_id(std::size_t index) {
  bytes id(32);
  fill_log_id(index, id);
  return id;
}

extension make_sct_list(std::size_t count, rng& r) {
  // RFC 6962 SignedCertificateTimestampList inside an OCTET STRING:
  // a 2-byte list length, then per SCT a 2-byte length + 119 bytes
  // (version + 32-byte log id + timestamp + ECDSA signature).
  constexpr std::size_t kSct = 1 + 32 + 86;
  const std::size_t list_len = count * (2 + kSct);
  return {oids::sct_list, /*critical=*/false,
          asn1::encode([&](asn1::writer& w) {
            const std::span<std::uint8_t> list =
                w.primitive(asn1::tag::octet_string, 2 + list_len);
            list[0] = static_cast<std::uint8_t>(list_len >> 8);
            list[1] = static_cast<std::uint8_t>(list_len);
            for (std::size_t i = 0; i < count; ++i) {
              const std::span<std::uint8_t> sct =
                  list.subspan(2 + i * (2 + kSct), 2 + kSct);
              sct[0] = 0;
              sct[1] = static_cast<std::uint8_t>(kSct);
              sct[2] = 0;  // version v1
              fill_log_id(r.uniform(0, 7), sct.subspan(3, 32));
              r.fill(sct.subspan(35));  // timestamp + ECDSA signature
            }
          })};
}

std::vector<std::string> parse_subject_alt_name(bytes_view value) {
  buffer_reader r{value};
  const asn1::tlv outer = asn1::read_tlv(r);
  if (!outer.is(asn1::tag::sequence)) {
    throw codec_error("subjectAltName is not a SEQUENCE");
  }
  std::vector<std::string> names;
  for (const auto& child : asn1::children(outer)) {
    if (child.tag_byte == 0x82) {  // [2] IMPLICIT dNSName
      names.emplace_back(child.content.begin(), child.content.end());
    }
  }
  return names;
}

}  // namespace certquic::x509
