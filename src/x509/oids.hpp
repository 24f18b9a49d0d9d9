// Well-known object identifiers used by the X.509 encoder.
#pragma once

#include "asn1/der.hpp"

namespace certquic::x509::oids {

// --- Distinguished-name attribute types (X.520) ---
inline constexpr asn1::object_id common_name{2, 5, 4, 3};
inline constexpr asn1::object_id country{2, 5, 4, 6};
inline constexpr asn1::object_id locality{2, 5, 4, 7};
inline constexpr asn1::object_id state{2, 5, 4, 8};
inline constexpr asn1::object_id organization{2, 5, 4, 10};
inline constexpr asn1::object_id organizational_unit{2, 5, 4, 11};

// --- Public key algorithms ---
inline constexpr asn1::object_id rsa_encryption{1, 2, 840, 113549, 1, 1, 1};
inline constexpr asn1::object_id ec_public_key{1, 2, 840, 10045, 2, 1};
inline constexpr asn1::object_id curve_p256{1, 2, 840, 10045, 3, 1, 7};
inline constexpr asn1::object_id curve_p384{1, 3, 132, 0, 34};

// --- Post-quantum signature algorithms (NIST CSOR, FIPS 204) ---
// ML-DSA uses one OID per parameter set for both the key and the
// signature AlgorithmIdentifier.
inline constexpr asn1::object_id ml_dsa_44{2, 16, 840, 1, 101, 3, 4, 3, 17};
inline constexpr asn1::object_id ml_dsa_65{2, 16, 840, 1, 101, 3, 4, 3, 18};
inline constexpr asn1::object_id ml_dsa_87{2, 16, 840, 1, 101, 3, 4, 3, 19};

// --- Signature algorithms ---
inline constexpr asn1::object_id sha256_with_rsa{1, 2, 840, 113549, 1, 1, 11};
inline constexpr asn1::object_id sha384_with_rsa{1, 2, 840, 113549, 1, 1, 12};
inline constexpr asn1::object_id sha512_with_rsa{1, 2, 840, 113549, 1, 1, 13};
inline constexpr asn1::object_id ecdsa_with_sha256{1, 2, 840, 10045, 4, 3, 2};
inline constexpr asn1::object_id ecdsa_with_sha384{1, 2, 840, 10045, 4, 3, 3};

// --- Certificate extensions (id-ce / id-pe) ---
inline constexpr asn1::object_id subject_key_identifier{2, 5, 29, 14};
inline constexpr asn1::object_id key_usage{2, 5, 29, 15};
inline constexpr asn1::object_id subject_alt_name{2, 5, 29, 17};
inline constexpr asn1::object_id basic_constraints{2, 5, 29, 19};
inline constexpr asn1::object_id crl_distribution_points{2, 5, 29, 31};
inline constexpr asn1::object_id certificate_policies{2, 5, 29, 32};
inline constexpr asn1::object_id authority_key_identifier{2, 5, 29, 35};
inline constexpr asn1::object_id ext_key_usage{2, 5, 29, 37};
inline constexpr asn1::object_id authority_info_access{1, 3, 6, 1, 5, 5, 7, 1, 1};
inline constexpr asn1::object_id sct_list{1, 3, 6, 1, 4, 1, 11129, 2, 4, 2};

// --- Extended key usage purposes ---
inline constexpr asn1::object_id eku_server_auth{1, 3, 6, 1, 5, 5, 7, 3, 1};
inline constexpr asn1::object_id eku_client_auth{1, 3, 6, 1, 5, 5, 7, 3, 2};

// --- Certificate policy identifiers ---
inline constexpr asn1::object_id policy_domain_validated{2, 23, 140, 1, 2, 1};
inline constexpr asn1::object_id policy_organization_validated{2, 23, 140, 1, 2, 2};
inline constexpr asn1::object_id policy_cps{1, 3, 6, 1, 5, 5, 7, 2, 1};

// --- Authority info access methods ---
inline constexpr asn1::object_id aia_ocsp{1, 3, 6, 1, 5, 5, 7, 48, 1};
inline constexpr asn1::object_id aia_ca_issuers{1, 3, 6, 1, 5, 5, 7, 48, 2};

}  // namespace certquic::x509::oids
