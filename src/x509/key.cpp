#include "x509/key.hpp"

#include "util/errors.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {
namespace {

/// Writes a BIT STRING (no unused bits) over `n` octets drawn from `r`;
/// with `set_top_bit`, the first octet's top bit is forced on, as for a
/// full-size RSA modulus or signature.
void random_bit_string(asn1::writer& w, std::size_t n, rng& r,
                       bool set_top_bit = false) {
  const std::span<std::uint8_t> content =
      w.primitive(asn1::tag::bit_string, 1 + n);
  const std::span<std::uint8_t> bits = content.subspan(1);
  r.fill(bits);
  if (set_top_bit) {
    bits[0] |= 0x80;
  }
}

void encode_rsa_spki(asn1::writer& w, std::size_t modulus_bytes, rng& r) {
  w.sequence([&] {
    w.sequence([&] {
      w.oid(oids::rsa_encryption);
      w.null();
    });
    // BIT STRING { RSAPublicKey ::= SEQUENCE { modulus, exponent } }; the
    // modulus has its top bit set, so its INTEGER carries a 0x00 sign
    // octet in front of the random magnitude.
    w.nested(asn1::tag::bit_string, [&] {
      w.raw(std::array<std::uint8_t, 1>{0});  // no unused bits
      w.sequence([&] {
        const std::span<std::uint8_t> modulus =
            w.primitive(asn1::tag::integer, 1 + modulus_bytes).subspan(1);
        r.fill(modulus);
        modulus[0] |= 0x80;
        w.integer(65537);
      });
    });
  });
}

void encode_ec_spki(asn1::writer& w, const asn1::object_id& curve,
                    std::size_t coord_bytes, rng& r) {
  w.sequence([&] {
    w.sequence([&] {
      w.oid(oids::ec_public_key);
      w.oid(curve);
    });
    // Uncompressed point: 0x04 || X || Y.
    const std::span<std::uint8_t> content =
        w.primitive(asn1::tag::bit_string, 2 + 2 * coord_bytes);
    content[1] = 0x04;
    r.fill(content.subspan(2));
  });
}

void ecdsa_signature(asn1::writer& w, std::size_t coord_bytes, rng& r) {
  // ECDSA-Sig-Value ::= SEQUENCE { r INTEGER, s INTEGER }.
  // Random magnitudes reproduce the real size jitter (+0/1 byte for the
  // sign octet) of DER-encoded ECDSA signatures.
  std::array<std::uint8_t, 48> rv{};
  std::array<std::uint8_t, 48> sv{};
  const std::span<std::uint8_t> rs{rv.data(), coord_bytes};
  const std::span<std::uint8_t> ss{sv.data(), coord_bytes};
  r.fill(rs);
  r.fill(ss);
  w.nested(asn1::tag::bit_string, [&] {
    w.raw(std::array<std::uint8_t, 1>{0});  // no unused bits
    w.sequence([&] {
      w.big_integer(rs);
      w.big_integer(ss);
    });
  });
}

// ML-DSA public-key and signature byte sizes per FIPS 204 (Table 2 of
// the standard); the quantities that make PQC chains blow through the
// QUIC amplification budgets.
struct mldsa_params {
  const asn1::object_id& oid;
  std::size_t public_key_bytes;
  std::size_t signature_bytes;
};

const mldsa_params& mldsa_of(key_algorithm a) {
  static const mldsa_params k44{oids::ml_dsa_44, 1312, 2420};
  static const mldsa_params k65{oids::ml_dsa_65, 1952, 3309};
  static const mldsa_params k87{oids::ml_dsa_87, 2592, 4627};
  switch (a) {
    case key_algorithm::mldsa_44:
      return k44;
    case key_algorithm::mldsa_65:
      return k65;
    case key_algorithm::mldsa_87:
      return k87;
    default:
      throw config_error("mldsa_of: not an ML-DSA key algorithm");
  }
}

const mldsa_params& mldsa_of(signature_algorithm a) {
  switch (a) {
    case signature_algorithm::mldsa_44:
      return mldsa_of(key_algorithm::mldsa_44);
    case signature_algorithm::mldsa_65:
      return mldsa_of(key_algorithm::mldsa_65);
    case signature_algorithm::mldsa_87:
      return mldsa_of(key_algorithm::mldsa_87);
    default:
      throw config_error("mldsa_of: not an ML-DSA signature algorithm");
  }
}

void encode_mldsa_spki(asn1::writer& w, key_algorithm a, rng& r) {
  // ML-DSA AlgorithmIdentifiers carry no parameters, and the key is the
  // raw encoded public key inside the BIT STRING.
  const mldsa_params& p = mldsa_of(a);
  w.sequence([&] {
    w.sequence([&] { w.oid(p.oid); });
    random_bit_string(w, p.public_key_bytes, r);
  });
}

}  // namespace

bool is_post_quantum(key_algorithm a) noexcept {
  return a == key_algorithm::mldsa_44 || a == key_algorithm::mldsa_65 ||
         a == key_algorithm::mldsa_87;
}

const std::array<pq_profile, 3>& all_pq_profiles() noexcept {
  static const std::array<pq_profile, 3> profiles = {
      pq_profile::classical, pq_profile::pqc_leaf, pq_profile::pqc_full};
  return profiles;
}

std::string to_string(pq_profile p) {
  switch (p) {
    case pq_profile::classical:
      return "classical";
    case pq_profile::pqc_leaf:
      return "pqc_leaf";
    case pq_profile::pqc_full:
      return "pqc_full";
  }
  throw config_error("unknown pq_profile");
}

pq_profile parse_pq_profile(std::string_view name) {
  for (const pq_profile p : all_pq_profiles()) {
    if (to_string(p) == name) {
      return p;
    }
  }
  throw config_error("unknown pq_profile: " + std::string(name));
}

std::string to_string(key_algorithm a) {
  switch (a) {
    case key_algorithm::rsa_2048:
      return "RSA-2048";
    case key_algorithm::rsa_4096:
      return "RSA-4096";
    case key_algorithm::ecdsa_p256:
      return "ECDSA-P256";
    case key_algorithm::ecdsa_p384:
      return "ECDSA-P384";
    case key_algorithm::mldsa_44:
      return "ML-DSA-44";
    case key_algorithm::mldsa_65:
      return "ML-DSA-65";
    case key_algorithm::mldsa_87:
      return "ML-DSA-87";
  }
  throw config_error("unknown key_algorithm");
}

std::string to_string(signature_algorithm a) {
  switch (a) {
    case signature_algorithm::sha256_rsa_2048:
      return "sha256WithRSA(2048)";
    case signature_algorithm::sha256_rsa_4096:
      return "sha256WithRSA(4096)";
    case signature_algorithm::ecdsa_sha256:
      return "ecdsa-with-SHA256";
    case signature_algorithm::ecdsa_sha384:
      return "ecdsa-with-SHA384";
    case signature_algorithm::mldsa_44:
      return "ML-DSA-44";
    case signature_algorithm::mldsa_65:
      return "ML-DSA-65";
    case signature_algorithm::mldsa_87:
      return "ML-DSA-87";
  }
  throw config_error("unknown signature_algorithm");
}

signature_algorithm signature_by(key_algorithm issuer_key) {
  switch (issuer_key) {
    case key_algorithm::rsa_2048:
      return signature_algorithm::sha256_rsa_2048;
    case key_algorithm::rsa_4096:
      return signature_algorithm::sha256_rsa_4096;
    case key_algorithm::ecdsa_p256:
      return signature_algorithm::ecdsa_sha256;
    case key_algorithm::ecdsa_p384:
      return signature_algorithm::ecdsa_sha384;
    case key_algorithm::mldsa_44:
      return signature_algorithm::mldsa_44;
    case key_algorithm::mldsa_65:
      return signature_algorithm::mldsa_65;
    case key_algorithm::mldsa_87:
      return signature_algorithm::mldsa_87;
  }
  throw config_error("unknown issuer key_algorithm");
}

void encode_signature_algorithm(asn1::writer& w, signature_algorithm a) {
  w.sequence([&] {
    switch (a) {
      case signature_algorithm::sha256_rsa_2048:
      case signature_algorithm::sha256_rsa_4096:
        // RSA AlgorithmIdentifiers carry an explicit NULL parameter.
        w.oid(oids::sha256_with_rsa);
        w.null();
        return;
      case signature_algorithm::ecdsa_sha256:
        w.oid(oids::ecdsa_with_sha256);
        return;
      case signature_algorithm::ecdsa_sha384:
        w.oid(oids::ecdsa_with_sha384);
        return;
      case signature_algorithm::mldsa_44:
      case signature_algorithm::mldsa_65:
      case signature_algorithm::mldsa_87:
        // ML-DSA AlgorithmIdentifiers have absent parameters.
        w.oid(mldsa_of(a).oid);
        return;
    }
    throw config_error("unknown signature_algorithm");
  });
}

void encode_spki(asn1::writer& w, key_algorithm a, rng& r) {
  switch (a) {
    case key_algorithm::rsa_2048:
      return encode_rsa_spki(w, 256, r);
    case key_algorithm::rsa_4096:
      return encode_rsa_spki(w, 512, r);
    case key_algorithm::ecdsa_p256:
      return encode_ec_spki(w, oids::curve_p256, 32, r);
    case key_algorithm::ecdsa_p384:
      return encode_ec_spki(w, oids::curve_p384, 48, r);
    case key_algorithm::mldsa_44:
    case key_algorithm::mldsa_65:
    case key_algorithm::mldsa_87:
      return encode_mldsa_spki(w, a, r);
  }
  throw config_error("unknown key_algorithm");
}

void encode_signature_value(asn1::writer& w, signature_algorithm a, rng& r) {
  switch (a) {
    case signature_algorithm::sha256_rsa_2048:
      return random_bit_string(w, 256, r, /*set_top_bit=*/true);
    case signature_algorithm::sha256_rsa_4096:
      return random_bit_string(w, 512, r, /*set_top_bit=*/true);
    case signature_algorithm::ecdsa_sha256:
      return ecdsa_signature(w, 32, r);
    case signature_algorithm::ecdsa_sha384:
      return ecdsa_signature(w, 48, r);
    case signature_algorithm::mldsa_44:
    case signature_algorithm::mldsa_65:
    case signature_algorithm::mldsa_87:
      // The ML-DSA signature is a fixed-size opaque byte string.
      return random_bit_string(w, mldsa_of(a).signature_bytes, r);
  }
  throw config_error("unknown signature_algorithm");
}

}  // namespace certquic::x509
