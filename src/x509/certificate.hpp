// X.509v3 certificate: semantic model + real DER encoding + per-field
// size accounting (the measurement basis for Figs. 2b, 6, 7, 8 and 14).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "x509/extensions.hpp"
#include "x509/key.hpp"
#include "x509/name.hpp"

namespace certquic::x509 {

/// Validity window, UTCTime strings ("YYMMDDHHMMSSZ").
struct validity {
  std::string not_before = "220910000000Z";
  std::string not_after = "221209000000Z";
};

/// Measured sizes (bytes) of the encoded certificate components; these
/// are exactly the field classes of Figure 2(b) / Figure 8.
struct field_sizes {
  std::size_t subject = 0;
  std::size_t issuer = 0;
  std::size_t public_key_info = 0;
  std::size_t extensions = 0;
  std::size_t signature = 0;  // signatureValue BIT STRING
  std::size_t total = 0;      // full DER certificate

  /// Everything not covered above (serial, version, validity, framing).
  [[nodiscard]] std::size_t other() const noexcept {
    const std::size_t known =
        subject + issuer + public_key_info + extensions + signature;
    return total >= known ? total - known : 0;
  }
};

/// A certificate serial number: 16 random octets, top bit clear.
using serial_number = std::array<std::uint8_t, 16>;

/// Semantic description of a certificate to build.
struct certificate_spec {
  distinguished_name issuer;
  distinguished_name subject;
  validity valid;
  key_algorithm key_alg = key_algorithm::ecdsa_p256;
  signature_algorithm sig_alg = signature_algorithm::ecdsa_sha256;
  std::vector<extension> extensions;
};

/// An immutable certificate: constructed once, DER-encoded eagerly,
/// size breakdown cached.
class certificate {
 public:
  /// Synthesizes serial, key material and signature from `r` (in that
  /// order), encodes the certificate in one pass and records the field
  /// sizes. The DER buffer's capacity is exactly its size.
  certificate(certificate_spec spec, rng& r);

  [[nodiscard]] const distinguished_name& issuer() const noexcept {
    return spec_.issuer;
  }
  [[nodiscard]] const distinguished_name& subject() const noexcept {
    return spec_.subject;
  }
  [[nodiscard]] key_algorithm key_alg() const noexcept {
    return spec_.key_alg;
  }
  [[nodiscard]] signature_algorithm sig_alg() const noexcept {
    return spec_.sig_alg;
  }
  [[nodiscard]] const serial_number& serial() const noexcept {
    return serial_;
  }

  /// Full DER encoding.
  [[nodiscard]] const bytes& der() const noexcept { return der_; }
  /// Size of the DER encoding.
  [[nodiscard]] std::size_t size() const noexcept { return der_.size(); }
  /// Field-size breakdown.
  [[nodiscard]] const field_sizes& sizes() const noexcept { return sizes_; }

  /// True when basicConstraints marks this certificate as a CA.
  [[nodiscard]] bool is_ca() const noexcept { return is_ca_; }
  /// True when issuer == subject.
  [[nodiscard]] bool self_signed() const noexcept {
    return spec_.issuer == spec_.subject;
  }

  /// DNS names in subjectAltName ({} when absent).
  [[nodiscard]] std::vector<std::string> subject_alt_names() const;
  /// Encoded size of the subjectAltName extension (0 when absent);
  /// numerator of the Fig. 14 SAN byte share.
  [[nodiscard]] std::size_t san_bytes() const noexcept { return san_bytes_; }

  /// One-line render for diagnostics: "CN=leaf.example (ECDSA-P256, 1034B)".
  [[nodiscard]] std::string describe() const;

 private:
  certificate_spec spec_;
  serial_number serial_{};
  bytes der_;
  field_sizes sizes_;
  bool is_ca_ = false;
  std::size_t san_bytes_ = 0;
};

}  // namespace certquic::x509
