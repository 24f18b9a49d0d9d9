// X.509v3 certificate: semantic model + real DER encoding + per-field
// size accounting (the measurement basis for Figs. 2b, 6, 7, 8 and 14).
#pragma once

#include <algorithm>
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

/// Semantic description of a certificate to build; read once by the
/// certificate constructor.
struct certificate_spec {
  distinguished_name issuer;
  distinguished_name subject;
  validity valid;
  key_algorithm key_alg = key_algorithm::ecdsa_p256;
  signature_algorithm sig_alg = signature_algorithm::ecdsa_sha256;
  std::vector<extension> extensions;
};

/// An immutable certificate: its DER plus fixed-size facts derived
/// while encoding. Names and the SAN list are read back from the DER.
class certificate {
 public:
  /// Synthesizes serial, key material and signature from `r` (in that
  /// order), encodes the certificate in one pass and records the field
  /// sizes. The DER buffer's capacity is exactly its size; `spec` is not
  /// retained.
  certificate(const certificate_spec& spec, rng& r);

  /// The encoded issuer Name (an RDNSequence inside der()).
  [[nodiscard]] bytes_view issuer() const noexcept {
    return bytes_view{der_}.subspan(issuer_offset_, sizes_.issuer);
  }
  /// The encoded subject Name (an RDNSequence inside der()).
  [[nodiscard]] bytes_view subject() const noexcept {
    return bytes_view{der_}.subspan(subject_offset_, sizes_.subject);
  }
  [[nodiscard]] key_algorithm key_alg() const noexcept { return key_alg_; }
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
    return std::ranges::equal(issuer(), subject());
  }

  /// DNS names in subjectAltName ({} when absent), decoded from der().
  [[nodiscard]] std::vector<std::string> subject_alt_names() const;
  /// Encoded size of the subjectAltName extension (0 when absent);
  /// numerator of the Fig. 14 SAN byte share.
  [[nodiscard]] std::size_t san_bytes() const noexcept { return san_bytes_; }

  /// One-line render for diagnostics: "CN=leaf.example (ECDSA-P256, 1034B)".
  [[nodiscard]] std::string describe() const;

 private:
  bytes der_;
  field_sizes sizes_;
  std::size_t san_bytes_ = 0;
  serial_number serial_{};
  // Offsets into der_ of the subject and issuer Names (their sizes are
  // sizes_.subject / sizes_.issuer) and of the SAN extnValue contents.
  std::uint32_t subject_offset_ = 0;
  std::uint32_t issuer_offset_ = 0;
  std::uint32_t san_offset_ = 0;
  std::uint32_t san_size_ = 0;
  key_algorithm key_alg_ = key_algorithm::ecdsa_p256;
  bool is_ca_ = false;
};

}  // namespace certquic::x509
