// X.501 distinguished names (issuer / subject fields).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "asn1/der.hpp"
#include "util/bytes.hpp"

namespace certquic::x509 {

/// An ordered distinguished name held as its encoded RDNSequence: built
/// once, written by copy, compared by bytes. The decoding accessors are
/// for display and tests.
class distinguished_name {
 public:
  /// The empty name (an RDNSequence of no RDNs).
  distinguished_name() = default;

  /// Just CN=<common_name>.
  [[nodiscard]] static distinguished_name cn(std::string_view common_name);
  /// C=<country>, O=<org>, CN=<common_name> — the usual CA layout.
  [[nodiscard]] static distinguished_name org(std::string_view country,
                                              std::string_view org_name,
                                              std::string_view common_name);
  /// Adopts an encoded RDNSequence (e.g. a certificate's subject) in one
  /// copy. Not validated here; the decoding accessors throw codec_error
  /// on malformed input.
  [[nodiscard]] static distinguished_name from_der(bytes_view der);

  /// The encoded RDNSequence.
  [[nodiscard]] bytes_view der() const noexcept {
    static constexpr std::uint8_t kEmpty[] = {asn1::tag::sequence, 0x00};
    return der_.empty() ? bytes_view{kEmpty} : bytes_view{der_};
  }

  /// Returns the first CN value or "" when absent.
  [[nodiscard]] std::string common_name() const;

  /// Writes the DER RDNSequence.
  void encode(asn1::writer& w) const { w.raw(der()); }

  /// Human-readable "C=US, O=Example, CN=example.org".
  [[nodiscard]] std::string to_string() const;

  /// Equality of the encoded bytes (attribute OIDs, string types and
  /// values).
  [[nodiscard]] bool operator==(const distinguished_name& other) const {
    return std::ranges::equal(der(), other.der());
  }

 private:
  explicit distinguished_name(bytes der) : der_(std::move(der)) {}

  bytes der_;
};

}  // namespace certquic::x509
