// X.501 distinguished names (issuer / subject fields).
#pragma once

#include <string>
#include <vector>

#include "asn1/der.hpp"

namespace certquic::x509 {

/// One relative distinguished name component, e.g. CN=example.org.
struct rdn {
  asn1::object_id attribute;
  std::string value;
  /// PrintableString when true (C=, short names), UTF8String otherwise.
  bool printable = false;
};

/// An ordered distinguished name; encodes as RDNSequence.
class distinguished_name {
 public:
  distinguished_name() = default;
  explicit distinguished_name(std::vector<rdn> parts)
      : parts_(std::move(parts)) {}

  /// Just CN=<common_name>.
  [[nodiscard]] static distinguished_name cn(std::string common_name);
  /// C=<country>, O=<org>, CN=<common_name> — the usual CA layout.
  [[nodiscard]] static distinguished_name org(std::string country,
                                              std::string org_name,
                                              std::string common_name);

  [[nodiscard]] const std::vector<rdn>& parts() const noexcept {
    return parts_;
  }
  [[nodiscard]] bool empty() const noexcept { return parts_.empty(); }

  /// Returns the CN value or "" when absent.
  [[nodiscard]] std::string common_name() const;

  /// Writes the DER RDNSequence.
  void encode(asn1::writer& w) const;

  /// Human-readable "C=US, O=Example, CN=example.org".
  [[nodiscard]] std::string to_string() const;

  /// Structural equality (attribute OIDs and values).
  [[nodiscard]] bool operator==(const distinguished_name& other) const;

 private:
  std::vector<rdn> parts_;
};

}  // namespace certquic::x509
