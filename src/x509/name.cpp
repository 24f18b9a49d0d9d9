#include "x509/name.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/errors.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {
namespace {

/// Writes one single-valued RelativeDistinguishedName.
void write_rdn(asn1::writer& w, const asn1::object_id& type,
               std::uint8_t string_tag, std::string_view value) {
  w.set([&] {
    w.sequence([&] {
      w.oid(type);
      w.tlv(string_tag, value);
    });
  });
}

/// Display labels of the attribute types a name may carry.
constexpr std::pair<asn1::object_id, const char*> kLabels[] = {
    {oids::common_name, "CN"},  {oids::country, "C"},
    {oids::organization, "O"}, {oids::organizational_unit, "OU"},
    {oids::locality, "L"},      {oids::state, "ST"},
};

/// Calls `fn(type, value)` with the OID and value contents of every
/// AttributeTypeAndValue of the RDNSequence `der`, in order. Throws
/// codec_error on anything but a well-formed RDNSequence.
template <typename Fn>
void for_each_attribute(bytes_view der, Fn&& fn) {
  buffer_reader r{der};
  const asn1::tlv sequence = asn1::read_tlv(r);
  if (!sequence.is(asn1::tag::sequence) || !r.empty()) {
    throw codec_error("Name is not one RDNSequence");
  }
  for (const asn1::tlv& rdn : asn1::children(sequence)) {
    if (!rdn.is(asn1::tag::set)) {
      throw codec_error("RelativeDistinguishedName is not a SET");
    }
    for (const asn1::tlv& type_and_value : asn1::children(rdn)) {
      const auto fields = asn1::children(type_and_value);
      if (!type_and_value.is(asn1::tag::sequence) || fields.size() != 2 ||
          !fields[0].is(asn1::tag::object_identifier)) {
        throw codec_error("malformed AttributeTypeAndValue");
      }
      fn(fields[0].content, fields[1].content);
    }
  }
}

}  // namespace

distinguished_name distinguished_name::cn(std::string_view common_name) {
  return distinguished_name{asn1::encode([&](asn1::writer& w) {
    w.sequence([&] {
      write_rdn(w, oids::common_name, asn1::tag::utf8_string, common_name);
    });
  })};
}

distinguished_name distinguished_name::org(std::string_view country,
                                           std::string_view org_name,
                                           std::string_view common_name) {
  return distinguished_name{asn1::encode([&](asn1::writer& w) {
    w.sequence([&] {
      write_rdn(w, oids::country, asn1::tag::printable_string, country);
      write_rdn(w, oids::organization, asn1::tag::utf8_string, org_name);
      write_rdn(w, oids::common_name, asn1::tag::utf8_string, common_name);
    });
  })};
}

distinguished_name distinguished_name::from_der(bytes_view der) {
  return distinguished_name{bytes(der.begin(), der.end())};
}

std::string distinguished_name::common_name() const {
  std::string out;
  bool found = false;
  for_each_attribute(der(), [&](bytes_view type, bytes_view value) {
    if (!found && std::ranges::equal(type, oids::common_name.content())) {
      out.assign(value.begin(), value.end());
      found = true;
    }
  });
  return out;
}

std::string distinguished_name::to_string() const {
  std::string out;
  for_each_attribute(der(), [&](bytes_view type, bytes_view value) {
    const auto* known = std::ranges::find_if(kLabels, [&](const auto& l) {
      return std::ranges::equal(type, l.first.content());
    });
    out += out.empty() ? "" : ", ";
    out += known == std::end(kLabels) ? "?" : known->second;
    out += '=';
    out.append(value.begin(), value.end());
  });
  return out;
}

}  // namespace certquic::x509
