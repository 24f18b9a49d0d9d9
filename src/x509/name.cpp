#include "x509/name.hpp"

#include "x509/oids.hpp"

namespace certquic::x509 {

distinguished_name distinguished_name::cn(std::string common_name) {
  return distinguished_name{{rdn{oids::common_name, std::move(common_name)}}};
}

distinguished_name distinguished_name::org(std::string country,
                                           std::string org_name,
                                           std::string common_name) {
  return distinguished_name{{
      rdn{oids::country, std::move(country), /*printable=*/true},
      rdn{oids::organization, std::move(org_name)},
      rdn{oids::common_name, std::move(common_name)},
  }};
}

std::string distinguished_name::common_name() const {
  for (const auto& part : parts_) {
    if (part.attribute == oids::common_name) {
      return part.value;
    }
  }
  return {};
}

void distinguished_name::encode(asn1::writer& w) const {
  w.sequence([&] {
    for (const auto& part : parts_) {
      w.set([&] {
        w.sequence([&] {
          w.oid(part.attribute);
          if (part.printable) {
            w.printable_string(part.value);
          } else {
            w.utf8_string(part.value);
          }
        });
      });
    }
  });
}

std::string distinguished_name::to_string() const {
  std::string out;
  for (const auto& part : parts_) {
    if (!out.empty()) {
      out += ", ";
    }
    if (part.attribute == oids::common_name) {
      out += "CN=";
    } else if (part.attribute == oids::country) {
      out += "C=";
    } else if (part.attribute == oids::organization) {
      out += "O=";
    } else if (part.attribute == oids::organizational_unit) {
      out += "OU=";
    } else if (part.attribute == oids::locality) {
      out += "L=";
    } else if (part.attribute == oids::state) {
      out += "ST=";
    } else {
      out += "?=";
    }
    out += part.value;
  }
  return out;
}

bool distinguished_name::operator==(const distinguished_name& other) const {
  if (parts_.size() != other.parts_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].attribute != other.parts_[i].attribute ||
        parts_[i].value != other.parts_[i].value) {
      return false;
    }
  }
  return true;
}

}  // namespace certquic::x509
