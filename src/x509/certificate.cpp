#include "x509/certificate.hpp"

#include "asn1/der.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {

certificate::certificate(certificate_spec spec, rng& r)
    : spec_(std::move(spec)) {
  // Random positive 16-byte serial, as issued by modern public CAs.
  r.fill(serial_);
  serial_[0] &= 0x7f;

  // Writes one element and returns its encoded size.
  auto measured = [](asn1::writer& w, auto&& write) {
    const std::size_t before = w.size();
    write();
    return w.size() - before;
  };
  der_ = asn1::encode([&](asn1::writer& w) {
    w.sequence([&] {
      w.sequence([&] {  // TBSCertificate
        w.context(0, [&] { w.integer(2); });  // v3
        w.big_integer(serial_);
        encode_signature_algorithm(w, spec_.sig_alg);
        sizes_.issuer = measured(w, [&] { spec_.issuer.encode(w); });
        w.sequence([&] {
          w.utc_time(spec_.valid.not_before);
          w.utc_time(spec_.valid.not_after);
        });
        sizes_.subject = measured(w, [&] { spec_.subject.encode(w); });
        sizes_.public_key_info =
            measured(w, [&] { encode_spki(w, spec_.key_alg, r); });
        w.context(3, [&] {
          sizes_.extensions = measured(w, [&] {
            w.sequence([&] {
              for (const auto& ext : spec_.extensions) {
                const std::size_t size = measured(w, [&] { ext.encode(w); });
                if (ext.id == oids::subject_alt_name) {
                  san_bytes_ += size;
                }
                if (ext.id == oids::basic_constraints) {
                  // A CA certificate encodes cA=TRUE as a non-empty
                  // constraint body.
                  is_ca_ = ext.value.size() > 2;
                }
              }
            });
          });
        });
      });
      encode_signature_algorithm(w, spec_.sig_alg);
      sizes_.signature = measured(
          w, [&] { encode_signature_value(w, spec_.sig_alg, r); });
    });
  });
  sizes_.total = der_.size();
}

std::vector<std::string> certificate::subject_alt_names() const {
  for (const auto& ext : spec_.extensions) {
    if (ext.id == oids::subject_alt_name) {
      return parse_subject_alt_name(ext);
    }
  }
  return {};
}

std::string certificate::describe() const {
  return spec_.subject.to_string() + " (" + to_string(spec_.key_alg) + ", " +
         std::to_string(der_.size()) + "B)";
}

}  // namespace certquic::x509
