#include "x509/certificate.hpp"

#include "asn1/der.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {

certificate::certificate(const certificate_spec& spec, rng& r)
    : key_alg_(spec.key_alg) {
  // Random positive 16-byte serial, as issued by modern public CAs.
  r.fill(serial_);
  serial_[0] &= 0x7f;

  // Writes one element and returns its encoded size.
  auto measured = [](asn1::writer& w, auto&& write) {
    const std::size_t before = w.size();
    write();
    return w.size() - before;
  };
  // The writer widens a length as its TLV closes and shifts the content
  // right, so a position is final only once every TLV around it has
  // closed, but a distance is final once every TLV inside it has. The
  // Names and the SAN value are found by where they end, back from the
  // end of the TBSCertificate content (where the Extensions end too).
  std::size_t issuer_back = 0;
  std::size_t subject_back = 0;
  std::size_t san_back = 0;
  std::size_t after_tbs = 0;
  der_ = asn1::encode([&](asn1::writer& w) {
    w.sequence([&] {
      w.sequence([&] {  // TBSCertificate
        w.context(0, [&] { w.integer(2); });  // v3
        w.big_integer(serial_);
        encode_signature_algorithm(w, spec.sig_alg);
        sizes_.issuer = measured(w, [&] { spec.issuer.encode(w); });
        issuer_back = w.size();
        w.sequence([&] {
          w.utc_time(spec.valid.not_before);
          w.utc_time(spec.valid.not_after);
        });
        sizes_.subject = measured(w, [&] { spec.subject.encode(w); });
        subject_back = w.size();
        sizes_.public_key_info =
            measured(w, [&] { encode_spki(w, spec.key_alg, r); });
        w.context(3, [&] {
          sizes_.extensions = measured(w, [&] {
            w.sequence([&] {
              for (const auto& ext : spec.extensions) {
                const std::size_t size = measured(w, [&] { ext.encode(w); });
                if (ext.id == oids::subject_alt_name) {
                  // extnValue's content ends the Extension.
                  san_bytes_ += size;
                  san_back = w.size();
                  san_size_ = static_cast<std::uint32_t>(ext.value.size());
                }
                if (ext.id == oids::basic_constraints) {
                  // A CA certificate encodes cA=TRUE as a non-empty
                  // constraint body.
                  is_ca_ = ext.value.size() > 2;
                }
              }
              san_back = w.size() - san_back;
            });
          });
        });
        issuer_back = w.size() - issuer_back;
        subject_back = w.size() - subject_back;
      });
      after_tbs = measured(w, [&] {
        encode_signature_algorithm(w, spec.sig_alg);
        sizes_.signature = measured(
            w, [&] { encode_signature_value(w, spec.sig_alg, r); });
      });
    });
  });
  sizes_.total = der_.size();
  const std::size_t tbs_end = der_.size() - after_tbs;
  issuer_offset_ =
      static_cast<std::uint32_t>(tbs_end - issuer_back - sizes_.issuer);
  subject_offset_ =
      static_cast<std::uint32_t>(tbs_end - subject_back - sizes_.subject);
  san_offset_ = static_cast<std::uint32_t>(tbs_end - san_back - san_size_);
}

std::vector<std::string> certificate::subject_alt_names() const {
  if (san_size_ == 0) {
    return {};
  }
  return parse_subject_alt_name(
      bytes_view{der_}.subspan(san_offset_, san_size_));
}

std::string certificate::describe() const {
  return distinguished_name::from_der(subject()).to_string() + " (" +
         to_string(key_alg_) + ", " + std::to_string(der_.size()) + "B)";
}

}  // namespace certquic::x509
