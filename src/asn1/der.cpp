#include "asn1/der.hpp"

#include <array>

#include "util/errors.hpp"

namespace certquic::asn1 {
namespace {

/// A definite-length TLV header on the stack: the tag, then the short
/// form or 0x80|n followed by n minimal length octets (n <= 8).
struct header {
  std::array<std::uint8_t, 10> octets{};
  std::size_t size = 0;

  header(std::uint8_t tag_byte, std::size_t length) {
    octets[size++] = tag_byte;
    if (length < 0x80) {
      octets[size++] = static_cast<std::uint8_t>(length);
      return;
    }
    // Long form: minimal number of length octets (DER requirement).
    std::size_t n = 0;
    for (std::size_t v = length; v > 0; v >>= 8) {
      ++n;
    }
    octets[size++] = static_cast<std::uint8_t>(0x80 | n);
    for (std::size_t i = n; i > 0; --i) {
      octets[size++] = static_cast<std::uint8_t>(length >> (8 * (i - 1)));
    }
  }

  [[nodiscard]] bytes_view view() const noexcept {
    return bytes_view{octets.data(), size};
  }
};

/// One TLV whose content is the concatenation of `parts`, written into
/// a single vector reserved to the exact encoded size.
template <typename Parts>
bytes tlv_of(std::uint8_t tag_byte, const Parts& parts) {
  std::size_t length = 0;
  for (const auto& part : parts) {
    length += part.size();
  }
  const header h{tag_byte, length};
  bytes out;
  out.reserve(h.size + length);
  append(out, h.view());
  for (const auto& part : parts) {
    append(out, part);
  }
  return out;
}

bytes encode_string(tag t, std::string_view s) {
  return wrap(t, bytes_view{reinterpret_cast<const std::uint8_t*>(s.data()),
                            s.size()});
}

}  // namespace

bytes encode_header(std::uint8_t tag_byte, std::size_t length) {
  const header h{tag_byte, length};
  return bytes(h.octets.begin(), h.octets.begin() + h.size);
}

bytes wrap(std::uint8_t tag_byte, bytes_view content) {
  return tlv_of(tag_byte, std::array<bytes_view, 1>{content});
}

bytes wrap(tag t, bytes_view content) {
  return wrap(static_cast<std::uint8_t>(t), content);
}

bytes sequence(std::initializer_list<bytes_view> elements) {
  return tlv_of(static_cast<std::uint8_t>(tag::sequence), elements);
}

bytes sequence(const std::vector<bytes>& elements) {
  return tlv_of(static_cast<std::uint8_t>(tag::sequence), elements);
}

bytes set(std::initializer_list<bytes_view> elements) {
  return tlv_of(static_cast<std::uint8_t>(tag::set), elements);
}

bytes context(unsigned n, bytes_view content, bool constructed) {
  if (n > 30) {
    throw codec_error("context tag > 30 not supported");
  }
  const auto tag_byte = static_cast<std::uint8_t>(
      0x80 | (constructed ? 0x20 : 0x00) | n);
  return wrap(tag_byte, content);
}

bytes encode_integer(std::int64_t v) {
  // Build the minimal two's-complement representation.
  bytes content;
  bool more = true;
  while (more) {
    const auto octet = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
    content.insert(content.begin(), octet);
    const bool sign_bit = (octet & 0x80) != 0;
    more = !((v == 0 && !sign_bit) || (v == -1 && sign_bit));
  }
  return wrap(tag::integer, content);
}

bytes encode_big_integer(bytes_view magnitude) {
  static constexpr std::uint8_t kZero = 0;
  if (magnitude.empty()) {
    return wrap(tag::integer, bytes_view{&kZero, 1});
  }
  std::size_t start = 0;
  while (start + 1 < magnitude.size() && magnitude[start] == 0) {
    ++start;
  }
  const bytes_view digits = magnitude.subspan(start);
  // A leading 0x00 keeps a value with the top bit set positive.
  const std::size_t sign_pad = (digits[0] & 0x80) != 0 ? 1 : 0;
  return tlv_of(static_cast<std::uint8_t>(tag::integer),
                std::array<bytes_view, 2>{bytes_view{&kZero, sign_pad},
                                          digits});
}

bytes encode_oid(const oid& arcs) {
  if (arcs.size() < 2) {
    throw codec_error("OID needs at least two arcs");
  }
  if (arcs[0] > 2 || (arcs[0] < 2 && arcs[1] >= 40)) {
    throw codec_error("invalid OID root arcs");
  }
  bytes content;
  auto push_base128 = [&content](std::uint32_t v) {
    std::uint8_t chunks[5];
    int n = 0;
    do {
      chunks[n++] = static_cast<std::uint8_t>(v & 0x7f);
      v >>= 7;
    } while (v > 0);
    for (int i = n - 1; i > 0; --i) {
      content.push_back(static_cast<std::uint8_t>(chunks[i] | 0x80));
    }
    content.push_back(chunks[0]);
  };
  push_base128(arcs[0] * 40 + arcs[1]);
  for (std::size_t i = 2; i < arcs.size(); ++i) {
    push_base128(arcs[i]);
  }
  return wrap(tag::object_identifier, content);
}

bytes encode_bit_string(bytes_view data, std::uint8_t unused_bits) {
  if (unused_bits > 7) {
    throw codec_error("bit string unused_bits > 7");
  }
  return tlv_of(static_cast<std::uint8_t>(tag::bit_string),
                std::array<bytes_view, 2>{bytes_view{&unused_bits, 1}, data});
}

bytes encode_octet_string(bytes_view data) {
  return wrap(tag::octet_string, data);
}

bytes encode_boolean(bool v) {
  const std::uint8_t octet = v ? 0xff : 0x00;
  return wrap(tag::boolean, bytes_view{&octet, 1});
}

bytes encode_null() { return wrap(tag::null_value, bytes_view{}); }

bytes encode_printable_string(std::string_view s) {
  return encode_string(tag::printable_string, s);
}

bytes encode_utf8_string(std::string_view s) {
  return encode_string(tag::utf8_string, s);
}

bytes encode_ia5_string(std::string_view s) {
  return encode_string(tag::ia5_string, s);
}

bytes encode_utc_time(std::string_view s) {
  if (s.size() != 13 || s.back() != 'Z') {
    throw codec_error("UTCTime must be YYMMDDHHMMSSZ");
  }
  return encode_string(tag::utc_time, s);
}

tlv read_tlv(buffer_reader& r) {
  tlv out;
  out.tag_byte = r.u8();
  const std::uint8_t first_len = r.u8();
  std::size_t length = 0;
  if (first_len < 0x80) {
    length = first_len;
  } else if (first_len == 0x80) {
    throw codec_error("indefinite length is not valid DER");
  } else {
    const int n_octets = first_len & 0x7f;
    if (n_octets > 8) {
      throw codec_error("length too large");
    }
    for (int i = 0; i < n_octets; ++i) {
      length = (length << 8) | r.u8();
    }
  }
  out.content = r.raw(length);
  return out;
}

std::vector<tlv> children(const tlv& parent) {
  std::vector<tlv> out;
  buffer_reader r{parent.content};
  while (!r.empty()) {
    out.push_back(read_tlv(r));
  }
  return out;
}

std::int64_t decode_integer(const tlv& t) {
  if (!t.is(tag::integer)) {
    throw codec_error("not an INTEGER");
  }
  if (t.content.empty() || t.content.size() > 8) {
    throw codec_error("INTEGER does not fit in 64 bits");
  }
  std::int64_t v = (t.content[0] & 0x80) ? -1 : 0;
  for (const std::uint8_t b : t.content) {
    v = (v << 8) | b;
  }
  return v;
}

oid decode_oid(const tlv& t) {
  if (!t.is(tag::object_identifier)) {
    throw codec_error("not an OID");
  }
  oid arcs;
  std::size_t i = 0;
  auto read_base128 = [&]() -> std::uint32_t {
    std::uint32_t v = 0;
    while (i < t.content.size()) {
      const std::uint8_t b = t.content[i++];
      if (v >> 25 != 0) {
        // Another 7-bit group would push past 32 bits; the arc would
        // silently wrap instead of round-tripping.
        throw codec_error("OID arc exceeds 32 bits");
      }
      v = (v << 7) | (b & 0x7f);
      if (!(b & 0x80)) {
        return v;
      }
    }
    throw codec_error("truncated OID arc");
  };
  if (t.content.empty()) {
    throw codec_error("empty OID");
  }
  const std::uint32_t first = read_base128();
  if (first < 40) {
    arcs.push_back(0);
    arcs.push_back(first);
  } else if (first < 80) {
    arcs.push_back(1);
    arcs.push_back(first - 40);
  } else {
    arcs.push_back(2);
    arcs.push_back(first - 80);
  }
  while (i < t.content.size()) {
    arcs.push_back(read_base128());
  }
  return arcs;
}

}  // namespace certquic::asn1
