#include "asn1/der.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace certquic::asn1 {
namespace {

/// Octets of a long-form length value (DER: the minimal number).
std::size_t length_octets(std::size_t length) noexcept {
  std::size_t n = 0;
  for (std::size_t v = length; v > 0; v >>= 8) {
    ++n;
  }
  return n;
}

/// Appends the definite-length header: the tag, then the short form or
/// 0x80|n followed by n minimal length octets.
void put_header(bytes& out, std::uint8_t tag_byte, std::size_t length) {
  out.push_back(tag_byte);
  if (length < 0x80) {
    out.push_back(static_cast<std::uint8_t>(length));
    return;
  }
  const std::size_t n = length_octets(length);
  out.push_back(static_cast<std::uint8_t>(0x80 | n));
  for (std::size_t i = n; i > 0; --i) {
    out.push_back(static_cast<std::uint8_t>(length >> (8 * (i - 1))));
  }
}

bytes_view as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

std::uint8_t context_tag(unsigned n, bool constructed) {
  if (n > 30) {
    throw codec_error("context tag > 30 not supported");
  }
  return static_cast<std::uint8_t>(0x80 | (constructed ? 0x20 : 0x00) | n);
}

// --- writer ----------------------------------------------------------------

void writer::tlv(std::uint8_t tag_byte, bytes_view content) {
  put_header(out_, tag_byte, content.size());
  append(out_, content);
}

void writer::tlv(std::uint8_t tag_byte, std::string_view content) {
  tlv(tag_byte, as_bytes(content));
}

std::span<std::uint8_t> writer::primitive(std::uint8_t tag_byte,
                                          std::size_t length) {
  put_header(out_, tag_byte, length);
  const std::size_t start = out_.size();
  out_.resize(start + length);
  return {out_.data() + start, length};
}

std::size_t writer::open(std::uint8_t tag_byte) {
  out_.push_back(tag_byte);
  out_.push_back(0);  // short-form length, patched by close()
  return out_.size();
}

void writer::close(std::size_t start) {
  const std::size_t length = out_.size() - start;
  if (length < 0x80) {
    out_[start - 1] = static_cast<std::uint8_t>(length);
    return;
  }
  const std::size_t n = length_octets(length);
  out_.insert(out_.begin() + static_cast<std::ptrdiff_t>(start), n,
              std::uint8_t{0});
  out_[start - 1] = static_cast<std::uint8_t>(0x80 | n);
  for (std::size_t i = 0; i < n; ++i) {
    out_[start + i] = static_cast<std::uint8_t>(length >> (8 * (n - 1 - i)));
  }
}

void writer::integer(std::int64_t v) {
  // Minimal two's complement: drop leading octets that only repeat the
  // sign of the next one.
  std::size_t n = 8;
  while (n > 1) {
    const auto top = static_cast<std::uint8_t>(v >> (8 * (n - 1)));
    const bool next_sign = ((v >> (8 * (n - 2))) & 0x80) != 0;
    if (!((top == 0x00 && !next_sign) || (top == 0xff && next_sign))) {
      break;
    }
    --n;
  }
  const std::span<std::uint8_t> content = primitive(tag::integer, n);
  for (std::size_t i = 0; i < n; ++i) {
    content[i] = static_cast<std::uint8_t>(v >> (8 * (n - 1 - i)));
  }
}

void writer::big_integer(bytes_view magnitude) {
  if (magnitude.empty()) {
    primitive(tag::integer, 1)[0] = 0x00;
    return;
  }
  std::size_t start = 0;
  while (start + 1 < magnitude.size() && magnitude[start] == 0) {
    ++start;
  }
  const bytes_view digits = magnitude.subspan(start);
  // A leading 0x00 keeps a value with the top bit set positive.
  const std::size_t sign_pad = (digits[0] & 0x80) != 0 ? 1 : 0;
  const std::span<std::uint8_t> content =
      primitive(tag::integer, sign_pad + digits.size());
  std::copy(digits.begin(), digits.end(), content.begin() + sign_pad);
}

void writer::bit_string(bytes_view data, std::uint8_t unused_bits) {
  if (unused_bits > 7) {
    throw codec_error("bit string unused_bits > 7");
  }
  const std::span<std::uint8_t> content =
      primitive(tag::bit_string, 1 + data.size());
  content[0] = unused_bits;
  std::copy(data.begin(), data.end(), content.begin() + 1);
}

void writer::boolean(bool v) {
  primitive(tag::boolean, 1)[0] = v ? 0xff : 0x00;
}

void writer::utc_time(std::string_view s) {
  if (s.size() != 13 || s.back() != 'Z') {
    throw codec_error("UTCTime must be YYMMDDHHMMSSZ");
  }
  tlv(tag::utc_time, s);
}

namespace detail {
namespace {
thread_local bytes scratch_buffer;
}  // namespace

bytes take_scratch() noexcept {
  bytes out = std::exchange(scratch_buffer, bytes{});
  out.clear();
  return out;
}

void return_scratch(bytes&& scratch) noexcept {
  // A nested encode() returns a smaller buffer first; keep the larger.
  if (scratch.capacity() > scratch_buffer.capacity()) {
    scratch_buffer = std::move(scratch);
  }
}

}  // namespace detail

bytes encode_oid(const oid& arcs) {
  bytes content;
  detail::for_each_oid_octet(arcs,
                             [&](std::uint8_t b) { content.push_back(b); });
  return encode([&](writer& w) { w.tlv(tag::object_identifier, content); });
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
