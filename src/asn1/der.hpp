// DER (Distinguished Encoding Rules) encoder/decoder subset.
//
// Implements exactly the ASN.1 universe needed by X.509v3 certificates:
// definite-length TLV framing, INTEGER (small and big), OBJECT IDENTIFIER
// with base-128 arcs, BIT/OCTET STRING, BOOLEAN, NULL, the string types
// used in distinguished names, UTCTime and SEQUENCE/SET/context tags.
//
// Faithful DER byte layout is what makes the certificate-size analysis in
// this reproduction meaningful: every certificate in the corpus is a real
// DER byte string whose length reacts to names, keys and extensions the
// same way real certificates do.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "util/buffer.hpp"
#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace certquic::asn1 {

/// Universal class tag bytes used by X.509.
namespace tag {
inline constexpr std::uint8_t boolean = 0x01;
inline constexpr std::uint8_t integer = 0x02;
inline constexpr std::uint8_t bit_string = 0x03;
inline constexpr std::uint8_t octet_string = 0x04;
inline constexpr std::uint8_t null_value = 0x05;
inline constexpr std::uint8_t object_identifier = 0x06;
inline constexpr std::uint8_t utf8_string = 0x0c;
inline constexpr std::uint8_t printable_string = 0x13;
inline constexpr std::uint8_t ia5_string = 0x16;
inline constexpr std::uint8_t utc_time = 0x17;
inline constexpr std::uint8_t generalized_time = 0x18;
inline constexpr std::uint8_t sequence = 0x30;  // constructed
inline constexpr std::uint8_t set = 0x31;       // constructed
}  // namespace tag

/// Object identifier as a list of arcs, e.g. {2, 5, 4, 3} for id-at-cn.
using oid = std::vector<std::uint32_t>;

namespace detail {

/// Calls `put(octet)` for each DER content octet of the OID `arcs`, in
/// order: base-128 subidentifiers, the first two arcs folded into one.
/// Throws codec_error on fewer than two arcs, a first arc above 2, or a
/// second arc of 40 or more under roots 0 and 1.
template <typename Put>
constexpr void for_each_oid_octet(std::span<const std::uint32_t> arcs,
                                  Put&& put) {
  if (arcs.size() < 2) {
    throw codec_error("OID needs at least two arcs");
  }
  if (arcs[0] > 2 || (arcs[0] < 2 && arcs[1] >= 40)) {
    throw codec_error("invalid OID root arcs");
  }
  for (std::size_t i = 1; i < arcs.size(); ++i) {
    const std::uint32_t v = i == 1 ? arcs[0] * 40 + arcs[1] : arcs[i];
    unsigned shift = 0;
    for (std::uint32_t rest = v >> 7; rest != 0; rest >>= 7) {
      shift += 7;
    }
    for (; shift > 0; shift -= 7) {
      put(static_cast<std::uint8_t>(((v >> shift) & 0x7f) | 0x80));
    }
    put(static_cast<std::uint8_t>(v & 0x7f));
  }
}

}  // namespace detail

/// An OBJECT IDENTIFIER packed into its DER content octets once, at
/// compile time. The x509 OID constants are object_ids, so writing one
/// is a copy and comparing two compares at most 16 bytes.
class object_id {
 public:
  consteval object_id(std::initializer_list<std::uint32_t> arcs) {
    detail::for_each_oid_octet({arcs.begin(), arcs.size()},
                               [this](std::uint8_t octet) {
                                 if (size_ == octets_.size()) {
                                   throw codec_error(
                                       "OID too long for object_id");
                                 }
                                 octets_[size_++] = octet;
                               });
  }

  /// The content octets (the V of the TLV).
  [[nodiscard]] constexpr bytes_view content() const noexcept {
    return {octets_.data(), size_};
  }

  friend constexpr bool operator==(const object_id&,
                                   const object_id&) = default;

 private:
  std::array<std::uint8_t, 15> octets_{};
  std::uint8_t size_ = 0;
};

/// Tag byte of the context-specific tag [n]. Throws codec_error for
/// n > 30 (high tag numbers are not supported).
[[nodiscard]] std::uint8_t context_tag(unsigned n, bool constructed);

/// Appends DER in place to a buffer the caller owns. A primitive TLV is
/// written header first, its length known. A nested TLV (any TLV whose
/// content a callback appends) is opened with a one-octet length and
/// back-patched when it closes; content of 128 octets or more is then
/// shifted right by the extra length octets, once per nesting level.
class writer {
 public:
  explicit writer(bytes& out) noexcept : out_(out) {}

  /// Octets written to the buffer so far (including what was there).
  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

  /// Appends pre-encoded DER unchanged.
  void raw(bytes_view der) { append(out_, der); }

  /// A primitive TLV carrying `content`.
  void tlv(std::uint8_t tag_byte, bytes_view content);
  void tlv(std::uint8_t tag_byte, std::string_view content);

  /// Writes the header of a primitive TLV with `length` content octets
  /// and returns that content, zeroed, for the caller to fill before
  /// its next write.
  [[nodiscard]] std::span<std::uint8_t> primitive(std::uint8_t tag_byte,
                                                  std::size_t length);

  /// A TLV whose content `body()` appends through this writer.
  template <typename Body>
  void nested(std::uint8_t tag_byte, Body&& body) {
    const std::size_t start = open(tag_byte);
    std::forward<Body>(body)();
    close(start);
  }
  template <typename Body>
  void sequence(Body&& body) {
    nested(tag::sequence, std::forward<Body>(body));
  }
  template <typename Body>
  void set(Body&& body) {
    nested(tag::set, std::forward<Body>(body));
  }
  /// Constructed context-specific [n].
  template <typename Body>
  void context(unsigned n, Body&& body) {
    nested(context_tag(n, true), std::forward<Body>(body));
  }
  /// Primitive context-specific [n] IMPLICIT over `content`.
  void implicit(unsigned n, bytes_view content) {
    tlv(context_tag(n, false), content);
  }
  void implicit(unsigned n, std::string_view content) {
    tlv(context_tag(n, false), content);
  }

  /// INTEGER from a signed machine integer (two's-complement minimal
  /// form).
  void integer(std::int64_t v);
  /// INTEGER from an unsigned big-endian magnitude (serial numbers, RSA
  /// moduli): redundant leading zero octets are stripped, and a 0x00 is
  /// prepended when the leading bit is set so the value stays positive.
  void big_integer(bytes_view magnitude);
  void oid(const object_id& id) { tlv(tag::object_identifier, id.content()); }
  /// BIT STRING with `unused_bits` trailing unused bits (0 for X.509
  /// keys and signatures). Throws codec_error for unused_bits > 7.
  void bit_string(bytes_view data, std::uint8_t unused_bits = 0);
  void octet_string(bytes_view data) { tlv(tag::octet_string, data); }
  void boolean(bool v);
  void null() { tlv(tag::null_value, bytes_view{}); }
  void printable_string(std::string_view s) { tlv(tag::printable_string, s); }
  void utf8_string(std::string_view s) { tlv(tag::utf8_string, s); }
  void ia5_string(std::string_view s) { tlv(tag::ia5_string, s); }
  /// UTCTime, `s` must be "YYMMDDHHMMSSZ" (13 chars).
  void utc_time(std::string_view s);

 private:
  std::size_t open(std::uint8_t tag_byte);
  void close(std::size_t start);

  bytes& out_;
};

namespace detail {
/// The calling thread's scratch buffer, moved out and cleared; empty
/// when a caller up the stack holds it.
[[nodiscard]] bytes take_scratch() noexcept;
/// Hands a scratch buffer back for the thread's next encode().
void return_scratch(bytes&& scratch) noexcept;
}  // namespace detail

/// Runs `body(writer&)` and returns what it wrote, in one allocation of
/// exactly that size. The writer appends to a per-thread scratch buffer
/// that keeps its capacity between calls, so a warm thread never grows
/// a buffer while encoding.
template <typename Body>
[[nodiscard]] bytes encode(Body&& body) {
  bytes scratch = detail::take_scratch();
  writer w{scratch};
  std::forward<Body>(body)(w);
  bytes out(scratch.begin(), scratch.end());
  detail::return_scratch(std::move(scratch));
  return out;
}

/// OBJECT IDENTIFIER TLV from arcs known only at run time (the
/// counterpart of decode_oid; constants are object_ids). Throws
/// codec_error on fewer than two arcs or first-arc constraints violated.
[[nodiscard]] bytes encode_oid(const oid& arcs);

/// A decoded TLV element; `content` views into the reader's buffer.
struct tlv {
  std::uint8_t tag_byte = 0;
  bytes_view content;

  [[nodiscard]] bool is(std::uint8_t t) const noexcept {
    return tag_byte == t;
  }
};

/// Reads one TLV from `r`. Throws codec_error on truncated or
/// indefinite-length input (DER forbids indefinite lengths).
[[nodiscard]] tlv read_tlv(buffer_reader& r);

/// Splits a constructed element's content into its child TLVs.
[[nodiscard]] std::vector<tlv> children(const tlv& parent);

/// Decodes an INTEGER TLV content into a signed machine integer.
/// Throws codec_error if it does not fit in 64 bits.
[[nodiscard]] std::int64_t decode_integer(const tlv& t);

/// Decodes an OBJECT IDENTIFIER TLV back into arcs.
[[nodiscard]] oid decode_oid(const tlv& t);

}  // namespace certquic::asn1
