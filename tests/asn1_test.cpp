// Unit and property tests for the DER encoder/decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "asn1/der.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace certquic::asn1 {
namespace {

bytes integer_der(std::int64_t v) {
  return encode([&](writer& w) { w.integer(v); });
}

bytes big_integer_der(bytes_view magnitude) {
  return encode([&](writer& w) { w.big_integer(magnitude); });
}

// Every length-form boundary of the definite-length header: short form
// up to 0x7f, then 0x80|n with n = 1..4 minimal length octets.
struct length_boundary {
  std::size_t length;
  std::vector<std::uint8_t> length_octets;
};

const std::vector<length_boundary>& length_boundaries() {
  static const std::vector<length_boundary> cases = {
      {0, {0x00}},
      {0x7f, {0x7f}},
      {0x80, {0x81, 0x80}},
      {0xff, {0x81, 0xff}},
      {0x100, {0x82, 0x01, 0x00}},
      {0xffff, {0x82, 0xff, 0xff}},
      {0x10000, {0x83, 0x01, 0x00, 0x00}},
      {0xffffff, {0x83, 0xff, 0xff, 0xff}},
      {0x1000000, {0x84, 0x01, 0x00, 0x00, 0x00}},
  };
  return cases;
}

// True when `tlv` is exactly tag_byte, then `length_octets`, then
// `content`.
::testing::AssertionResult is_tlv(
    const bytes& tlv, std::uint8_t tag_byte,
    const std::vector<std::uint8_t>& length_octets, bytes_view content) {
  const std::size_t header = 1 + length_octets.size();
  if (tlv.size() != header + content.size()) {
    return ::testing::AssertionFailure()
           << "size " << tlv.size() << ", want " << header + content.size();
  }
  if (tlv[0] != tag_byte ||
      !std::equal(length_octets.begin(), length_octets.end(),
                  tlv.begin() + 1)) {
    return ::testing::AssertionFailure() << "header bytes differ";
  }
  if (!std::equal(content.begin(), content.end(),
                  tlv.begin() + static_cast<std::ptrdiff_t>(header))) {
    return ::testing::AssertionFailure() << "content bytes differ";
  }
  return ::testing::AssertionSuccess();
}

// Primitive TLVs write their header first; nested ones (sequence, set,
// context) are back-patched when they close. Both must produce the
// minimal definite-length form at every boundary.
TEST(DerHeader, ExactBytesAtEveryLengthFormBoundary) {
  bytes content;
  for (const auto& [length, octets] : length_boundaries()) {
    content.assign(length, 0x5a);
    EXPECT_TRUE(is_tlv(encode([&](writer& w) {
                         w.tlv(tag::octet_string, content);
                       }),
                       0x04, octets, content))
        << "tlv, length " << length;
    EXPECT_TRUE(is_tlv(encode([&](writer& w) {
                         w.sequence([&] { w.raw(content); });
                       }),
                       0x30, octets, content))
        << "sequence, length " << length;
    EXPECT_TRUE(is_tlv(encode([&](writer& w) {
                         w.set([&] { w.raw(content); });
                       }),
                       0x31, octets, content))
        << "set, length " << length;
    EXPECT_TRUE(is_tlv(encode([&](writer& w) {
                         w.context(3, [&] { w.raw(content); });
                       }),
                       0xa3, octets, content))
        << "context, length " << length;
    EXPECT_TRUE(is_tlv(encode([&](writer& w) { w.implicit(3, content); }),
                       0x83, octets, content))
        << "implicit, length " << length;
  }
}

// A nested TLV is back-patched when it closes: at every length-form
// boundary of the inner content, SET { SEQUENCE { content } } must be
// byte-identical to the same TLVs written header first.
TEST(DerWriter, BackPatchesNestedLengthsAtEveryBoundary) {
  bytes content;
  for (const auto& [length, octets] : length_boundaries()) {
    content.assign(length, 0x5a);
    const bytes inner =
        encode([&](writer& w) { w.tlv(tag::sequence, content); });
    const bytes expected = encode([&](writer& w) { w.tlv(tag::set, inner); });

    bytes out = {0xee};  // the writer appends after what is there
    writer w{out};
    w.set([&] { w.sequence([&] { w.raw(content); }); });
    ASSERT_EQ(out.size(), 1 + expected.size()) << "length " << length;
    EXPECT_EQ(out[0], 0xee);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin() + 1))
        << "length " << length;
  }
}

TEST(DerWriter, PrimitiveReturnsZeroedContentAfterHeader) {
  for (const auto& [length, octets] : length_boundaries()) {
    if (length > 0x10000) {
      continue;
    }
    bytes out;
    writer w{out};
    const std::span<std::uint8_t> content = w.primitive(0x04, length);
    ASSERT_EQ(content.size(), length);
    EXPECT_TRUE(std::all_of(content.begin(), content.end(),
                            [](std::uint8_t b) { return b == 0; }));
    std::fill(content.begin(), content.end(), std::uint8_t{0x5a});
    EXPECT_TRUE(is_tlv(out, 0x04, octets, bytes(length, 0x5a)))
        << "length " << length;
  }
}

TEST(DerWriter, EncodeIsExactAndNests) {
  // encode() inside another encode() body must not share its buffer.
  const bytes outer = encode([](writer& w) {
    w.sequence([&] {
      const bytes inner = encode([](writer& iw) { iw.integer(5); });
      EXPECT_EQ(inner.capacity(), inner.size());
      w.raw(inner);
      w.octet_string(bytes(300, 0x11));
    });
  });
  // SEQUENCE (307 octets) { INTEGER 5, OCTET STRING (300 octets) }.
  bytes expected = {0x30, 0x82, 0x01, 0x33, 0x02, 0x01,
                    0x05, 0x04, 0x82, 0x01, 0x2c};
  expected.insert(expected.end(), 300, 0x11);
  EXPECT_EQ(outer, expected);
  EXPECT_EQ(outer.capacity(), outer.size());
  // A body that throws leaves later encodes intact.
  EXPECT_THROW((void)encode([](writer& w) {
                 w.sequence([&] { w.utc_time("bad"); });
               }),
               codec_error);
  EXPECT_EQ(encode([](writer& w) { w.null(); }), (bytes{0x05, 0x00}));
}

TEST(DerObjectId, PackedAtCompileTimeLikeEncodeOid) {
  constexpr object_id rsa{1, 2, 840, 113549, 1, 1, 11};
  constexpr object_id san{2, 5, 29, 17};
  const bytes rsa_der = encode([&](writer& w) { w.oid(rsa); });
  EXPECT_EQ(rsa_der, encode_oid({1, 2, 840, 113549, 1, 1, 11}));
  EXPECT_EQ(encode([&](writer& w) { w.oid(san); }),
            encode_oid({2, 5, 29, 17}));
  EXPECT_EQ(rsa, (object_id{1, 2, 840, 113549, 1, 1, 11}));
  EXPECT_NE(rsa, san);
  buffer_reader r{rsa_der};
  EXPECT_EQ(decode_oid(read_tlv(r)), (oid{1, 2, 840, 113549, 1, 1, 11}));
}

TEST(DerInteger, KnownEncodings) {
  // Canonical two's-complement minimal forms.
  EXPECT_EQ(integer_der(0), (bytes{0x02, 0x01, 0x00}));
  EXPECT_EQ(integer_der(127), (bytes{0x02, 0x01, 0x7f}));
  EXPECT_EQ(integer_der(128), (bytes{0x02, 0x02, 0x00, 0x80}));
  EXPECT_EQ(integer_der(256), (bytes{0x02, 0x02, 0x01, 0x00}));
  EXPECT_EQ(integer_der(-1), (bytes{0x02, 0x01, 0xff}));
  EXPECT_EQ(integer_der(-128), (bytes{0x02, 0x01, 0x80}));
  EXPECT_EQ(integer_der(-129), (bytes{0x02, 0x02, 0xff, 0x7f}));
  EXPECT_EQ(integer_der(65537), (bytes{0x02, 0x03, 0x01, 0x00, 0x01}));
}

TEST(DerBigInteger, PrependsZeroForHighBit) {
  const bytes magnitude = {0x80, 0x01};
  EXPECT_EQ(big_integer_der(magnitude), (bytes{0x02, 0x03, 0x00, 0x80, 0x01}));
}

TEST(DerBigInteger, StripsRedundantLeadingZeros) {
  const bytes magnitude = {0x00, 0x00, 0x01, 0x02};
  EXPECT_EQ(big_integer_der(magnitude), (bytes{0x02, 0x02, 0x01, 0x02}));
}

TEST(DerBigInteger, EmptyEncodesZero) {
  EXPECT_EQ(big_integer_der({}), (bytes{0x02, 0x01, 0x00}));
}

TEST(DerOid, KnownEncodings) {
  // sha256WithRSAEncryption = 1.2.840.113549.1.1.11.
  const bytes rsa = encode_oid({1, 2, 840, 113549, 1, 1, 11});
  const bytes expected = {0x06, 0x09, 0x2a, 0x86, 0x48, 0x86,
                          0xf7, 0x0d, 0x01, 0x01, 0x0b};
  EXPECT_EQ(rsa, expected);

  // id-ce-subjectAltName = 2.5.29.17.
  const bytes san = encode_oid({2, 5, 29, 17});
  const bytes expected_san = {0x06, 0x03, 0x55, 0x1d, 0x11};
  EXPECT_EQ(san, expected_san);
}

TEST(DerOid, RejectsInvalidArcs) {
  EXPECT_THROW((void)encode_oid({1}), codec_error);
  EXPECT_THROW((void)encode_oid({3, 1}), codec_error);
  EXPECT_THROW((void)encode_oid({0, 40}), codec_error);
}

TEST(DerBitString, PrependsUnusedBits) {
  const bytes data = {0xaa};
  auto bit_string = [&](std::uint8_t unused_bits) {
    return encode([&](writer& w) { w.bit_string(data, unused_bits); });
  };
  EXPECT_EQ(bit_string(0), (bytes{0x03, 0x02, 0x00, 0xaa}));
  EXPECT_EQ(bit_string(3), (bytes{0x03, 0x02, 0x03, 0xaa}));
  EXPECT_THROW((void)bit_string(8), codec_error);
}

TEST(DerPrimitives, BooleanNullStrings) {
  EXPECT_EQ(encode([](writer& w) { w.boolean(true); }),
            (bytes{0x01, 0x01, 0xff}));
  EXPECT_EQ(encode([](writer& w) { w.boolean(false); }),
            (bytes{0x01, 0x01, 0x00}));
  EXPECT_EQ(encode([](writer& w) { w.null(); }), (bytes{0x05, 0x00}));
  EXPECT_EQ(encode([](writer& w) { w.printable_string("US"); }),
            (bytes{0x13, 0x02, 'U', 'S'}));
  EXPECT_EQ(encode([](writer& w) { w.utf8_string("ab"); }),
            (bytes{0x0c, 0x02, 'a', 'b'}));
  EXPECT_EQ(encode([](writer& w) { w.ia5_string("x"); }),
            (bytes{0x16, 0x01, 'x'}));
}

TEST(DerUtcTime, ValidatesShape) {
  auto utc_time = [](std::string_view s) {
    return encode([&](writer& w) { w.utc_time(s); });
  };
  EXPECT_EQ(utc_time("220910000000Z").size(), 15u);
  EXPECT_THROW((void)utc_time("2209100000Z"), codec_error);
  EXPECT_THROW((void)utc_time("2209100000000"), codec_error);
}

TEST(DerSequence, NestsAndMeasures) {
  const bytes inner = integer_der(5);
  const bytes seq = encode([](writer& w) {
    w.sequence([&] {
      w.integer(5);
      w.integer(5);
    });
  });
  EXPECT_EQ(seq.size(), 2 + 2 * inner.size());
  EXPECT_EQ(seq[0], 0x30);
}

TEST(DerContext, TagBytes) {
  const bytes c0 =
      encode([](writer& w) { w.context(0, [&] { w.integer(2); }); });
  EXPECT_EQ(c0[0], 0xa0);
  const bytes c2 = encode([](writer& w) { w.implicit(2, bytes_view{}); });
  EXPECT_EQ(c2[0], 0x82);
  EXPECT_THROW((void)encode([](writer& w) { w.context(31, [] {}); }),
               codec_error);
}

TEST(DerDecode, ReadTlvRoundTrip) {
  const bytes seq = encode([](writer& w) {
    w.sequence([&] {
      w.integer(300);
      w.raw(encode_oid({2, 5, 4, 3}));
    });
  });
  buffer_reader r{seq};
  const tlv outer = read_tlv(r);
  EXPECT_TRUE(outer.is(tag::sequence));
  EXPECT_TRUE(r.empty());

  const auto kids = children(outer);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(decode_integer(kids[0]), 300);
  EXPECT_EQ(decode_oid(kids[1]), (oid{2, 5, 4, 3}));
}

TEST(DerDecode, RejectsIndefiniteLength) {
  const bytes data = {0x30, 0x80, 0x00, 0x00};
  buffer_reader r{data};
  EXPECT_THROW((void)read_tlv(r), codec_error);
}

TEST(DerDecode, RejectsTruncatedContent) {
  const bytes data = {0x30, 0x05, 0x01};
  buffer_reader r{data};
  EXPECT_THROW((void)read_tlv(r), codec_error);
}

TEST(DerDecode, OidArcWidthLimit) {
  // An arc of 2^32 (five base-128 groups, first carrying bit 32) used
  // to wrap silently to 0 in the 32-bit accumulator; it must throw.
  const bytes data = {0x06, 0x06, 0x2a, 0x90, 0x80, 0x80, 0x80, 0x00};
  buffer_reader r{data};
  const tlv t = read_tlv(r);
  EXPECT_THROW((void)decode_oid(t), codec_error);
}

TEST(DerDecode, OidMaxArcRoundTrips) {
  // 2^32 - 1 is the widest representable arc and must still decode.
  const oid arcs{2, 47, 0xffff'ffffu};
  const bytes enc = encode_oid(arcs);
  buffer_reader r{enc};
  EXPECT_EQ(decode_oid(read_tlv(r)), arcs);
}

TEST(DerDecode, IntegerWidthLimit) {
  bytes data = {0x02, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  buffer_reader r{data};
  const tlv t = read_tlv(r);
  EXPECT_THROW((void)decode_integer(t), codec_error);
}

// Property: INTEGER round-trips for random 64-bit values.
class IntegerRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegerRoundTrip, EncodeDecode) {
  rng r{GetParam()};
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(r.next());
    const bytes enc = integer_der(v);
    buffer_reader reader{enc};
    EXPECT_EQ(decode_integer(read_tlv(reader)), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegerRoundTrip,
                         ::testing::Values(101u, 202u, 303u, 404u));

// Property: OIDs with random arcs round-trip.
class OidRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OidRoundTrip, EncodeDecode) {
  rng r{GetParam()};
  for (int i = 0; i < 200; ++i) {
    oid arcs;
    arcs.push_back(static_cast<std::uint32_t>(r.uniform(0, 2)));
    arcs.push_back(static_cast<std::uint32_t>(
        r.uniform(0, arcs[0] < 2 ? 39 : 1000)));
    const auto extra = r.uniform(0, 8);
    for (std::uint64_t k = 0; k < extra; ++k) {
      arcs.push_back(static_cast<std::uint32_t>(r.uniform(0, 1 << 28)));
    }
    const bytes enc = encode_oid(arcs);
    buffer_reader reader{enc};
    EXPECT_EQ(decode_oid(read_tlv(reader)), arcs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OidRoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u));

// Property: random nested structures survive header round-trips at every
// size class (short form, 1-, 2- and 3-octet long forms).
class HeaderRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeaderRoundTrip, WrapUnwrap) {
  rng r{99};
  bytes payload(GetParam());
  r.fill(payload);
  const bytes wrapped = encode([&](writer& w) { w.octet_string(payload); });
  buffer_reader reader{wrapped};
  const tlv t = read_tlv(reader);
  EXPECT_TRUE(t.is(tag::octet_string));
  EXPECT_EQ(bytes(t.content.begin(), t.content.end()), payload);
  EXPECT_TRUE(reader.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeaderRoundTrip,
                         ::testing::Values(0u, 1u, 127u, 128u, 255u, 256u,
                                           65535u, 65536u, 100000u));

}  // namespace
}  // namespace certquic::asn1
