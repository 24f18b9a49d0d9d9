// Unit and property tests for the DER encoder/decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "asn1/der.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace certquic::asn1 {
namespace {

bytes_view view(const bytes& b) { return b; }

TEST(DerHeader, ShortForm) {
  const bytes h = encode_header(0x30, 0x7f);
  const bytes expected = {0x30, 0x7f};
  EXPECT_EQ(h, expected);
}

TEST(DerHeader, LongForm) {
  const bytes one = encode_header(0x30, 0x80);
  const bytes expected_one = {0x30, 0x81, 0x80};
  EXPECT_EQ(one, expected_one);

  const bytes two = encode_header(0x30, 0x1234);
  const bytes expected_two = {0x30, 0x82, 0x12, 0x34};
  EXPECT_EQ(two, expected_two);
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

TEST(DerHeader, ExactBytesAtEveryLengthFormBoundary) {
  bytes content;
  for (const auto& [length, octets] : length_boundaries()) {
    content.assign(length, 0x5a);
    EXPECT_TRUE(is_tlv(encode_header(0x30, length), 0x30, octets, {}))
        << "encode_header, length " << length;
    EXPECT_TRUE(is_tlv(wrap(tag::octet_string, content), 0x04, octets,
                       content))
        << "wrap, length " << length;
    EXPECT_TRUE(is_tlv(sequence({view(content)}), 0x30, octets, content))
        << "sequence, length " << length;
    EXPECT_TRUE(is_tlv(set({view(content)}), 0x31, octets, content))
        << "set, length " << length;
    EXPECT_TRUE(is_tlv(context(3, content), 0xa3, octets, content))
        << "context, length " << length;
    EXPECT_TRUE(is_tlv(context(3, content, /*constructed=*/false), 0x83,
                       octets, content))
        << "primitive context, length " << length;
  }
}

TEST(DerSequence, VectorAndInitializerListAgree) {
  const bytes a = encode_integer(-129);
  const bytes b = encode_octet_string(bytes(200, 0x11));
  const bytes c = encode_null();
  EXPECT_EQ(sequence(std::vector<bytes>{a, b, c}),
            sequence({view(a), view(b), view(c)}));
  EXPECT_EQ(sequence(std::vector<bytes>{}), sequence({}));
  EXPECT_EQ(sequence(std::vector<bytes>{b}), sequence({view(b)}));
}

TEST(DerInteger, KnownEncodings) {
  // Canonical two's-complement minimal forms.
  EXPECT_EQ(encode_integer(0), (bytes{0x02, 0x01, 0x00}));
  EXPECT_EQ(encode_integer(127), (bytes{0x02, 0x01, 0x7f}));
  EXPECT_EQ(encode_integer(128), (bytes{0x02, 0x02, 0x00, 0x80}));
  EXPECT_EQ(encode_integer(256), (bytes{0x02, 0x02, 0x01, 0x00}));
  EXPECT_EQ(encode_integer(-1), (bytes{0x02, 0x01, 0xff}));
  EXPECT_EQ(encode_integer(-128), (bytes{0x02, 0x01, 0x80}));
  EXPECT_EQ(encode_integer(-129), (bytes{0x02, 0x02, 0xff, 0x7f}));
  EXPECT_EQ(encode_integer(65537), (bytes{0x02, 0x03, 0x01, 0x00, 0x01}));
}

TEST(DerBigInteger, PrependsZeroForHighBit) {
  const bytes magnitude = {0x80, 0x01};
  const bytes enc = encode_big_integer(magnitude);
  EXPECT_EQ(enc, (bytes{0x02, 0x03, 0x00, 0x80, 0x01}));
}

TEST(DerBigInteger, StripsRedundantLeadingZeros) {
  const bytes magnitude = {0x00, 0x00, 0x01, 0x02};
  const bytes enc = encode_big_integer(magnitude);
  EXPECT_EQ(enc, (bytes{0x02, 0x02, 0x01, 0x02}));
}

TEST(DerBigInteger, EmptyEncodesZero) {
  EXPECT_EQ(encode_big_integer({}), (bytes{0x02, 0x01, 0x00}));
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
  EXPECT_EQ(encode_bit_string(data), (bytes{0x03, 0x02, 0x00, 0xaa}));
  EXPECT_EQ(encode_bit_string(data, 3), (bytes{0x03, 0x02, 0x03, 0xaa}));
  EXPECT_THROW((void)encode_bit_string(data, 8), codec_error);
}

TEST(DerPrimitives, BooleanNullStrings) {
  EXPECT_EQ(encode_boolean(true), (bytes{0x01, 0x01, 0xff}));
  EXPECT_EQ(encode_boolean(false), (bytes{0x01, 0x01, 0x00}));
  EXPECT_EQ(encode_null(), (bytes{0x05, 0x00}));
  EXPECT_EQ(encode_printable_string("US"), (bytes{0x13, 0x02, 'U', 'S'}));
  EXPECT_EQ(encode_utf8_string("ab"), (bytes{0x0c, 0x02, 'a', 'b'}));
  EXPECT_EQ(encode_ia5_string("x"), (bytes{0x16, 0x01, 'x'}));
}

TEST(DerUtcTime, ValidatesShape) {
  EXPECT_EQ(encode_utc_time("220910000000Z").size(), 15u);
  EXPECT_THROW((void)encode_utc_time("2209100000Z"), codec_error);
  EXPECT_THROW((void)encode_utc_time("2209100000000"), codec_error);
}

TEST(DerSequence, NestsAndMeasures) {
  const bytes inner = encode_integer(5);
  const bytes seq = sequence({view(inner), view(inner)});
  EXPECT_EQ(seq.size(), 2 + 2 * inner.size());
  EXPECT_EQ(seq[0], 0x30);
}

TEST(DerContext, TagBytes) {
  const bytes c0 = context(0, view(encode_integer(2)));
  EXPECT_EQ(c0[0], 0xa0);
  const bytes c2 = context(2, {}, /*constructed=*/false);
  EXPECT_EQ(c2[0], 0x82);
  EXPECT_THROW((void)context(31, {}), codec_error);
}

TEST(DerDecode, ReadTlvRoundTrip) {
  const bytes seq = sequence({view(encode_integer(300)),
                              view(encode_oid({2, 5, 4, 3}))});
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
    const bytes enc = encode_integer(v);
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
  const bytes wrapped = wrap(tag::octet_string, payload);
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
