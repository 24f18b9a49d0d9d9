// Unit and property tests for the util module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/buffer.hpp"
#include "util/bytes.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"

namespace certquic {
namespace {

TEST(BufferWriter, WritesBigEndianIntegers) {
  buffer_writer w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u24(0x040506);
  w.u32(0x0708090a);
  w.u64(0x0b0c0d0e0f101112ULL);
  const bytes out = std::move(w).take();
  const bytes expected = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                          0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c,
                          0x0d, 0x0e, 0x0f, 0x10, 0x11, 0x12};
  EXPECT_EQ(out, expected);
}

TEST(BufferWriter, U24RejectsOverflow) {
  buffer_writer w;
  EXPECT_THROW(w.u24(1u << 24), codec_error);
  w.u24((1u << 24) - 1);
  EXPECT_EQ(w.size(), 3u);
}

TEST(BufferWriter, ReserveAndPatch) {
  buffer_writer w;
  const auto slot16 = w.reserve_u16();
  const auto slot24 = w.reserve_u24();
  w.u8(0xff);
  w.patch_u16(slot16, 0xabcd);
  w.patch_u24(slot24, 0x123456);
  const bytes out = std::move(w).take();
  const bytes expected = {0xab, 0xcd, 0x12, 0x34, 0x56, 0xff};
  EXPECT_EQ(out, expected);
}

TEST(BufferWriter, PatchOutOfRangeThrows) {
  buffer_writer w;
  EXPECT_THROW(w.patch_u16(0, 1), codec_error);
}

TEST(BufferReader, RoundTripsWriterOutput) {
  buffer_writer w;
  w.u8(0x7f);
  w.u16(0xbeef);
  w.u24(0xabcdef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.raw(std::string_view{"hi"});
  const bytes data = std::move(w).take();

  buffer_reader r{data};
  EXPECT_EQ(r.u8(), 0x7f);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u24(), 0xabcdefu);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  const auto tail = r.raw(2);
  EXPECT_EQ(tail[0], 'h');
  EXPECT_EQ(tail[1], 'i');
  EXPECT_TRUE(r.empty());
}

TEST(BufferReader, ThrowsOnUnderrun) {
  const bytes data = {0x01};
  buffer_reader r{data};
  EXPECT_THROW((void)r.u16(), codec_error);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_THROW((void)r.u8(), codec_error);
}

TEST(BufferReader, PeekDoesNotConsume) {
  const bytes data = {0x42, 0x43};
  buffer_reader r{data};
  EXPECT_EQ(r.peek_u8(), 0x42);
  EXPECT_EQ(r.u8(), 0x42);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(BufferReader, SkipZerosOnEmptyViewIsZero) {
  buffer_reader r{bytes_view{}};
  EXPECT_EQ(r.skip_zeros(), 0u);
  EXPECT_TRUE(r.empty());
}

TEST(BufferReader, SkipZerosConsumesAnAllZeroView) {
  const bytes data(1500, 0x00);
  buffer_reader r{data};
  EXPECT_EQ(r.skip_zeros(), 1500u);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.skip_zeros(), 0u);
}

TEST(BufferReader, SkipZerosStopsAtEndOfView) {
  const bytes data = {0x05, 0x00, 0x00, 0x00};
  buffer_reader r{bytes_view{data}.first(3)};
  EXPECT_EQ(r.u8(), 0x05);
  EXPECT_EQ(r.skip_zeros(), 2u);  // the fourth zero lies outside the view
  EXPECT_TRUE(r.empty());
  EXPECT_THROW((void)r.u8(), codec_error);
}

TEST(BufferReader, SkipZerosStopsAtNonZeroByte) {
  const bytes data = {0x00, 0x00, 0x07, 0x00};
  buffer_reader r{data};
  EXPECT_EQ(r.skip_zeros(), 2u);
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.skip_zeros(), 0u);  // next byte is non-zero: nothing moves
  EXPECT_EQ(r.u8(), 0x07);
  EXPECT_EQ(r.skip_zeros(), 1u);
  EXPECT_TRUE(r.empty());
}

TEST(Hex, RoundTrip) {
  const bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0001ABFF"), data);
}

TEST(Hex, ColonSeparated) {
  const bytes data = {0x01, 0x74, 0xca, 0x7e};
  EXPECT_EQ(to_hex_colon(data), "01:74:ca:7e");
  EXPECT_EQ(to_hex_colon(bytes{}), "");
}

TEST(Hex, RejectsInvalidInput) {
  EXPECT_THROW(from_hex("abc"), codec_error);
  EXPECT_THROW(from_hex("zz"), codec_error);
}

TEST(Rng, DeterministicForSameSeed) {
  rng a{42};
  rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a{1};
  rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInRange) {
  rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_THROW((void)r.uniform(5, 4), config_error);
}

TEST(Rng, Uniform01MeanIsCentered) {
  rng r{9};
  double total = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    total += v;
  }
  EXPECT_NEAR(total / kN, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsExtremes) {
  rng r{3};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, NormalMatchesMoments) {
  rng r{11};
  double total = 0.0;
  double total_sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(5.0, 2.0);
    total += v;
    total_sq += v * v;
  }
  const double mean = total / kN;
  const double var = total_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ParetoStaysWithinBounds) {
  rng r{13};
  for (int i = 0; i < 10000; ++i) {
    const double v = r.pareto(1.0, 100.0, 1.2);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0 + 1e-9);
  }
  EXPECT_THROW((void)r.pareto(0.0, 10.0, 1.0), config_error);
}

TEST(Rng, WeightedIndexMatchesWeights) {
  rng r{17};
  const double weights[] = {1.0, 3.0, 0.0, 6.0};
  int counts[4] = {0, 0, 0, 0};
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    ++counts[r.weighted_index(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / kN, 0.3, 0.015);
  EXPECT_NEAR(static_cast<double>(counts[3]) / kN, 0.6, 0.015);
}

TEST(Rng, WeightedIndexRejectsDegenerateInput) {
  rng r{19};
  EXPECT_THROW((void)r.weighted_index({}), config_error);
  const double zeros[] = {0.0, 0.0};
  EXPECT_THROW((void)r.weighted_index(zeros), config_error);
}

TEST(Rng, AsciiLabelRespectsLengthAndAlphabet) {
  rng r{23};
  for (int i = 0; i < 200; ++i) {
    const auto label = r.ascii_label(3, 12);
    EXPECT_GE(label.size(), 3u);
    EXPECT_LE(label.size(), 12u);
    for (const char c : label) {
      EXPECT_TRUE(c >= 'a' && c <= 'z');
    }
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  rng parent{31};
  rng child_a = parent.fork(1);
  rng child_b = parent.fork(2);
  EXPECT_NE(child_a.next(), child_b.next());
}

TEST(Rng, FillCoversWholeSpan) {
  rng r{37};
  bytes buf(33, 0);
  r.fill(buf);
  // A 33-byte random buffer is all-zero with probability ~2^-264.
  EXPECT_TRUE(std::any_of(buf.begin(), buf.end(),
                          [](std::uint8_t b) { return b != 0; }));
}

TEST(TextTable, AlignsColumns) {
  text_table t{{"name", "value"}};
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, HandlesRaggedRows) {
  text_table t{{"a"}};
  t.add_row({"x", "extra"});
  const std::string out = t.render();
  EXPECT_NE(out.find("extra"), std::string::npos);
}

TEST(Format, FixedAndPercent) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(pct(0.6154), "61.54%");
  EXPECT_EQ(pct(1.0, 0), "100%");
}

TEST(Format, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(272000), "272,000");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

// Property sweep: round-trip every integer width over random values.
class BufferRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferRoundTrip, AllWidths) {
  const std::uint64_t v = GetParam();
  buffer_writer w;
  w.u8(static_cast<std::uint8_t>(v));
  w.u16(static_cast<std::uint16_t>(v));
  w.u24(static_cast<std::uint32_t>(v & 0xffffff));
  w.u32(static_cast<std::uint32_t>(v));
  w.u64(v);
  const bytes data = std::move(w).take();
  buffer_reader r{data};
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(v));
  EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(v));
  EXPECT_EQ(r.u24(), v & 0xffffff);
  EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(v));
  EXPECT_EQ(r.u64(), v);
}

INSTANTIATE_TEST_SUITE_P(Values, BufferRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 0x7fULL, 0x80ULL,
                                           0xffULL, 0x100ULL, 0xffffULL,
                                           0x10000ULL, 0xffffffULL,
                                           0x1000000ULL, 0xffffffffULL,
                                           0x100000000ULL,
                                           0xfedcba9876543210ULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace certquic
