// Unit and property tests for the LZ77 codec and algorithm presets.
#include <gtest/gtest.h>

#include <string>

#include "ca/ecosystem.hpp"
#include "compress/codec.hpp"
#include "compress/lz.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace certquic::compress {
namespace {

TEST(Varint, RoundTripsBoundaries) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xffffffffULL,
        0xffffffffffffffffULL}) {
    bytes out;
    write_varint(out, v);
    std::size_t pos = 0;
    EXPECT_EQ(read_varint(out, pos), v);
    EXPECT_EQ(pos, out.size());
  }
}

TEST(Varint, ThrowsOnTruncation) {
  const bytes data = {0x80};
  std::size_t pos = 0;
  EXPECT_THROW((void)read_varint(data, pos), codec_error);
}

TEST(Varint, ThrowsOnOverlongContinuationRun) {
  // Ten continuation groups exhaust a 64-bit value; an eleventh used
  // to push the shift count past 63 — undefined behaviour caught by
  // UBSan — instead of failing. Must throw, not keep shifting.
  const bytes data = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                      0x80, 0x80, 0x80, 0x80, 0x01};
  std::size_t pos = 0;
  EXPECT_THROW((void)read_varint(data, pos), codec_error);
}

TEST(Varint, ThrowsWhenTopGroupOverflows64Bits) {
  // The tenth group may only carry bit 63; anything wider overflows.
  const bytes data = {0xff, 0xff, 0xff, 0xff, 0xff,
                      0xff, 0xff, 0xff, 0xff, 0x02};
  std::size_t pos = 0;
  EXPECT_THROW((void)read_varint(data, pos), codec_error);
}

TEST(Lz, EmptyInput) {
  const bytes compressed = lz_compress({}, {});
  EXPECT_EQ(lz_decompress(compressed, {}), bytes{});
}

TEST(Lz, IncompressibleInputStaysIntact) {
  rng r{1};
  bytes input(512);
  r.fill(input);
  const bytes compressed = lz_compress(input, {});
  EXPECT_EQ(lz_decompress(compressed, {}), input);
  // Random data cannot shrink; overhead must stay tiny.
  EXPECT_LE(compressed.size(), input.size() + 16);
}

TEST(Lz, RepetitiveInputShrinksALot) {
  bytes input;
  for (int i = 0; i < 100; ++i) {
    append(input, std::string_view{"certificate chains repeat a lot! "});
  }
  const bytes compressed = lz_compress(input, {});
  EXPECT_EQ(lz_decompress(compressed, {}), input);
  EXPECT_LT(compressed.size(), input.size() / 10);
}

TEST(Lz, DictionaryEnablesCrossReferences) {
  bytes dictionary;
  for (int i = 0; i < 8; ++i) {
    append(dictionary, std::string_view{"shared intermediate certificate "});
  }
  bytes input = dictionary;  // input equals dictionary content
  const bytes with_dict = lz_compress(input, dictionary);
  const bytes without = lz_compress(input, {});
  EXPECT_LT(with_dict.size(), without.size());
  EXPECT_EQ(lz_decompress(with_dict, dictionary), input);
}

TEST(Lz, DecompressRejectsCorruptStreams) {
  // Match distance beyond history.
  bytes bogus;
  write_varint(bogus, 0);  // no literals
  write_varint(bogus, 99); // distance
  write_varint(bogus, 8);  // length
  EXPECT_THROW((void)lz_decompress(bogus, {}), codec_error);

  // Literal run longer than stream.
  bytes truncated;
  write_varint(truncated, 1000);
  truncated.push_back('x');
  EXPECT_THROW((void)lz_decompress(truncated, {}), codec_error);

  // Zero match distance.
  bytes zero_dist;
  write_varint(zero_dist, 1);
  zero_dist.push_back('a');
  write_varint(zero_dist, 0);
  write_varint(zero_dist, 8);
  EXPECT_THROW((void)lz_decompress(zero_dist, {}), codec_error);
}

TEST(Lz, DecompressRejectsASingleHugeMatch) {
  // Seven bytes: literal 'A', then one match (distance 1) claiming
  // 2^26 bytes. Without the output cap this decodes to 64 MiB.
  bytes bomb;
  write_varint(bomb, 1);
  bomb.push_back('A');
  write_varint(bomb, 1);
  write_varint(bomb, std::uint64_t{1} << 26);
  ASSERT_EQ(bomb.size(), 7u);
  EXPECT_THROW((void)lz_decompress(bomb, {}), codec_error);
}

TEST(Lz, DecompressCapsTheTotalOfManyMatches) {
  // Literal 'A', then `count` distance-1 matches of `len` bytes, each
  // followed by an empty literal run. The cap is on the total output.
  const auto stream = [](std::size_t count, std::size_t len) {
    bytes out;
    write_varint(out, 1);
    out.push_back('A');
    for (std::size_t i = 0; i < count; ++i) {
      write_varint(out, 1);
      write_varint(out, len);
      write_varint(out, 0);
    }
    return out;
  };
  EXPECT_EQ(lz_decompress(stream(1, kMaxDecompressed - 1), {}).size(),
            kMaxDecompressed);
  // 256 matches of 64 KiB each: harmless alone, just over the cap together.
  EXPECT_THROW((void)lz_decompress(stream(256, 1u << 16), {}), codec_error);
}

TEST(Lz, MatchMayReachAcrossDictionaryBoundary) {
  const bytes dictionary = to_bytes("abcdefgh");
  // Input starts with dictionary suffix + its own prefix repeated.
  const bytes input = to_bytes("efghefghefgh");
  const bytes compressed = lz_compress(input, dictionary);
  EXPECT_EQ(lz_decompress(compressed, dictionary), input);
}

TEST(Codec, NamesAndCodePoints) {
  EXPECT_EQ(to_string(algorithm::brotli), "brotli");
  EXPECT_EQ(to_string(algorithm::zlib), "zlib");
  EXPECT_EQ(to_string(algorithm::zstd), "zstd");
  EXPECT_EQ(static_cast<std::uint16_t>(algorithm::zlib), 1);
  EXPECT_EQ(static_cast<std::uint16_t>(algorithm::brotli), 2);
  EXPECT_EQ(static_cast<std::uint16_t>(algorithm::zstd), 3);
}

TEST(Codec, SavingsDefinition) {
  codec c{algorithm::brotli};
  EXPECT_EQ(c.savings({}), 0.0);
  bytes input;
  for (int i = 0; i < 64; ++i) {
    append(input, std::string_view{"aaaaaaaaaaaaaaaa"});
  }
  const double s = c.savings(input);
  EXPECT_GT(s, 0.9);
  EXPECT_LE(s, 1.0);
}

// The headline claim of §4.2: compressing real certificate chains with a
// shared dictionary saves roughly 65-75% of bytes.
TEST(Codec, CertificateChainsReachPaperSavings) {
  auto eco = ca::ecosystem::make();
  const bytes dict = eco.compression_dictionary();
  codec brotli{algorithm::brotli, dict};
  rng r{7};
  double total_savings = 0.0;
  int n = 0;
  for (const char* id : {"cloudflare", "le-r3-x1cross", "le-r3", "sectigo"}) {
    for (int i = 0; i < 5; ++i) {
      const auto chain = eco.issue(eco.profile(id),
                                   "domain" + std::to_string(i) + ".example",
                                   r);
      const bytes payload = chain.concatenated_der();
      const bytes compressed = brotli.compress(payload);
      EXPECT_EQ(brotli.decompress(compressed), payload) << id;
      total_savings += brotli.savings(payload);
      ++n;
    }
  }
  const double mean = total_savings / n;
  EXPECT_GT(mean, 0.55);
  EXPECT_LT(mean, 0.90);
}

TEST(Codec, AlgorithmsRankPlausibly) {
  auto eco = ca::ecosystem::make();
  const bytes dict = eco.compression_dictionary();
  rng r{9};
  const auto chain = eco.issue(eco.profile("le-r3-x1cross"), "big.example", r);
  const bytes payload = chain.concatenated_der();
  const double brotli_s = codec{algorithm::brotli, dict}.savings(payload);
  const double zlib_s = codec{algorithm::zlib, dict}.savings(payload);
  const double zstd_s = codec{algorithm::zstd, dict}.savings(payload);
  // brotli >= zstd (same window, more patient search); zlib is limited
  // by its 32 KiB dictionary cap but stays in the same ballpark
  // (paper: 73% / 74% / 72% are within two points of each other).
  EXPECT_GE(brotli_s + 1e-9, zstd_s);
  EXPECT_NEAR(brotli_s, zlib_s, 0.15);
  EXPECT_NEAR(brotli_s, zstd_s, 0.15);
}

// Property: random structured corpora round-trip losslessly under every
// algorithm preset.
struct FuzzCase {
  algorithm alg;
  std::uint64_t seed;
};

class CodecFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(CodecFuzz, LosslessRoundTrip) {
  const auto& param = GetParam();
  rng r{param.seed};
  bytes dictionary(static_cast<std::size_t>(r.uniform(0, 4096)));
  r.fill(dictionary);
  codec c{param.alg, dictionary};
  for (int round = 0; round < 20; ++round) {
    // Mix of random spans and repeated motifs, like DER structures.
    bytes input;
    const auto segments = r.uniform(1, 12);
    for (std::uint64_t s = 0; s < segments; ++s) {
      if (r.chance(0.5)) {
        bytes random_part(static_cast<std::size_t>(r.uniform(1, 300)));
        r.fill(random_part);
        append(input, random_part);
      } else {
        const std::string motif = r.ascii_label(2, 24);
        const auto repeats = r.uniform(1, 40);
        for (std::uint64_t k = 0; k < repeats; ++k) {
          append(input, motif);
        }
      }
      if (r.chance(0.3) && !dictionary.empty()) {
        // Splice a dictionary fragment so cross-references get exercised.
        const auto off = r.uniform(0, dictionary.size() - 1);
        const auto len =
            r.uniform(1, dictionary.size() - static_cast<std::size_t>(off));
        append(input, bytes_view{dictionary.data() + off,
                                 static_cast<std::size_t>(len)});
      }
    }
    const bytes compressed = c.compress(input);
    EXPECT_EQ(c.decompress(compressed), input);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndSeeds, CodecFuzz,
    ::testing::Values(FuzzCase{algorithm::brotli, 1},
                      FuzzCase{algorithm::brotli, 2},
                      FuzzCase{algorithm::zlib, 3},
                      FuzzCase{algorithm::zlib, 4},
                      FuzzCase{algorithm::zstd, 5},
                      FuzzCase{algorithm::zstd, 6}));

}  // namespace
}  // namespace certquic::compress
