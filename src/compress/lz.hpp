// LZ77 compressor with external-dictionary support.
//
// This is the real compression engine behind the RFC 8879 certificate
// compression model. DER certificate chains compress well because issuer
// names, OIDs, URLs and whole intermediate certificates repeat — an LZ
// back-reference scheme over a shared dictionary captures exactly that
// redundancy, which is also what brotli/zlib/zstd exploit in practice.
//
// Token format (verified lossless by round-trip property tests):
//   repeat {
//     varint literal_len; literal bytes;
//     [ varint match_distance (>=1); varint match_len (>=kMinMatch) ]
//   }
// A final literal run with no trailing match ends the stream. Distances
// may reach back beyond the start of the input into the dictionary.
#pragma once

#include <cstddef>

#include "util/bytes.hpp"

namespace certquic::compress {

/// Minimum back-reference length worth encoding.
inline constexpr std::size_t kMinMatch = 4;

/// Largest output lz_decompress produces: RFC 8879 carries the
/// uncompressed length as a uint24, so a larger decode can only come
/// from a hostile or corrupt stream (a tiny match token may claim any
/// length).
inline constexpr std::size_t kMaxDecompressed = (std::size_t{1} << 24) - 1;

/// Tuning knobs differentiating the algorithm presets.
struct lz_params {
  /// Maximum back-reference distance (window), including dictionary.
  std::size_t window = 1 << 22;
  /// Maximum dictionary prefix considered (0 = dictionary disabled).
  std::size_t max_dictionary = 1 << 22;
  /// Match-lengths at or above this stop the search early (greedy cap).
  std::size_t good_enough = 512;
};

/// Compresses `input` against `dictionary` (may be empty).
[[nodiscard]] bytes lz_compress(bytes_view input, bytes_view dictionary,
                                const lz_params& params = {});

/// Reverses lz_compress; requires the same dictionary bytes.
/// Throws codec_error on malformed streams and on output that would
/// exceed kMaxDecompressed.
[[nodiscard]] bytes lz_decompress(bytes_view compressed, bytes_view dictionary);

/// Unsigned LEB128 used by the token stream (exposed for tests).
void write_varint(bytes& out, std::uint64_t v);
[[nodiscard]] std::uint64_t read_varint(bytes_view data, std::size_t& pos);

}  // namespace certquic::compress
