// TLS certificate-compression algorithm presets (RFC 8879 model).
//
// The paper (§3.2, Table 1, §4.2) studies three algorithms negotiated via
// the TLS compress_certificate extension: brotli (Chromium), zlib and
// zstd (Safari/TLS-over-TCP). All three are LZ-family; our presets share
// the LZ77 engine and differ in window and shared-dictionary use, which
// reproduces their near-identical rates on certificate chains
// (73% / 74% / 72% mean in the paper).
#pragma once

#include <string>

#include "compress/lz.hpp"
#include "util/bytes.hpp"

namespace certquic::compress {

/// TLS 1.3 CertificateCompressionAlgorithm code points (RFC 8879 §3).
enum class algorithm : std::uint16_t {
  zlib = 1,
  brotli = 2,
  zstd = 3,
};

/// Human-readable algorithm name ("brotli", "zlib", "zstd").
[[nodiscard]] std::string to_string(algorithm a);

/// A configured certificate compressor.
///
/// The dictionary plays the role of brotli's built-in dictionary plus
/// ecosystem knowledge (common intermediate certificates, OID and URL
/// fragments); `ca::ecosystem::compression_dictionary()` builds one.
class codec {
 public:
  /// Creates a codec over a borrowed `dictionary`, which must outlive
  /// it; it may be empty (pure self-referential compression, as with
  /// plain zlib).
  explicit codec(algorithm a, bytes_view dictionary = {});
  /// A temporary dictionary would dangle.
  codec(algorithm a, bytes&& dictionary) = delete;

  [[nodiscard]] algorithm alg() const noexcept { return alg_; }
  [[nodiscard]] bytes_view dictionary() const noexcept { return dictionary_; }

  /// Compresses a certificate-chain payload.
  [[nodiscard]] bytes compress(bytes_view input) const;

  /// Decompresses; throws codec_error on malformed input.
  [[nodiscard]] bytes decompress(bytes_view data) const;

  /// Fraction of bytes saved: 1 - compressed/original (0 for empty
  /// input). This is the "compression rate" reported in Table 1.
  [[nodiscard]] double savings(bytes_view input) const;

 private:
  algorithm alg_;
  bytes_view dictionary_;
  lz_params params_;
};

}  // namespace certquic::compress
