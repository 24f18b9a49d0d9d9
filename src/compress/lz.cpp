#include "compress/lz.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/errors.hpp"

namespace certquic::compress {
namespace {

constexpr std::size_t kHashBits = 16;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kMaxChainSteps = 64;

std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t max_len) noexcept {
  std::size_t n = 0;
  while (n < max_len && a[n] == b[n]) {
    ++n;
  }
  return n;
}

}  // namespace

void write_varint(bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t read_varint(bytes_view data, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos >= data.size()) {
      throw codec_error("varint truncated");
    }
    const std::uint8_t b = data[pos++];
    // shift caps at 63 (ten groups): the tenth group may only carry
    // the top bit, and nothing may continue past it — otherwise a run
    // of continuation bytes would push the shift count past 63, which
    // is undefined for a 64-bit shift.
    if (shift >= 63 && (b & 0xfe) != 0) {
      throw codec_error("varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) {
      return v;
    }
    shift += 7;
  }
}

bytes lz_compress(bytes_view input, bytes_view dictionary,
                  const lz_params& params) {
  // Work over dict || input; only input positions emit tokens.
  const std::size_t dict_len =
      std::min(dictionary.size(), params.max_dictionary);
  const bytes_view dict = dictionary.subspan(dictionary.size() - dict_len);

  bytes all;
  all.reserve(dict_len + input.size());
  append(all, dict);
  append(all, input);

  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(all.size(), -1);

  auto insert = [&](std::size_t pos) {
    if (pos + 4 <= all.size()) {
      const std::uint32_t h = hash4(all.data() + pos);
      prev[pos] = head[h];
      head[h] = static_cast<std::int32_t>(pos);
    }
  };
  // Pre-index the dictionary so the first input bytes can reference it.
  for (std::size_t i = 0; i < dict_len; ++i) {
    insert(i);
  }

  bytes out;
  out.reserve(input.size() / 2 + 16);
  std::size_t pos = dict_len;           // cursor in `all`
  std::size_t literal_start = dict_len; // first unemitted literal

  auto flush_literals = [&](std::size_t upto) {
    write_varint(out, upto - literal_start);
    out.insert(out.end(), all.begin() + static_cast<long>(literal_start),
               all.begin() + static_cast<long>(upto));
    literal_start = upto;
  };

  while (pos < all.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= all.size()) {
      const std::size_t max_len = all.size() - pos;
      std::int32_t candidate = head[hash4(all.data() + pos)];
      std::size_t steps = 0;
      while (candidate >= 0 && steps < kMaxChainSteps) {
        const auto cand_pos = static_cast<std::size_t>(candidate);
        const std::size_t dist = pos - cand_pos;
        if (dist > params.window) {
          break;  // chain only gets older
        }
        const std::size_t len =
            match_length(all.data() + cand_pos, all.data() + pos, max_len);
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len >= params.good_enough) {
            break;
          }
        }
        candidate = prev[cand_pos];
        ++steps;
      }
    }

    if (best_len >= kMinMatch) {
      flush_literals(pos);
      write_varint(out, best_dist);
      write_varint(out, best_len);
      // Index every position covered by the match so later references
      // can land inside it.
      const std::size_t end = pos + best_len;
      while (pos < end) {
        insert(pos);
        ++pos;
      }
      literal_start = pos;
    } else {
      insert(pos);
      ++pos;
    }
  }
  if (literal_start < all.size() || out.empty()) {
    flush_literals(all.size());
  }
  return out;
}

bytes lz_decompress(bytes_view compressed, bytes_view dictionary) {
  bytes out;
  std::size_t pos = 0;
  while (pos < compressed.size()) {
    const std::uint64_t lit_len = read_varint(compressed, pos);
    if (lit_len > compressed.size() - pos) {
      throw codec_error("literal run truncated");
    }
    if (lit_len > kMaxDecompressed - out.size()) {
      throw codec_error("decompressed size exceeds limit");
    }
    out.insert(out.end(), compressed.begin() + static_cast<long>(pos),
               compressed.begin() + static_cast<long>(pos + lit_len));
    pos += lit_len;
    if (pos >= compressed.size()) {
      break;  // final literal run
    }
    const std::uint64_t dist = read_varint(compressed, pos);
    const std::uint64_t len = read_varint(compressed, pos);
    if (dist == 0 || len < kMinMatch) {
      throw codec_error("invalid match token");
    }
    if (dist > out.size() + dictionary.size()) {
      throw codec_error("match distance exceeds history");
    }
    if (len > kMaxDecompressed - out.size()) {
      throw codec_error("decompressed size exceeds limit");
    }
    for (std::uint64_t i = 0; i < len; ++i) {
      std::uint8_t value;
      if (dist > out.size()) {
        // Reaches into the dictionary suffix.
        const std::size_t back = static_cast<std::size_t>(dist) - out.size();
        value = dictionary[dictionary.size() - back];
      } else {
        value = out[out.size() - static_cast<std::size_t>(dist)];
      }
      out.push_back(value);
    }
  }
  return out;
}

}  // namespace certquic::compress
