// Seeded mutation harness for decoders of external bytes.
//
// Every mutant derives from a valid input and the caller's
// `certquic::rng`, so a failure reproduces bit-for-bit from the seed.
#pragma once

#include <functional>

#include "util/bytes.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace certquic::test {

/// True when `decode()` returns or throws codec_error; any other
/// exception is a decoder bug.
template <typename Decode>
[[nodiscard]] bool decodes_or_rejects(Decode&& decode) {
  try {
    decode();
  } catch (const codec_error&) {
  } catch (...) {
    return false;
  }
  return true;
}

/// Calls `accepts(mutant)` on every truncation of `input`, then on
/// `input` with each byte in turn XORed by a mask drawn from `r` in
/// [1, 255], then on 16 copies with 1-64 bytes from `r` appended, and
/// fails the running test, naming the mutant, wherever it returns false.
/// Run under ASan+UBSan, an out-of-bounds read fails too.
void check_mutants(bytes_view input, rng& r,
                   const std::function<bool(bytes_view)>& accepts);

}  // namespace certquic::test
