// Heap-allocation bounds for certificate issuance and copying. This
// binary replaces
// the global operator new with a counting one, so a return of per-TLV
// `bytes` temporaries to the DER path fails here on any host instead of
// only showing up as a slower benchmark.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>

#include "ca/ecosystem.hpp"
#include "internet/model.hpp"

namespace {

// Counted only while a test arms it; gtest's own allocations between
// measurements do not count.
thread_local bool counting = false;
thread_local std::size_t allocations = 0;

void* counted_alloc(std::size_t n) {
  if (counting) {
    ++allocations;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc{};
}

/// Heap allocations made by `fn()` on this thread.
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  allocations = 0;
  counting = true;
  fn();
  counting = false;
  return allocations;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace certquic {
namespace {

// One le-r3-x1cross issue: an RSA leaf with up to two SANs, eight
// extensions and up to two embedded SCTs behind two shared parents. The
// per-TLV encoder took 271 allocations and the writer 20; with names
// held as their DER it takes 19: the subject name and the issuer name
// copied from the parent's DER (one each), the SAN list and URLs, one
// buffer per extension value, the extension list, the exact-size DER
// and the chain's parent list.
TEST(AllocationBound, NamedProfileIssue) {
  const ca::ecosystem eco = ca::ecosystem::make();
  const ca::chain_profile& profile = eco.profile("le-r3-x1cross");
  rng r{2};
  // Warm the thread's DER scratch buffer first.
  (void)eco.issue(profile, "bench.example", r);
  std::size_t worst = 0;
  for (int i = 0; i < 16; ++i) {
    const std::size_t n = allocations_of([&] {
      const x509::chain chain = eco.issue(profile, "bench.example", r);
      EXPECT_GT(chain.wire_size(), 0u);
    });
    worst = std::max(worst, n);
  }
  std::printf("le-r3-x1cross issue: %zu allocations (worst of 16)\n", worst);
  EXPECT_LE(worst, 21u);
}

// A certificate is its DER plus fixed-size facts, so copying one (as
// every chain_cache hit does when a probe takes its chain) allocates the
// DER buffer and nothing else. While it retained its spec, a copy took
// 13 allocations: the names, every extension value and the extension
// list.
TEST(AllocationBound, CertificateCopyIsItsDer) {
  const ca::ecosystem eco = ca::ecosystem::make();
  rng r{2};
  const x509::chain chain =
      eco.issue(eco.profile("le-r3-x1cross"), "bench.example", r);
  std::optional<x509::certificate> copy;
  const std::size_t n = allocations_of([&] { copy.emplace(chain.leaf()); });
  std::printf("le-r3-x1cross leaf copy: %zu allocations\n", n);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(copy->der(), chain.leaf().der());
}

// Mean allocations per chain over every TLS record of a small
// population: named profiles, the long tail (which issues its own
// parents) and cruise liners. 385.5 with the per-TLV encoder, 38.3 with
// the writer, 32.3 with names held as their DER.
TEST(AllocationBound, CorpusChainMean) {
  const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  std::size_t chains = 0;
  std::size_t total = 0;
  for (const internet::service_record& rec : m.records()) {
    if (!rec.serves_tls()) {
      continue;
    }
    if (chains == 0) {
      (void)m.chain_of(rec, internet::fetch_protocol::https);
    }
    total += allocations_of([&] {
      (void)m.chain_of(rec, internet::fetch_protocol::https);
    });
    ++chains;
  }
  ASSERT_GT(chains, 0u);
  const double mean =
      static_cast<double>(total) / static_cast<double>(chains);
  std::printf("corpus chain_of: %.1f allocations per chain (%zu chains)\n",
              mean, chains);
  EXPECT_LE(mean, 35.5);
}

}  // namespace
}  // namespace certquic
