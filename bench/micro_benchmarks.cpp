// google-benchmark micro-benchmarks for the library's hot paths:
// DER encoding, LZ compression, QUIC packet (de)coding, the simulator's
// event loop and full simulated handshakes.
#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "ca/ecosystem.hpp"
#include "compress/codec.hpp"
#include "net/simulator.hpp"
#include "quic/client.hpp"
#include "quic/server.hpp"
#include "quic/varint.hpp"
#include "tls/handshake.hpp"
#include "x509/certificate.hpp"

namespace {

using namespace certquic;

void BM_VarintEncode(benchmark::State& state) {
  rng r{1};
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) {
    v = r.uniform(0, quic::kVarintMax);
  }
  for (auto _ : state) {
    buffer_writer w;
    for (const auto v : values) {
      quic::write_varint(w, v);
    }
    benchmark::DoNotOptimize(w.view().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_VarintEncode);

void BM_CertificateIssue(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  const auto& profile = eco.profile("le-r3-x1cross");
  rng r{2};
  for (auto _ : state) {
    const auto chain = eco.issue(profile, "bench.example", r);
    benchmark::DoNotOptimize(chain.wire_size());
  }
}
BENCHMARK(BM_CertificateIssue);

void BM_LzCompressChain(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  rng r{3};
  const auto chain = eco.issue(eco.profile("le-r3-x1cross"), "z.example", r);
  const bytes payload = chain.concatenated_der();
  const bytes dictionary = eco.compression_dictionary();
  const compress::codec codec{compress::algorithm::brotli, dictionary};
  for (auto _ : state) {
    const bytes compressed = codec.compress(payload);
    benchmark::DoNotOptimize(compressed.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_LzCompressChain);

void BM_LzRoundTrip(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  rng r{4};
  const auto chain = eco.issue(eco.profile("cloudflare"), "rt.example", r);
  const bytes payload = chain.concatenated_der();
  const bytes dictionary = eco.compression_dictionary();
  const compress::codec codec{compress::algorithm::zstd, dictionary};
  for (auto _ : state) {
    const bytes compressed = codec.compress(payload);
    const bytes restored = codec.decompress(compressed);
    benchmark::DoNotOptimize(restored.size());
  }
}
BENCHMARK(BM_LzRoundTrip);

void BM_ServerFlightBuild(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  rng r{5};
  const auto chain = eco.issue(eco.profile("sectigo"), "f.example", r);
  for (auto _ : state) {
    const auto flight = tls::build_server_flight(chain, nullptr, r);
    benchmark::DoNotOptimize(flight.total_size());
  }
}
BENCHMARK(BM_ServerFlightBuild);

void BM_FullHandshake(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  rng r{6};
  auto chain = eco.issue(eco.profile("cloudflare"), "hs.example", r);
  const net::endpoint_id server_ep{net::ipv4::of(192, 0, 2, 9), 443};
  const net::endpoint_id client_ep{net::ipv4::of(10, 0, 0, 9), 55555};
  for (auto _ : state) {
    net::simulator sim;
    quic::server srv{sim, server_ep, chain,
                     quic::server_behavior::cloudflare(), bytes_view{}, 7};
    quic::client cli{sim, client_ep, server_ep,
                     {.initial_size = 1362}, 8};
    cli.start();
    sim.run();
    benchmark::DoNotOptimize(cli.result().bytes_received_total);
  }
}
BENCHMARK(BM_FullHandshake);

void BM_DatagramParse(benchmark::State& state) {
  rng r{9};
  quic::packet p;
  p.type = quic::packet_type::initial;
  p.dcid.resize(8);
  r.fill(p.dcid);
  bytes crypto(900);
  r.fill(crypto);
  p.frames.push_back(quic::crypto_frame{0, crypto});
  std::vector<quic::packet> dgram{p};
  (void)quic::pad_datagram_to(dgram, 1200);
  const bytes wire = quic::encode_datagram(dgram);
  for (auto _ : state) {
    const auto parsed = quic::parse_datagram(wire);
    benchmark::DoNotOptimize(parsed.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DatagramParse);

// A client Initial as the census sends it: one ClientHello-sized CRYPTO
// frame padded to 1362 B, so most of the datagram is PADDING.
void BM_PaddedClientInitialParse(benchmark::State& state) {
  rng r{10};
  tls::client_hello_config ch;
  ch.server_name = "census.example";
  quic::packet p;
  p.type = quic::packet_type::initial;
  p.dcid.resize(8);
  r.fill(p.dcid);
  p.frames.push_back(
      quic::crypto_frame{0, tls::encode_client_hello(ch, r)});
  std::vector<quic::packet> dgram{p};
  (void)quic::pad_datagram_to(dgram, 1362);
  const bytes wire = quic::encode_datagram(dgram);
  for (auto _ : state) {
    const auto parsed = quic::parse_datagram(wire);
    benchmark::DoNotOptimize(parsed.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_PaddedClientInitialParse);

// DER encoding of one leaf certificate from a fixed spec: no chain
// issuance, no ecosystem lookups.
void BM_LeafCertificateEncode(benchmark::State& state) {
  rng setup{11};
  x509::certificate_spec spec;
  spec.issuer = x509::distinguished_name::org("US", "Let's Encrypt", "R3");
  spec.subject = x509::distinguished_name::cn("leaf.example");
  bytes issuer_key_id(20);
  setup.fill(issuer_key_id);
  spec.extensions = {
      x509::make_basic_constraints(false),
      x509::make_key_usage(0x80),
      x509::make_ext_key_usage(true),
      x509::make_subject_key_id(setup),
      x509::make_authority_key_id(issuer_key_id),
      x509::make_subject_alt_name({"leaf.example", "www.leaf.example"}),
      x509::make_certificate_policies(false, "http://cps.example/cps"),
      x509::make_authority_info_access("http://ocsp.example",
                                       "http://ca.example/ca.crt"),
      x509::make_sct_list(2, setup),
  };
  for (auto _ : state) {
    rng r{12};
    const x509::certificate leaf{spec, r};
    benchmark::DoNotOptimize(leaf.size());
  }
}
BENCHMARK(BM_LeafCertificateEncode);

// 1 000 datagrams of 1200 B through one simulator, 16 in flight at a
// time: every delivery sends the next datagram, as a flight's ACK clock
// does. The event loop's per-datagram cost, with a working set small
// enough that the allocator never returns memory to the OS mid-run.
void BM_SimulatorDeliver(benchmark::State& state) {
  constexpr std::size_t kDatagrams = 1000;
  constexpr std::size_t kInFlight = 16;
  const net::endpoint_id src{net::ipv4::of(10, 0, 0, 1), 40000};
  const net::endpoint_id dst{net::ipv4::of(192, 0, 2, 1), 443};
  const bytes payload(1200, std::uint8_t{0xab});
  for (auto _ : state) {
    net::simulator sim;
    std::size_t sent = 0;
    std::size_t received = 0;
    sim.attach(dst, [&](const net::datagram& d) {
      received += d.payload.size();
      if (sent < kDatagrams) {
        ++sent;
        sim.send({src, dst, payload});
      }
    });
    for (; sent < kInFlight; ++sent) {
      sim.send({src, dst, payload});
    }
    sim.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDatagrams));
}
BENCHMARK(BM_SimulatorDeliver);

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // glibc hands the top of the heap back to the OS whenever more than
  // the trim threshold (128 KiB, then adjusted dynamically) is free, so
  // without a fixed threshold one benchmark's frees decide whether the
  // next one pays page faults. Pinned, each number is independent of
  // which benchmarks ran before it.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
