#include "scan/zmap.hpp"

#include "quic/server.hpp"

namespace certquic::scan {

zmap_result zmap_probe(x509::chain chain,
                       const quic::server_behavior& behavior,
                       std::size_t initial_size, net::duration listen_for,
                       std::uint64_t seed) {
  net::simulator sim{seed};
  const net::endpoint_id server_ep{net::ipv4::of(198, 51, 100, 1), 443};
  const net::endpoint_id prober_ep{net::ipv4::of(10, 98, 0, 1), 61000};

  quic::server srv{sim,     server_ep,    std::move(chain),
                   behavior, bytes_view{}, seed ^ 1};
  quic::client_config config;
  config.initial_size = initial_size;
  config.send_acks = false;
  config.timeout = listen_for;
  quic::client cli{sim, prober_ep, server_ep, std::move(config), seed ^ 2};
  cli.start();
  sim.run();

  const quic::observation& obs = cli.result();
  zmap_result out;
  out.responded = obs.response_received;
  out.bytes_sent = obs.bytes_sent_first_flight;
  out.bytes_received = obs.bytes_received_total;
  out.server_datagrams = obs.server_datagrams;
  out.amplification = obs.total_amplification();
  // Span between the first and last backscatter datagram — the
  // "session duration" of §4.3 (Meta median ~51 s, max ~206 s).
  out.backscatter_duration =
      obs.last_receive_time > obs.first_receive_time
          ? obs.last_receive_time - obs.first_receive_time
          : 0;
  return out;
}

}  // namespace certquic::scan
