// QUIC server endpoint for one service (domain + certificate chain +
// behaviour profile), attached to the network simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/simulator.hpp"
#include "quic/behavior.hpp"
#include "util/rng.hpp"
#include "x509/chain.hpp"

namespace certquic::quic {

/// Aggregated server-side counters (all connections).
struct server_stats {
  std::uint64_t connections = 0;
  std::uint64_t retries_sent = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t retransmission_flights = 0;
  /// Flights the amplification limit held back until validation — the
  /// budget gating *when* bytes go out, not just whether (the stall is
  /// the round trip the multi-RTT timelines pay).
  std::uint64_t budget_blocked_flights = 0;
  /// Total virtual time connections spent with a flight blocked on the
  /// amplification budget, from the blocking send attempt until
  /// validation released it.
  std::uint64_t budget_blocked_us = 0;
};

/// A QUIC/TLS server. One instance serves one certificate chain under
/// one behaviour profile; it accepts any number of connections.
class server {
 public:
  /// `codec_dictionary` backs certificate compression when a client
  /// offers an algorithm in `behavior.compression_support`. It is
  /// borrowed and must outlive the server (the model's dictionary
  /// outlives every probe).
  server(net::simulator& sim, net::endpoint_id address, x509::chain chain,
         server_behavior behavior, bytes_view codec_dictionary,
         std::uint64_t seed);
  /// A temporary dictionary would dangle.
  server(net::simulator& sim, net::endpoint_id address, x509::chain chain,
         server_behavior behavior, bytes&& codec_dictionary,
         std::uint64_t seed) = delete;
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  [[nodiscard]] const net::endpoint_id& address() const noexcept {
    return address_;
  }
  [[nodiscard]] const server_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const x509::chain& chain() const noexcept { return chain_; }
  [[nodiscard]] const server_behavior& behavior() const noexcept {
    return behavior_;
  }

 private:
  struct connection {
    net::endpoint_id peer;
    bytes client_dcid;   // what the client called us
    bytes client_scid;   // the client's source cid (our dcid towards it)
    bytes our_scid;
    bool validated = false;
    bool done = false;   // full flight delivered and acknowledged
    bool limit_exempt = false;  // transient: non-compliant resend pump
    std::uint64_t bytes_received = 0;
    std::uint64_t budget_spent = 0;  // per-policy accounting units
    std::size_t handshake_packets_sent = 0;
    std::size_t datagrams_sent = 0;
    std::uint64_t next_pn_initial = 0;
    std::uint64_t next_pn_handshake = 0;
    std::uint64_t largest_seen_initial_pn = 0;
    bool largest_seen_valid = false;
    // TLS byte streams by encryption level.
    bytes initial_stream;    // ServerHello
    bytes handshake_stream;  // EE..Finished (possibly compressed cert)
    std::size_t initial_sent = 0;    // first-transmission watermark
    std::size_t handshake_sent = 0;
    std::size_t retransmissions = 0;
    net::duration pto = 0;
    std::uint64_t pto_generation = 0;  // cancels stale timers
    bool budget_blocked = false;       // a flight waits on validation
    net::time_point blocked_since = 0;
    bool app_response_sent = false;    // one response per connection
    std::uint64_t next_pn_app = 0;
    net::time_point next_send_at = 0;  // pacing horizon (pacing_bps)
  };

  void on_datagram(const net::datagram& d);
  void handle_client_initial(connection& c, const packet& p);
  /// Sends as much pending flight data as the policy allows.
  void pump(connection& c, bool include_ack);
  /// Retransmits everything sent so far (unvalidated client timeout).
  void retransmit(connection& c);
  void arm_pto(connection& c);
  /// Answers the client's 1-RTT STREAM request with one response
  /// datagram (once per connection) — the application byte the TTFB
  /// timeline ends on.
  void maybe_send_app_response(connection& c, const packet& p);

  /// Checks and charges the amplification budget for one datagram of
  /// `wire_bytes` containing `padding_bytes` of padding and
  /// `handshake_packets` Handshake-type packets. Returns false when the
  /// policy forbids sending.
  [[nodiscard]] bool charge(connection& c, std::size_t wire_bytes,
                            std::size_t padding_bytes,
                            std::size_t handshake_packets);

  void transmit(connection& c, std::vector<packet> packets);

  net::simulator& sim_;
  net::endpoint_id address_;
  x509::chain chain_;
  server_behavior behavior_;
  bytes_view codec_dictionary_;
  rng rng_;
  server_stats stats_;
  std::unordered_map<net::endpoint_id, std::unique_ptr<connection>> conns_;
};

}  // namespace certquic::quic
