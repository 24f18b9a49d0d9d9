#include "quic/server.hpp"

#include <algorithm>

#include "tls/handshake.hpp"
#include "util/errors.hpp"

namespace certquic::quic {
namespace {

std::string to_string_impl(amplification_policy p) {
  switch (p) {
    case amplification_policy::unlimited:
      return "unlimited (pre-Draft-09)";
    case amplification_policy::min_initial_only:
      return "min-Initial check only (Draft 09)";
    case amplification_policy::max_three_handshake_packets:
      return "<=3 Handshake packets (Drafts 10-12)";
    case amplification_policy::max_three_datagrams:
      return "<=3 datagrams (Drafts 13-14)";
    case amplification_policy::three_x_bytes:
      return "3x bytes (Draft 15+ / RFC 9000)";
  }
  throw config_error("unknown amplification_policy");
}

bytes random_cid(rng& r, std::size_t len) {
  bytes cid(len);
  r.fill(cid);
  return cid;
}

}  // namespace

std::string to_string(amplification_policy p) { return to_string_impl(p); }

server_behavior server_behavior::compliant() {
  server_behavior b;
  b.coalesce_levels = true;
  b.max_retransmissions = 2;
  return b;
}

server_behavior server_behavior::standard_no_coalesce() {
  server_behavior b;
  b.coalesce_levels = false;
  // Common off-the-shelf stacks acknowledge the client Initial in its
  // own padded datagram before the ServerHello datagram; unlike
  // Cloudflare they count those padding bytes against the limit, which
  // wastes most of the pre-validation budget (§4.1: "multi-RTT
  // handshakes are caused by large certificates AND missing packet
  // coalescence").
  b.ack_in_separate_datagram = true;
  b.max_retransmissions = 2;
  return b;
}

server_behavior server_behavior::cloudflare() {
  server_behavior b;
  b.coalesce_levels = false;
  b.ack_in_separate_datagram = true;
  b.count_padding_in_limit = false;  // the reported accounting bug
  // Cloudflare pads these datagrams at the UDP layer beyond the QUIC
  // minimum; the targets are calibrated so the two Initial-level
  // datagrams carry the constant 2462 superfluous bytes of §4.1.
  b.pad_target = 1332;
  b.ack_pad_target = 1333;
  b.max_retransmissions = 1;
  b.compression_support = {compress::algorithm::brotli};
  return b;
}

server_behavior server_behavior::google() {
  server_behavior b;
  b.coalesce_levels = true;
  // §4.3: "All hypergiants exceed the amplification limit due to
  // resends" — Google stays below 10x but does not count resends.
  b.limit_covers_retransmissions = false;
  b.max_retransmissions = 2;
  b.compression_support = {compress::algorithm::brotli};
  return b;
}

server_behavior server_behavior::meta_pre_disclosure(
    std::size_t retransmissions) {
  server_behavior b;
  b.coalesce_levels = true;
  b.limit_covers_retransmissions = false;  // the mvfst non-compliance
  b.max_retransmissions = retransmissions;
  b.pto_initial = net::milliseconds(400);
  b.compression_support = {compress::algorithm::brotli,
                           compress::algorithm::zlib,
                           compress::algorithm::zstd};
  return b;
}

server_behavior server_behavior::meta_post_disclosure() {
  server_behavior b = meta_pre_disclosure(1);
  return b;
}

server_behavior server_behavior::retry_always() {
  server_behavior b;
  b.always_retry = true;
  b.coalesce_levels = true;
  b.max_retransmissions = 2;
  return b;
}

server::server(net::simulator& sim, net::endpoint_id address,
               x509::chain chain, server_behavior behavior,
               bytes codec_dictionary, std::uint64_t seed)
    : sim_(sim),
      address_(address),
      chain_(std::move(chain)),
      behavior_(behavior),
      codec_dictionary_(std::move(codec_dictionary)),
      rng_(seed) {
  sim_.attach(address_, [this](const net::datagram& d) { on_datagram(d); });
}

server::~server() { sim_.detach(address_); }

void server::on_datagram(const net::datagram& d) {
  std::vector<packet> packets;
  try {
    packets = parse_datagram(d.payload);
  } catch (const codec_error&) {
    return;  // garbage is dropped silently
  }
  auto it = conns_.find(d.src);
  if (it == conns_.end()) {
    // New connection requires a client Initial of minimum size.
    const bool has_initial =
        std::any_of(packets.begin(), packets.end(), [](const packet& p) {
          return p.type == packet_type::initial;
        });
    if (!has_initial || d.payload.size() < kMinInitialSize) {
      return;  // RFC 9000 §14.1: drop undersized client Initials
    }
    auto conn = std::make_unique<connection>();
    conn->peer = d.src;
    conn->our_scid = random_cid(rng_, 8);
    it = conns_.emplace(d.src, std::move(conn)).first;
    ++stats_.connections;
  }
  connection& c = *it->second;

  const bool first_contact = c.bytes_received == 0;
  c.bytes_received += d.payload.size();
  if (!first_contact) {
    // Any datagram from the claimed address after our first flight
    // completes the round trip and validates the path (RFC 9000 §8.1).
    if (!c.validated) {
      c.validated = true;
      ++c.pto_generation;  // cancel outstanding retransmission timers
      if (c.budget_blocked) {
        // The budget had a flight parked; validation releases it now —
        // account how long the limit gated the timeline.
        c.budget_blocked = false;
        stats_.budget_blocked_us += sim_.now() - c.blocked_since;
      }
      pump(c, /*include_ack=*/false);
    }
    for (const packet& p : packets) {
      if (p.type == packet_type::handshake) {
        c.done = true;  // client reached Handshake keys; flight delivered
      }
      if (p.type == packet_type::initial) {
        c.largest_seen_initial_pn = std::max(c.largest_seen_initial_pn,
                                             p.packet_number);
      }
      if (p.type == packet_type::one_rtt) {
        maybe_send_app_response(c, p);
      }
    }
    return;
  }

  for (const packet& p : packets) {
    if (p.type == packet_type::initial) {
      handle_client_initial(c, p);
      break;
    }
  }
}

void server::handle_client_initial(connection& c, const packet& p) {
  c.client_dcid = p.dcid;
  c.client_scid = p.scid;
  c.largest_seen_initial_pn = p.packet_number;
  c.largest_seen_valid = true;

  if (p.version != behavior_.supported_version) {
    // Version mismatch: reply with Version Negotiation and forget the
    // attempt (RFC 9000 §6). The client retries with our version,
    // paying one extra round trip.
    const packet vn = make_version_negotiation(
        p.scid, p.dcid, {behavior_.supported_version});
    bytes wire = encode_datagram({vn});
    ++stats_.datagrams_sent;
    stats_.bytes_sent += wire.size();
    sim_.send({address_, c.peer, std::move(wire)});
    conns_.erase(c.peer);
    return;
  }

  if (behavior_.always_retry && p.token.empty()) {
    packet retry;
    retry.type = packet_type::retry;
    retry.dcid = c.client_scid;
    retry.scid = c.our_scid;
    retry.token = random_cid(rng_, 24);
    // A Retry consumes the connection attempt: the client will come
    // back with the token in a fresh Initial.
    bytes wire = encode_datagram({retry});
    ++stats_.retries_sent;
    ++stats_.datagrams_sent;
    stats_.bytes_sent += wire.size();
    sim_.send({address_, c.peer, std::move(wire)});
    conns_.erase(c.peer);
    return;
  }
  if (!p.token.empty()) {
    c.validated = true;  // token proves a completed round trip
  }

  // Negotiate certificate compression: use the first mutually supported
  // algorithm in server preference order.
  std::unique_ptr<compress::codec> codec;
  bytes crypto_payload;
  for (const frame& f : p.frames) {
    if (const auto* cf = std::get_if<crypto_frame>(&f)) {
      append(crypto_payload, cf->data);
    }
  }
  if (!crypto_payload.empty()) {
    try {
      const auto offered = tls::parse_offered_compression(crypto_payload);
      for (const auto alg : behavior_.compression_support) {
        if (std::find(offered.begin(), offered.end(), alg) != offered.end()) {
          codec = std::make_unique<compress::codec>(alg, codec_dictionary_);
          break;
        }
      }
    } catch (const codec_error&) {
      // Not a parseable ClientHello (e.g. a raw probe); serve anyway.
    }
  }

  const tls::server_flight flight =
      tls::build_server_flight(chain_, codec.get(), rng_);
  c.initial_stream = flight.server_hello;
  c.handshake_stream.clear();
  for (const auto& msg : flight.handshake_msgs) {
    append(c.handshake_stream, msg);
  }

  pump(c, /*include_ack=*/true);
  if (!c.validated) {
    c.pto = behavior_.pto_initial;
    arm_pto(c);
  }
}

bool server::charge(connection& c, std::size_t wire_bytes,
                    std::size_t padding_bytes,
                    std::size_t handshake_packets) {
  if (c.validated || c.limit_exempt) {
    return true;
  }
  switch (behavior_.policy) {
    case amplification_policy::unlimited:
    case amplification_policy::min_initial_only:
      // min-Initial was enforced on receive; no send-side limit.
      return true;
    case amplification_policy::max_three_handshake_packets:
      if (c.handshake_packets_sent + handshake_packets > 3) {
        return false;
      }
      return true;
    case amplification_policy::max_three_datagrams:
      if (c.datagrams_sent + 1 > 3) {
        return false;
      }
      return true;
    case amplification_policy::three_x_bytes: {
      const std::size_t counted =
          behavior_.count_padding_in_limit
              ? wire_bytes
              : wire_bytes - std::min(wire_bytes, padding_bytes);
      if (c.budget_spent + counted > 3 * c.bytes_received) {
        return false;
      }
      c.budget_spent += counted;
      return true;
    }
  }
  throw config_error("unknown amplification_policy");
}

void server::transmit(connection& c, std::vector<packet> packets) {
  std::size_t handshake_packets = 0;
  for (const auto& p : packets) {
    if (p.type == packet_type::handshake) {
      ++handshake_packets;
    }
  }
  c.handshake_packets_sent += handshake_packets;
  ++c.datagrams_sent;
  bytes wire = encode_datagram(packets);
  ++stats_.datagrams_sent;
  stats_.bytes_sent += wire.size();
  if (behavior_.pacing_bps == 0) {
    sim_.send({address_, c.peer, std::move(wire)});
    return;
  }
  // Pacing: space this connection's datagrams by their serialization
  // time at pacing_bps instead of bursting them at one instant. The
  // send itself is deferred via a timer; the datagram's fate (path
  // loss, MTU) is still decided at departure.
  const std::uint64_t bits = static_cast<std::uint64_t>(wire.size()) * 8;
  const net::duration serialize =
      (bits * 1'000'000 + behavior_.pacing_bps - 1) / behavior_.pacing_bps;
  const net::time_point depart = std::max(sim_.now(), c.next_send_at);
  c.next_send_at = depart + serialize;
  const net::endpoint_id peer = c.peer;
  sim_.schedule(depart - sim_.now(),
                [this, peer, wire = std::move(wire)]() mutable {
                  sim_.send({address_, peer, std::move(wire)});
                });
}

void server::pump(connection& c, bool include_ack) {
  // Per-datagram fixed overheads.
  const std::size_t max_udp = behavior_.max_udp_payload;

  bool ack_pending = include_ack;
  const bool cloudflare_style =
      behavior_.ack_in_separate_datagram && !behavior_.coalesce_levels;

  // Cloudflare pattern, datagram 1: a padded, ACK-only Initial.
  if (cloudflare_style && ack_pending) {
    packet ack_pkt;
    ack_pkt.type = packet_type::initial;
    ack_pkt.dcid = c.client_scid;
    ack_pkt.scid = c.our_scid;
    ack_pkt.packet_number = c.next_pn_initial++;
    ack_pkt.frames.push_back(ack_frame{c.largest_seen_initial_pn});
    std::vector<packet> dgram{std::move(ack_pkt)};
    const std::size_t padding =
        pad_datagram_to(dgram, behavior_.ack_pad_target);
    std::size_t wire = 0;
    for (const auto& p : dgram) {
      wire += p.wire_size();
    }
    if (charge(c, wire, padding, 0)) {
      transmit(c, std::move(dgram));
    }
    ack_pending = false;
  }

  while (!c.done) {
    const std::size_t initial_left = c.initial_stream.size() - c.initial_sent;
    const std::size_t hs_left =
        c.handshake_stream.size() - c.handshake_sent;
    if (initial_left == 0 && hs_left == 0) {
      break;
    }

    std::vector<packet> dgram;
    std::size_t space = max_udp;

    if (initial_left > 0 || ack_pending) {
      packet init;
      init.type = packet_type::initial;
      init.dcid = c.client_scid;
      init.scid = c.our_scid;
      init.packet_number = c.next_pn_initial++;
      if (ack_pending) {
        init.frames.push_back(ack_frame{c.largest_seen_initial_pn});
        ack_pending = false;
      }
      if (initial_left > 0) {
        // Header + CRYPTO framing overhead, conservatively 60 bytes.
        const std::size_t chunk = std::min(initial_left, space - 60);
        crypto_frame cf;
        cf.offset = c.initial_sent;
        cf.data.assign(
            c.initial_stream.begin() + static_cast<long>(c.initial_sent),
            c.initial_stream.begin() +
                static_cast<long>(c.initial_sent + chunk));
        c.initial_sent += chunk;
        init.frames.push_back(std::move(cf));
      }
      dgram.push_back(std::move(init));
      space = space > dgram.back().wire_size()
                  ? space - dgram.back().wire_size()
                  : 0;
    }

    if (hs_left > 0 && c.initial_sent == c.initial_stream.size()) {
      const bool may_coalesce = behavior_.coalesce_levels || dgram.empty();
      if (may_coalesce && space > 80) {
        packet hs;
        hs.type = packet_type::handshake;
        hs.dcid = c.client_scid;
        hs.scid = c.our_scid;
        hs.packet_number = c.next_pn_handshake++;
        const std::size_t overhead = 50;  // header + frame framing
        const std::size_t chunk = std::min(hs_left, space - overhead);
        crypto_frame cf;
        cf.offset = c.handshake_sent;
        cf.data.assign(
            c.handshake_stream.begin() + static_cast<long>(c.handshake_sent),
            c.handshake_stream.begin() +
                static_cast<long>(c.handshake_sent + chunk));
        c.handshake_sent += chunk;
        hs.frames.push_back(std::move(cf));
        dgram.push_back(std::move(hs));
      }
    }

    if (dgram.empty()) {
      break;  // nothing fit (shouldn't happen)
    }

    // Pad datagrams carrying ack-eliciting Initial packets.
    std::size_t padding = 0;
    const bool has_ack_eliciting_initial =
        std::any_of(dgram.begin(), dgram.end(), [](const packet& p) {
          return p.type == packet_type::initial && p.ack_eliciting();
        });
    std::size_t wire = 0;
    for (const auto& p : dgram) {
      wire += p.wire_size();
    }
    if (has_ack_eliciting_initial && wire < behavior_.pad_target) {
      padding = pad_datagram_to(dgram, behavior_.pad_target);
      wire = 0;
      for (const auto& p : dgram) {
        wire += p.wire_size();
      }
    }

    std::size_t handshake_packets = 0;
    for (const auto& p : dgram) {
      if (p.type == packet_type::handshake) {
        ++handshake_packets;
      }
    }
    if (!charge(c, wire, padding, handshake_packets)) {
      if (!c.budget_blocked && !c.validated) {
        // The limit is now gating *time*, not just volume: this flight
        // stalls until the client's next datagram validates the path.
        c.budget_blocked = true;
        c.blocked_since = sim_.now();
        ++stats_.budget_blocked_flights;
      }
      // Budget exhausted: roll back the stream watermarks consumed by
      // this datagram and wait for validation.
      for (const auto& p : dgram) {
        for (const auto& f : p.frames) {
          if (const auto* cf = std::get_if<crypto_frame>(&f)) {
            if (p.type == packet_type::initial) {
              c.initial_sent -= cf->data.size();
            } else {
              c.handshake_sent -= cf->data.size();
            }
          }
        }
        if (p.type == packet_type::initial) {
          --c.next_pn_initial;
        } else {
          --c.next_pn_handshake;
        }
      }
      break;
    }
    transmit(c, std::move(dgram));
  }
}

void server::retransmit(connection& c) {
  if (c.validated || c.done) {
    return;
  }
  if (c.retransmissions >= behavior_.max_retransmissions) {
    return;  // give up; connection idles out
  }
  ++c.retransmissions;
  ++stats_.retransmission_flights;

  // Resend everything transmitted so far (unconfirmed Initial +
  // Handshake data), as observed for real deployments.
  const std::size_t initial_sent = c.initial_sent;
  const std::size_t handshake_sent = c.handshake_sent;
  if (behavior_.limit_covers_retransmissions) {
    // Budget stays charged; re-check against the remaining allowance.
    c.initial_sent = 0;
    c.handshake_sent = 0;
    // Temporarily clamp streams to the previously sent watermarks so the
    // pump resends exactly the first flight.
    const bytes initial_backup = c.initial_stream;
    const bytes handshake_backup = c.handshake_stream;
    c.initial_stream.resize(initial_sent);
    c.handshake_stream.resize(handshake_sent);
    pump(c, /*include_ack=*/false);
    c.initial_stream = initial_backup;
    c.handshake_stream = handshake_backup;
    c.initial_sent = std::max(c.initial_sent, initial_sent);
    c.handshake_sent = std::max(c.handshake_sent, handshake_sent);
  } else {
    // Meta/mvfst behaviour: the limit is not applied to resends. The
    // buggy implementations flush *everything* pending on PTO — the
    // already-sent flight plus any tail the first-flight limit held
    // back — which is how 28-45x amplification factors arise (§4.3).
    c.limit_exempt = true;
    c.initial_sent = 0;
    c.handshake_sent = 0;
    pump(c, /*include_ack=*/false);
    c.limit_exempt = false;
    c.initial_sent = std::max(c.initial_sent, initial_sent);
    c.handshake_sent = std::max(c.handshake_sent, handshake_sent);
  }
  c.pto *= 2;
  arm_pto(c);
}

void server::maybe_send_app_response(connection& c, const packet& p) {
  if (c.app_response_sent) {
    return;
  }
  const stream_frame* request = nullptr;
  for (const frame& f : p.frames) {
    if (const auto* sf = std::get_if<stream_frame>(&f)) {
      request = sf;
      break;
    }
  }
  if (request == nullptr) {
    return;
  }
  c.app_response_sent = true;
  // A fixed-size response head: the timeline only needs the *first*
  // application byte, so one datagram stands in for the object. The
  // client sends its request only after the handshake completed, so
  // the path is validated and no budget applies here.
  packet resp;
  resp.type = packet_type::one_rtt;
  resp.dcid = c.client_scid;
  resp.packet_number = c.next_pn_app++;
  resp.frames.push_back(stream_frame{request->id, 0, bytes(256, 0x5a)});
  std::vector<packet> dgram;
  dgram.push_back(std::move(resp));
  transmit(c, std::move(dgram));
}

void server::arm_pto(connection& c) {
  const std::uint64_t generation = c.pto_generation;
  const net::endpoint_id peer = c.peer;
  sim_.schedule(c.pto, [this, peer, generation]() {
    const auto it = conns_.find(peer);
    if (it == conns_.end()) {
      return;
    }
    connection& conn = *it->second;
    if (conn.pto_generation != generation) {
      return;  // cancelled
    }
    retransmit(conn);
  });
}

}  // namespace certquic::quic
