#include "quic/client.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace certquic::quic {
namespace {

/// Appends a CRYPTO chunk to an in-order reassembly buffer, ignoring
/// already-received prefixes (retransmissions restart at offset 0).
/// Chunks beyond the current tail are dropped — with the simulator's
/// in-order delivery this only happens when datagrams were lost, in
/// which case the handshake stalls and times out like a real one.
void reassemble(bytes& stream, const crypto_frame& cf) {
  if (cf.offset > stream.size()) {
    return;  // gap: predecessor lost
  }
  const std::size_t already = stream.size() - cf.offset;
  if (already >= cf.data.size()) {
    return;  // fully duplicate
  }
  stream.insert(stream.end(), cf.data.begin() + static_cast<long>(already),
                cf.data.end());
}

}  // namespace

std::string to_string(ack_policy p) {
  switch (p) {
    case ack_policy::delayed:
      return "delayed-ack";
    case ack_policy::instant:
      return "instant-ack";
    case ack_policy::none:
      return "no-ack";
  }
  return "?";
}

client::client(net::simulator& sim, net::endpoint_id local,
               net::endpoint_id server, client_config config,
               std::uint64_t seed)
    : sim_(sim),
      local_(local),
      server_(server),
      config_(std::move(config)),
      rng_(seed) {
  dcid_.resize(8);
  rng_.fill(dcid_);
  sim_.attach(local_, [this](const net::datagram& d) { on_datagram(d); });
}

client::~client() { sim_.detach(local_); }

void client::start() {
  obs_.start_time = sim_.now();
  send_initial(/*token=*/{});
  sim_.schedule(config_.timeout, [this]() {
    if (!obs_.handshake_complete) {
      obs_.timed_out = true;
    }
  });
}

void client::send_initial(const bytes& token) {
  tls::client_hello_config ch;
  ch.server_name = config_.sni;
  ch.compression_algorithms = config_.offer_compression;

  packet init;
  init.type = packet_type::initial;
  init.version = config_.version;
  init.dcid = dcid_;
  init.scid = scid_;
  init.token = token;
  init.packet_number = next_pn_initial_++;
  init.frames.push_back(crypto_frame{0, tls::encode_client_hello(ch, rng_)});

  std::vector<packet> dgram{std::move(init)};
  (void)pad_datagram_to(dgram, config_.initial_size);
  bytes wire = encode_datagram(dgram);

  const net::endpoint_id src = config_.spoof_source.value_or(local_);
  ++obs_.client_datagrams;
  obs_.bytes_sent_total += wire.size();
  if (obs_.bytes_sent_first_flight == 0) {
    obs_.bytes_sent_first_flight = wire.size();
  }
  sim_.send({src, server_, std::move(wire)});
}

void client::on_datagram(const net::datagram& d) {
  std::vector<packet> packets;
  try {
    packets = parse_datagram(d.payload);
  } catch (const codec_error&) {
    return;
  }
  if (!obs_.response_received) {
    obs_.first_receive_time = sim_.now();
  }
  obs_.last_receive_time = sim_.now();
  obs_.response_received = true;
  ++obs_.server_datagrams;
  obs_.bytes_received_total += d.payload.size();
  const bool in_first_burst = obs_.client_datagrams <= 1;
  if (in_first_burst) {
    obs_.bytes_received_first_burst += d.payload.size();
  }

  for (const packet& p : packets) {
    if (p.is_version_negotiation()) {
      if (!obs_.version_negotiation_seen && config_.send_acks) {
        obs_.version_negotiation_seen = true;
        for (const std::uint32_t v : p.supported_versions) {
          if (v != 0) {
            config_.version = v;  // adopt and retry once
            send_initial(/*token=*/{});
            break;
          }
        }
      }
      continue;
    }
    if (p.type == packet_type::retry) {
      if (!obs_.retry_seen) {
        obs_.retry_seen = true;
        if (config_.send_acks) {
          // Fresh attempt carrying the token (RFC 9000 §8.1.2).
          send_initial(p.token);
        }
      }
      continue;
    }
    if (p.type == packet_type::one_rtt) {
      // Application data: the response to our request. The timeline's
      // endpoint is the first STREAM byte (TTFB).
      for (const frame& f : p.frames) {
        if (const auto* sf = std::get_if<stream_frame>(&f)) {
          if (obs_.first_app_byte_time == 0 && !sf->data.empty()) {
            obs_.first_app_byte_time = sim_.now();
          }
          obs_.app_bytes_received += sf->data.size();
        }
      }
      continue;
    }
    server_scid_ = p.scid;
    const frame_accounting fa = account(p.frames);
    obs_.tls_bytes_received += fa.crypto_payload;
    obs_.padding_bytes_received += fa.padding;
    if (in_first_burst) {
      obs_.tls_bytes_first_burst += fa.crypto_payload;
      obs_.padding_bytes_first_burst += fa.padding;
    }
    for (const frame& f : p.frames) {
      if (const auto* cf = std::get_if<crypto_frame>(&f)) {
        if (p.type == packet_type::initial) {
          reassemble(initial_stream_, *cf);
        } else if (p.type == packet_type::handshake) {
          reassemble(handshake_stream_, *cf);
          handshake_keys_ = true;
        }
      }
    }
    if (p.type == packet_type::initial) {
      largest_initial_pn_ = std::max(largest_initial_pn_, p.packet_number);
    } else if (p.type == packet_type::handshake) {
      largest_handshake_pn_ = std::max(largest_handshake_pn_,
                                       p.packet_number);
    }
  }

  maybe_complete();

  if (config_.send_acks && !ack_timer_armed_ && !finished_sent_) {
    ack_timer_armed_ = true;
    // Delayed-ack batches a burst into one acknowledgement; a zero
    // delay (instant-ACK variant) still fires after every delivery
    // already queued for this instant, so same-instant bursts batch.
    sim_.schedule(config_.ack_delay, [this]() { send_ack_flight(); });
  }
}

void client::maybe_complete() {
  if (obs_.handshake_complete) {
    return;
  }
  // ServerHello complete at the Initial level?
  try {
    if (initial_stream_.empty()) {
      return;
    }
    const auto sh = tls::peek_frame(initial_stream_);
    if (sh.type != tls::handshake_type::server_hello ||
        initial_stream_.size() < sh.total_size) {
      return;
    }
  } catch (const codec_error&) {
    return;  // still partial
  }
  // Walk the Handshake-level stream; complete when Finished is whole.
  std::size_t offset = 0;
  bool saw_finished = false;
  while (offset < handshake_stream_.size()) {
    tls::frame_info info{};
    try {
      info = tls::peek_frame(
          bytes_view{handshake_stream_.data() + offset,
                     handshake_stream_.size() - offset});
    } catch (const codec_error&) {
      return;  // truncated message at the tail
    }
    if (info.type == tls::handshake_type::certificate ||
        info.type == tls::handshake_type::compressed_certificate) {
      obs_.certificate_msg_size = info.total_size;
      obs_.compression_used =
          info.type == tls::handshake_type::compressed_certificate;
      if (config_.capture_certificate) {
        obs_.certificate_message.assign(
            handshake_stream_.begin() + static_cast<long>(offset),
            handshake_stream_.begin() +
                static_cast<long>(offset + info.total_size));
      }
      if (obs_.compression_used) {
        // uncompressed_length sits right after the 2-byte algorithm id.
        buffer_reader r{bytes_view{handshake_stream_.data() + offset,
                                   handshake_stream_.size() - offset}};
        r.skip(4 + 2);
        obs_.certificate_uncompressed_size = r.u24();
      } else {
        obs_.certificate_uncompressed_size = info.total_size;
      }
    }
    if (info.type == tls::handshake_type::finished) {
      saw_finished = true;
    }
    offset += info.total_size;
  }
  if (!saw_finished) {
    return;
  }
  obs_.handshake_complete = true;
  obs_.complete_time = sim_.now();
}

void client::send_ack_flight() {
  ack_timer_armed_ = false;
  if (finished_sent_ || !config_.send_acks) {
    return;
  }
  if (!obs_.handshake_complete) {
    ++obs_.acks_before_complete;
  }

  std::vector<packet> dgram;
  packet init_ack;
  init_ack.type = packet_type::initial;
  init_ack.dcid = server_scid_.empty() ? dcid_ : server_scid_;
  init_ack.scid = scid_;
  init_ack.packet_number = next_pn_initial_++;
  init_ack.frames.push_back(ack_frame{largest_initial_pn_});
  dgram.push_back(std::move(init_ack));

  if (handshake_keys_) {
    packet hs;
    hs.type = packet_type::handshake;
    hs.dcid = server_scid_.empty() ? dcid_ : server_scid_;
    hs.scid = scid_;
    hs.packet_number = next_pn_handshake_++;
    hs.frames.push_back(ack_frame{largest_handshake_pn_});
    if (obs_.handshake_complete) {
      hs.frames.push_back(crypto_frame{0, tls::encode_finished(rng_)});
      finished_sent_ = true;
    }
    dgram.push_back(std::move(hs));
    if (finished_sent_ && config_.fetch_app_data) {
      // Coalesce the application request behind the Finished flight —
      // last in the datagram, as a length-less short-header packet
      // must be. TTFB then measures first Initial → first response
      // byte with no client-side think time.
      packet req;
      req.type = packet_type::one_rtt;
      req.dcid = server_scid_.empty() ? dcid_ : server_scid_;
      req.packet_number = next_pn_app_++;
      const std::string request = "GET /index.html";
      req.frames.push_back(
          stream_frame{0, 0, bytes(request.begin(), request.end())});
      dgram.push_back(std::move(req));
    }
  }

  // Client Initial-bearing datagrams must also meet the 1200-byte
  // minimum... but ACK-only Initial packets are not ack-eliciting, so
  // no padding is required here (RFC 9000 §14.1 applies to
  // ack-eliciting Initials).
  bytes wire = encode_datagram(dgram);
  ++obs_.client_datagrams;
  obs_.bytes_sent_total += wire.size();
  sim_.send({local_, server_, std::move(wire)});
}

}  // namespace certquic::quic
