#include "quic/packet.hpp"

#include "quic/varint.hpp"
#include "util/buffer.hpp"
#include "util/errors.hpp"

namespace certquic::quic {
namespace {

std::uint8_t first_byte(const packet& p) {
  if (p.type == packet_type::one_rtt) {
    // Short header: form=0, fixed=1, spin/key/reserved=0, pn_len-1.
    return static_cast<std::uint8_t>(0x40 | (kPacketNumberSize - 1));
  }
  // form=1, fixed=1, type, reserved=0, pn_len encoded as len-1.
  return static_cast<std::uint8_t>(
      0xc0 | (static_cast<std::uint8_t>(p.type) << 4) |
      (kPacketNumberSize - 1));
}

// Appends the encoding of `p` to `w`.
void write_packet(buffer_writer& w, const packet& p) {
  w.u8(first_byte(p));
  if (p.type == packet_type::one_rtt) {
    w.u8(static_cast<std::uint8_t>(p.dcid.size()));
    w.raw(p.dcid);
    w.u16(static_cast<std::uint16_t>(p.packet_number));
    for (const auto& f : p.frames) {
      write_frame(w, f);
    }
    w.zeros(kAeadTagSize);
    return;
  }
  w.u32(p.version);
  w.u8(static_cast<std::uint8_t>(p.dcid.size()));
  w.raw(p.dcid);
  w.u8(static_cast<std::uint8_t>(p.scid.size()));
  w.raw(p.scid);
  if (p.is_version_negotiation()) {
    for (const std::uint32_t v : p.supported_versions) {
      w.u32(v);
    }
    return;
  }
  if (p.type == packet_type::retry) {
    w.raw(p.token);
    w.zeros(kAeadTagSize);  // retry integrity tag
    return;
  }
  if (p.type == packet_type::initial) {
    write_varint(w, p.token.size());
    w.raw(p.token);
  }
  const std::size_t protected_size =
      kPacketNumberSize + p.payload_size() + kAeadTagSize;
  write_varint(w, protected_size);
  w.u16(static_cast<std::uint16_t>(p.packet_number));
  for (const auto& f : p.frames) {
    write_frame(w, f);
  }
  w.zeros(kAeadTagSize);  // AEAD tag placeholder
}

}  // namespace

std::size_t packet::payload_size() const {
  std::size_t total = 0;
  for (const auto& f : frames) {
    total += frame_size(f);
  }
  return total;
}

bool packet::ack_eliciting() const {
  for (const auto& f : frames) {
    if (is_ack_eliciting(f)) {
      return true;
    }
  }
  return false;
}

std::size_t packet::wire_size() const {
  if (type == packet_type::one_rtt) {
    // Short header: no version, scid or length field; the packet runs
    // to the end of the datagram. (The dcid keeps its length prefix —
    // a simulation convention, since real 1-RTT receivers know their
    // own cid length while this codec parses packets generically.)
    return 1 + 1 + dcid.size() + kPacketNumberSize + payload_size() +
           kAeadTagSize;
  }
  std::size_t header = 1 + 4 + 1 + dcid.size() + 1 + scid.size();
  if (is_version_negotiation()) {
    return header + 4 * supported_versions.size();
  }
  if (type == packet_type::retry) {
    // Retry: header + token + 16-byte integrity tag, no length/pn.
    return header + token.size() + kAeadTagSize;
  }
  if (type == packet_type::initial) {
    header += varint_size(token.size()) + token.size();
  }
  const std::size_t protected_size =
      kPacketNumberSize + payload_size() + kAeadTagSize;
  return header + varint_size(protected_size) + protected_size;
}

std::vector<packet> parse_datagram(bytes_view payload) {
  std::vector<packet> out;
  buffer_reader r{payload};
  while (!r.empty()) {
    if (r.peek_u8() == 0) {
      break;  // datagram-level padding
    }
    const std::uint8_t first = r.u8();
    if ((first & 0x80) == 0) {
      if ((first & 0x40) == 0) {
        throw codec_error("packet without the fixed bit");
      }
      // Short header (1-RTT): no length field, so the packet consumes
      // the rest of the datagram — it is always the last one.
      packet p;
      p.type = packet_type::one_rtt;
      const std::uint8_t dcid_len = r.u8();
      const auto dcid = r.raw(dcid_len);
      p.dcid.assign(dcid.begin(), dcid.end());
      if (r.remaining() < kPacketNumberSize + kAeadTagSize) {
        throw codec_error("short-header packet truncated");
      }
      p.packet_number = r.u16();
      p.frames = parse_frames(r.raw(r.remaining() - kAeadTagSize));
      r.skip(kAeadTagSize);
      out.push_back(std::move(p));
      break;
    }
    packet p;
    p.type = static_cast<packet_type>((first >> 4) & 0x03);
    p.version = r.u32();
    const std::uint8_t dcid_len = r.u8();
    const auto dcid = r.raw(dcid_len);
    p.dcid.assign(dcid.begin(), dcid.end());
    const std::uint8_t scid_len = r.u8();
    const auto scid = r.raw(scid_len);
    p.scid.assign(scid.begin(), scid.end());
    if (p.is_version_negotiation()) {
      // The remainder of a VN packet is the version list; it consumes
      // the rest of the datagram (RFC 9000 §17.2.1).
      while (r.remaining() >= 4) {
        p.supported_versions.push_back(r.u32());
      }
      out.push_back(std::move(p));
      continue;
    }
    if (p.type == packet_type::retry) {
      // Token is everything up to the 16-byte integrity tag.
      const std::size_t rest = r.remaining();
      if (rest < kAeadTagSize) {
        throw codec_error("retry packet truncated");
      }
      const auto token = r.raw(rest - kAeadTagSize);
      p.token.assign(token.begin(), token.end());
      r.skip(kAeadTagSize);
      out.push_back(std::move(p));
      continue;
    }
    if (p.type == packet_type::initial) {
      const std::uint64_t token_len = read_varint(r);
      const auto token = r.raw(token_len);
      p.token.assign(token.begin(), token.end());
    }
    const std::uint64_t protected_size = read_varint(r);
    if (protected_size < kPacketNumberSize + kAeadTagSize) {
      throw codec_error("packet length too small");
    }
    p.packet_number = r.u16();
    const std::size_t frame_bytes =
        static_cast<std::size_t>(protected_size) - kPacketNumberSize -
        kAeadTagSize;
    p.frames = parse_frames(r.raw(frame_bytes));
    r.skip(kAeadTagSize);
    out.push_back(std::move(p));
  }
  return out;
}

packet make_version_negotiation(bytes_view client_scid,
                                bytes_view client_dcid,
                                const std::vector<std::uint32_t>& versions) {
  packet vn;
  vn.version = 0;
  vn.dcid.assign(client_scid.begin(), client_scid.end());
  vn.scid.assign(client_dcid.begin(), client_dcid.end());
  vn.supported_versions = versions;
  return vn;
}

std::size_t pad_datagram_to(std::vector<packet>& packets, std::size_t target) {
  if (packets.empty()) {
    throw config_error("pad_datagram_to on empty datagram");
  }
  std::size_t current = 0;
  for (const auto& p : packets) {
    current += p.wire_size();
  }
  if (current >= target) {
    return 0;
  }
  // PADDING frames are 1 byte each, so packet length grows by exactly
  // the padding count unless the length varint itself widens; iterate
  // until the encoded size lands on target.
  std::size_t added_total = 0;
  while (current < target) {
    const std::size_t missing = target - current;
    packet& last = packets.back();
    if (!last.frames.empty()) {
      if (auto* padding = std::get_if<padding_frame>(&last.frames.back())) {
        padding->count += missing;
        added_total += missing;
        current = 0;
        for (const auto& p : packets) {
          current += p.wire_size();
        }
        continue;
      }
    }
    last.frames.push_back(padding_frame{missing});
    added_total += missing;
    current = 0;
    for (const auto& p : packets) {
      current += p.wire_size();
    }
  }
  // The varint growth can overshoot by at most 7 bytes; shrink back.
  while (current > target && added_total > 0) {
    packet& last = packets.back();
    auto* padding = std::get_if<padding_frame>(&last.frames.back());
    if (padding == nullptr || padding->count == 0) {
      break;
    }
    --padding->count;
    --added_total;
    if (padding->count == 0) {
      last.frames.pop_back();
    }
    current = 0;
    for (const auto& p : packets) {
      current += p.wire_size();
    }
  }
  return added_total;
}

bytes encode_datagram(const std::vector<packet>& packets) {
  std::size_t total = 0;
  for (const auto& p : packets) {
    total += p.wire_size();
  }
  buffer_writer w;
  w.reserve(total);
  for (const auto& p : packets) {
    write_packet(w, p);
  }
  return std::move(w).take();
}

datagram_accounting account_datagram(bytes_view payload) {
  datagram_accounting acc;
  acc.total = payload.size();
  for (const auto& p : parse_datagram(payload)) {
    const frame_accounting fa = account(p.frames);
    acc.crypto_payload += fa.crypto_payload;
    acc.padding += fa.padding;
    acc.stream_payload += fa.stream_payload;
    acc.has_initial |= p.type == packet_type::initial;
    acc.has_handshake |= p.type == packet_type::handshake;
    acc.has_retry |= p.type == packet_type::retry;
  }
  return acc;
}

}  // namespace certquic::quic
