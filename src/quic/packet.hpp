// QUIC v1 long-header packets, short-header 1-RTT packets and datagram
// (de)coalescing (RFC 9000 §17.2/§17.3). AEAD is modelled by a 16-byte
// tag; header protection is not applied (the simulation parses its own
// packets). All sizes on the wire are exact.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "quic/frames.hpp"
#include "util/bytes.hpp"

namespace certquic::quic {

inline constexpr std::uint32_t kVersion1 = 0x00000001;
/// Minimum UDP payload for datagrams carrying ack-eliciting Initials.
inline constexpr std::size_t kMinInitialSize = 1200;
/// AEAD tag appended to every protected packet.
inline constexpr std::size_t kAeadTagSize = 16;
/// Packet-number length used throughout the simulation.
inline constexpr std::size_t kPacketNumberSize = 2;

/// Packet types: the four long-header values (which are also their
/// wire type bits) plus the short-header 1-RTT form. 1-RTT packets
/// carry the post-handshake application data (STREAM frames) of the
/// TTFB timeline; having no length field, they extend to the end of
/// the datagram and must therefore be coalesced last (RFC 9000 §12.2).
enum class packet_type : std::uint8_t {
  initial = 0,
  zero_rtt = 1,
  handshake = 2,
  retry = 3,
  one_rtt = 4,  // short header; not a long-header type-bits value
};

/// A QUIC long-header packet before encryption.
///
/// Version Negotiation packets are represented as `version == 0` with
/// the offered versions in `supported_versions` (RFC 9000 §17.2.1).
struct packet {
  packet_type type = packet_type::initial;
  std::uint32_t version = kVersion1;
  bytes dcid;
  bytes scid;
  bytes token;  // Initial: client token; Retry: the issued retry token
  std::uint64_t packet_number = 0;
  std::vector<frame> frames;
  std::vector<std::uint32_t> supported_versions;  // VN packets only

  [[nodiscard]] bool is_version_negotiation() const noexcept {
    return version == 0;
  }

  /// Size of the encoded packet on the wire.
  [[nodiscard]] std::size_t wire_size() const;
  /// Sum of frame payload sizes.
  [[nodiscard]] std::size_t payload_size() const;
  /// True when any frame is ack-eliciting.
  [[nodiscard]] bool ack_eliciting() const;
};

/// Builds a Version Negotiation packet echoing the client's connection
/// ids and listing the server's supported versions.
[[nodiscard]] packet make_version_negotiation(
    bytes_view client_scid, bytes_view client_dcid,
    const std::vector<std::uint32_t>& versions);

/// Parses every packet coalesced into one UDP datagram; stops at
/// trailing datagram padding (a zero first byte). Throws codec_error on
/// malformed packets.
[[nodiscard]] std::vector<packet> parse_datagram(bytes_view payload);

/// Appends enough PADDING to the last packet's frames so the encoded
/// datagram reaches exactly `target` bytes. No-op when already >=
/// target. Returns the number of padding bytes added.
std::size_t pad_datagram_to(std::vector<packet>& packets, std::size_t target);

/// Encodes a coalesced datagram (packets concatenated) into one buffer
/// reserved to the summed `wire_size()`.
[[nodiscard]] bytes encode_datagram(const std::vector<packet>& packets);

/// Byte-accounting across a parsed datagram.
struct datagram_accounting {
  std::size_t total = 0;           // UDP payload bytes
  std::size_t crypto_payload = 0;  // TLS bytes
  std::size_t padding = 0;         // PADDING bytes
  std::size_t stream_payload = 0;  // application STREAM bytes
  bool has_initial = false;
  bool has_handshake = false;
  bool has_retry = false;

  /// Everything that is not TLS payload: headers, ACKs, padding, tags.
  [[nodiscard]] std::size_t quic_overhead() const noexcept {
    return total - crypto_payload;
  }
};
[[nodiscard]] datagram_accounting account_datagram(bytes_view payload);

}  // namespace certquic::quic
