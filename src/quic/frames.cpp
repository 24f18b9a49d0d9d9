#include "quic/frames.hpp"

#include "quic/varint.hpp"
#include "util/errors.hpp"

namespace certquic::quic {
namespace {

constexpr std::uint8_t kPadding = 0x00;
constexpr std::uint8_t kPing = 0x01;
constexpr std::uint8_t kAck = 0x02;
constexpr std::uint8_t kCrypto = 0x06;
// STREAM with OFF, LEN and FIN bits (RFC 9000 §19.8).
constexpr std::uint8_t kStreamOffLenFin = 0x0f;
constexpr std::uint8_t kConnectionClose = 0x1c;

struct size_visitor {
  std::size_t operator()(const padding_frame& f) const { return f.count; }
  std::size_t operator()(const ping_frame&) const { return 1; }
  std::size_t operator()(const ack_frame& f) const {
    // type + largest + delay(0) + range_count(0) + first_range(largest).
    return 1 + varint_size(f.largest) + 1 + 1 + varint_size(f.largest);
  }
  std::size_t operator()(const crypto_frame& f) const {
    return 1 + varint_size(f.offset) + varint_size(f.data.size()) +
           f.data.size();
  }
  std::size_t operator()(const connection_close_frame& f) const {
    return 1 + varint_size(f.error_code) + 1 +
           varint_size(f.reason.size()) + f.reason.size();
  }
  std::size_t operator()(const stream_frame& f) const {
    return 1 + varint_size(f.id) + varint_size(f.offset) +
           varint_size(f.data.size()) + f.data.size();
  }
};

struct write_visitor {
  buffer_writer& w;

  void operator()(const padding_frame& f) const { w.zeros(f.count); }
  void operator()(const ping_frame&) const { w.u8(kPing); }
  void operator()(const ack_frame& f) const {
    w.u8(kAck);
    write_varint(w, f.largest);
    write_varint(w, 0);  // ack delay
    write_varint(w, 0);  // additional ranges
    write_varint(w, f.largest);  // first range covers everything
  }
  void operator()(const crypto_frame& f) const {
    w.u8(kCrypto);
    write_varint(w, f.offset);
    write_varint(w, f.data.size());
    w.raw(f.data);
  }
  void operator()(const connection_close_frame& f) const {
    w.u8(kConnectionClose);
    write_varint(w, f.error_code);
    write_varint(w, 0);  // offending frame type
    write_varint(w, f.reason.size());
    w.raw(f.reason);
  }
  void operator()(const stream_frame& f) const {
    w.u8(kStreamOffLenFin);
    write_varint(w, f.id);
    write_varint(w, f.offset);
    write_varint(w, f.data.size());
    w.raw(f.data);
  }
};

}  // namespace

std::size_t frame_size(const frame& f) { return std::visit(size_visitor{}, f); }

void write_frame(buffer_writer& w, const frame& f) {
  std::visit(write_visitor{w}, f);
}

std::vector<frame> parse_frames(bytes_view payload) {
  std::vector<frame> out;
  buffer_reader r{payload};
  while (!r.empty()) {
    const std::uint8_t type = r.peek_u8();
    switch (type) {
      case kPadding:
        out.push_back(padding_frame{r.skip_zeros()});
        break;
      case kPing:
        (void)r.u8();
        out.push_back(ping_frame{});
        break;
      case kAck: {
        (void)r.u8();
        ack_frame f;
        f.largest = read_varint(r);
        (void)read_varint(r);  // delay
        const std::uint64_t ranges = read_varint(r);
        (void)read_varint(r);  // first range
        for (std::uint64_t i = 0; i < ranges; ++i) {
          (void)read_varint(r);  // gap
          (void)read_varint(r);  // range length
        }
        out.push_back(f);
        break;
      }
      case kCrypto: {
        (void)r.u8();
        crypto_frame f;
        f.offset = read_varint(r);
        const std::uint64_t len = read_varint(r);
        const bytes_view data = r.raw(len);
        f.data.assign(data.begin(), data.end());
        out.push_back(std::move(f));
        break;
      }
      case kStreamOffLenFin: {
        (void)r.u8();
        stream_frame f;
        f.id = read_varint(r);
        f.offset = read_varint(r);
        const std::uint64_t len = read_varint(r);
        const bytes_view data = r.raw(len);
        f.data.assign(data.begin(), data.end());
        out.push_back(std::move(f));
        break;
      }
      case kConnectionClose: {
        (void)r.u8();
        connection_close_frame f;
        f.error_code = read_varint(r);
        (void)read_varint(r);  // frame type
        const std::uint64_t len = read_varint(r);
        const bytes_view reason = r.raw(len);
        f.reason.assign(reason.begin(), reason.end());
        out.push_back(std::move(f));
        break;
      }
      default:
        throw codec_error("unsupported frame type " + std::to_string(type));
    }
  }
  return out;
}

bool is_ack_eliciting(const frame& f) {
  return std::holds_alternative<ping_frame>(f) ||
         std::holds_alternative<crypto_frame>(f) ||
         std::holds_alternative<stream_frame>(f);
}

frame_accounting account(const std::vector<frame>& frames) {
  frame_accounting acc;
  for (const auto& f : frames) {
    if (const auto* crypto = std::get_if<crypto_frame>(&f)) {
      acc.crypto_payload += crypto->data.size();
    } else if (const auto* padding = std::get_if<padding_frame>(&f)) {
      acc.padding += padding->count;
    } else if (const auto* stream = std::get_if<stream_frame>(&f)) {
      acc.stream_payload += stream->data.size();
    }
    acc.ack_eliciting = acc.ack_eliciting || is_ack_eliciting(f);
  }
  return acc;
}

}  // namespace certquic::quic
