// Unit, integration and property tests for the QUIC transport module.
#include <gtest/gtest.h>

#include "ca/ecosystem.hpp"
#include "mutation.hpp"
#include "net/simulator.hpp"
#include "quic/behavior.hpp"
#include "quic/client.hpp"
#include "quic/frames.hpp"
#include "quic/packet.hpp"
#include "quic/server.hpp"
#include "quic/varint.hpp"
#include "tls/handshake.hpp"
#include "util/errors.hpp"

namespace certquic::quic {
namespace {

const net::endpoint_id kClientEp{net::ipv4::of(10, 1, 0, 1), 40000};
const net::endpoint_id kServerEp{net::ipv4::of(192, 0, 2, 1), 443};

TEST(Varint, KnownEncodings) {
  buffer_writer w;
  write_varint(w, 37);        // 1 byte
  write_varint(w, 15293);     // 2 bytes
  write_varint(w, 494878333); // 4 bytes
  const bytes out = std::move(w).take();
  // RFC 9000 §A.1 sample values.
  const bytes expected = {0x25, 0x7b, 0xbd, 0x9d, 0x7f, 0x3e, 0x7d};
  EXPECT_EQ(out, expected);
}

TEST(Varint, RoundTripAllSizeClasses) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{63}, std::uint64_t{64},
        std::uint64_t{16383}, std::uint64_t{16384}, (std::uint64_t{1} << 30) - 1,
        std::uint64_t{1} << 30, kVarintMax}) {
    buffer_writer w;
    write_varint(w, v);
    EXPECT_EQ(w.size(), varint_size(v));
    const bytes data = std::move(w).take();
    buffer_reader r{data};
    EXPECT_EQ(read_varint(r), v);
  }
}

TEST(Varint, RejectsOverflow) {
  EXPECT_THROW((void)varint_size(kVarintMax + 1), codec_error);
}

TEST(Frames, SizesMatchEncoding) {
  rng r{1};
  bytes crypto_data(321);
  r.fill(crypto_data);
  const std::vector<frame> frames = {
      padding_frame{17},
      ping_frame{},
      ack_frame{7},
      crypto_frame{100, crypto_data},
      stream_frame{0, 64, bytes(48, 0x33)},
      connection_close_frame{0x0a, "bye"},
  };
  for (const auto& f : frames) {
    buffer_writer w;
    write_frame(w, f);
    EXPECT_EQ(w.size(), frame_size(f));
  }
}

TEST(Frames, ParseRoundTrip) {
  bytes crypto_data = {9, 8, 7, 6, 5};
  buffer_writer w;
  write_frame(w, crypto_frame{42, crypto_data});
  write_frame(w, ack_frame{3});
  write_frame(w, padding_frame{25});
  const bytes payload = std::move(w).take();
  const auto parsed = parse_frames(payload);
  ASSERT_EQ(parsed.size(), 3u);
  const auto& cf = std::get<crypto_frame>(parsed[0]);
  EXPECT_EQ(cf.offset, 42u);
  EXPECT_EQ(cf.data, crypto_data);
  EXPECT_EQ(std::get<ack_frame>(parsed[1]).largest, 3u);
  EXPECT_EQ(std::get<padding_frame>(parsed[2]).count, 25u);

  const auto acc = account(parsed);
  EXPECT_EQ(acc.crypto_payload, 5u);
  EXPECT_EQ(acc.padding, 25u);
  EXPECT_TRUE(acc.ack_eliciting);
}

TEST(Frames, AckOnlyIsNotAckEliciting) {
  const auto acc = account({ack_frame{1}, padding_frame{10}});
  EXPECT_FALSE(acc.ack_eliciting);
}

TEST(Packet, WireSizeMatchesEncoding) {
  rng r{2};
  packet p;
  p.type = packet_type::initial;
  p.dcid.resize(8);
  r.fill(p.dcid);
  p.token.resize(24);
  r.fill(p.token);
  bytes crypto_data(800);
  r.fill(crypto_data);
  p.frames.push_back(crypto_frame{0, crypto_data});
  p.frames.push_back(padding_frame{100});
  EXPECT_EQ(encode_datagram({p}).size(), p.wire_size());
}

TEST(Packet, DatagramRoundTripWithCoalescing) {
  rng r{3};
  packet init;
  init.type = packet_type::initial;
  init.dcid.resize(8);
  r.fill(init.dcid);
  init.scid.resize(8);
  r.fill(init.scid);
  init.packet_number = 0;
  init.frames.push_back(ack_frame{0});
  init.frames.push_back(crypto_frame{0, bytes(120, 0x42)});

  packet hs;
  hs.type = packet_type::handshake;
  hs.dcid = init.dcid;
  hs.scid = init.scid;
  hs.packet_number = 0;
  hs.frames.push_back(crypto_frame{0, bytes(900, 0x41)});

  const bytes wire = encode_datagram({init, hs});
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, packet_type::initial);
  EXPECT_EQ(parsed[1].type, packet_type::handshake);
  EXPECT_EQ(parsed[0].dcid, init.dcid);

  const auto acc = account_datagram(wire);
  EXPECT_EQ(acc.total, wire.size());
  EXPECT_EQ(acc.crypto_payload, 1020u);
  EXPECT_TRUE(acc.has_initial);
  EXPECT_TRUE(acc.has_handshake);
}

TEST(Packet, RetryRoundTrip) {
  packet retry;
  retry.type = packet_type::retry;
  retry.dcid = bytes(8, 1);
  retry.scid = bytes(8, 2);
  retry.token = bytes(24, 3);
  const bytes wire = encode_datagram({retry});
  EXPECT_EQ(wire.size(), retry.wire_size());
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].type, packet_type::retry);
  EXPECT_EQ(parsed[0].token, bytes(24, 3));
}

TEST(Packet, PadDatagramHitsExactTarget) {
  for (const std::size_t target : {1200u, 1252u, 1362u, 1472u}) {
    rng r{4};
    packet p;
    p.type = packet_type::initial;
    p.dcid.resize(8);
    r.fill(p.dcid);
    p.frames.push_back(crypto_frame{0, bytes(300, 0x55)});
    std::vector<packet> dgram{p};
    (void)pad_datagram_to(dgram, target);
    EXPECT_EQ(encode_datagram(dgram).size(), target);
  }
}

TEST(Packet, ParseRejectsMissingFixedBit) {
  // A non-zero first byte with neither the long-header nor the fixed
  // bit set is not a QUIC packet (a 0x00 byte would be datagram-level
  // padding instead).
  const bytes data = {0x20, 0x01, 0x02};
  EXPECT_THROW((void)parse_datagram(data), codec_error);
}

TEST(Packet, ParseRejectsTruncatedShortHeader) {
  // A fixed-bit short header that ends before packet number + AEAD tag.
  const bytes data = {0x40, 0x01, 0x02};
  EXPECT_THROW((void)parse_datagram(data), codec_error);
}

TEST(Packet, OneRttRoundTrip) {
  rng r{6};
  packet p;
  p.type = packet_type::one_rtt;
  p.dcid.resize(8);
  r.fill(p.dcid);
  p.packet_number = 3;
  p.frames.push_back(stream_frame{0, 0, bytes(200, 0x5a)});
  const bytes wire = encode_datagram({p});
  EXPECT_EQ(wire.size(), p.wire_size());
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].type, packet_type::one_rtt);
  EXPECT_EQ(parsed[0].dcid, p.dcid);
  EXPECT_EQ(parsed[0].packet_number, 3u);
  ASSERT_EQ(parsed[0].frames.size(), 1u);
  const auto* sf = std::get_if<stream_frame>(&parsed[0].frames[0]);
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(sf->data, bytes(200, 0x5a));

  const auto acc = account_datagram(wire);
  EXPECT_EQ(acc.stream_payload, 200u);
}

TEST(Packet, OneRttCoalescesLastAfterLongHeaders) {
  // A short-header packet has no length field, so it must close the
  // datagram; the parser consumes the rest of the buffer for it.
  rng r{7};
  packet hs;
  hs.type = packet_type::handshake;
  hs.dcid.resize(8);
  r.fill(hs.dcid);
  hs.frames.push_back(crypto_frame{0, bytes(40, 0x21)});

  packet app;
  app.type = packet_type::one_rtt;
  app.dcid = hs.dcid;
  app.frames.push_back(stream_frame{0, 0, bytes(15, 0x47)});

  const auto parsed = parse_datagram(encode_datagram({hs, app}));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, packet_type::handshake);
  EXPECT_EQ(parsed[1].type, packet_type::one_rtt);
  const auto* sf = std::get_if<stream_frame>(&parsed[1].frames[0]);
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(sf->data.size(), 15u);
}

TEST(Packet, TrailingZerosAreDatagramPadding) {
  rng r{5};
  packet p;
  p.type = packet_type::initial;
  p.dcid.resize(8);
  r.fill(p.dcid);
  p.frames.push_back(crypto_frame{0, bytes(10, 0x11)});
  bytes wire = encode_datagram({p});
  wire.resize(wire.size() + 64, 0);  // UDP-layer padding
  const auto parsed = parse_datagram(wire);
  EXPECT_EQ(parsed.size(), 1u);
}

// ---- End-to-end handshakes over the simulator ---------------------------

struct handshake_fixture {
  net::simulator sim;
  ca::ecosystem eco = ca::ecosystem::make();
  bytes dictionary = eco.compression_dictionary();

  observation run(const char* profile, server_behavior behavior,
                  client_config config, const std::string& domain = "x.org") {
    rng issue_rng{99};
    auto chain = eco.issue(eco.profile(profile), domain, issue_rng);
    server srv{sim, kServerEp, std::move(chain), behavior, dictionary, 1};
    client cli{sim, kClientEp, kServerEp, std::move(config), 2};
    cli.start();
    sim.run();
    return cli.result();
  }
};

TEST(Handshake, CompliantSmallChainCompletesIn1Rtt) {
  handshake_fixture fx;
  const auto obs = fx.run("cloudflare", server_behavior::compliant(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_FALSE(obs.retry_seen);
  EXPECT_EQ(obs.acks_before_complete, 0u);
  // Compliant server: never exceed 3x before validation.
  EXPECT_LE(obs.bytes_received_first_burst, 3 * obs.bytes_sent_first_flight);
}

TEST(Handshake, LargeChainForcesMultiRtt) {
  handshake_fixture fx;
  const auto obs = fx.run("le-r3-x1cross",
                          server_behavior::standard_no_coalesce(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_GE(obs.acks_before_complete, 1u);
  EXPECT_LE(obs.bytes_received_first_burst, 3 * obs.bytes_sent_first_flight);
}

TEST(Handshake, CloudflareProfileAmplifiesButCompletes1Rtt) {
  handshake_fixture fx;
  const auto obs = fx.run("cloudflare", server_behavior::cloudflare(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_EQ(obs.acks_before_complete, 0u);  // completed within 1 RTT
  // ... yet the first burst exceeds the anti-amplification limit (§4.1).
  EXPECT_GT(obs.bytes_received_first_burst, 3 * obs.bytes_sent_first_flight);
  // The overshoot stays small (Fig. 4: factors below ~6x).
  EXPECT_LT(obs.first_burst_amplification(), 6.0);
  // Superfluous padding is substantial (§4.1: ~2.4 kB constant).
  EXPECT_GT(obs.padding_bytes_first_burst, 1800u);
}

TEST(Handshake, CloudflarePaddingIsConstantAcrossDomains) {
  // §4.1: "exactly 2462 superfluous QUIC padding bytes" regardless of
  // the (varying) TLS payload size.
  std::vector<std::size_t> paddings;
  for (int i = 0; i < 5; ++i) {
    handshake_fixture fx;
    const auto obs = fx.run("cloudflare", server_behavior::cloudflare(),
                            client_config{.initial_size = 1362},
                            "domain" + std::to_string(i) + ".example");
    paddings.push_back(obs.padding_bytes_first_burst);
  }
  for (const auto p : paddings) {
    EXPECT_EQ(p, 2462u);  // the constant the paper reports
  }
}

TEST(Handshake, RetryServerTriggersRetryAndCompletes) {
  handshake_fixture fx;
  const auto obs = fx.run("cloudflare", server_behavior::retry_always(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.retry_seen);
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_GE(obs.client_datagrams, 2u);
}

TEST(Handshake, CompressionNegotiatedWhenOffered) {
  handshake_fixture fx;
  client_config config;
  config.initial_size = 1250;  // Chromium default
  config.offer_compression = {compress::algorithm::brotli};
  const auto obs = fx.run("le-r3-x1cross", server_behavior::cloudflare(),
                          std::move(config));
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_TRUE(obs.compression_used);
  EXPECT_LT(obs.certificate_msg_size, obs.certificate_uncompressed_size / 2);
}

TEST(Handshake, CompressionAbsentWithoutOffer) {
  handshake_fixture fx;
  const auto obs = fx.run("le-r3-x1cross", server_behavior::cloudflare(),
                          client_config{.initial_size = 1362});
  EXPECT_FALSE(obs.compression_used);
}

TEST(Handshake, SilentClientElicitsRetransmissions) {
  handshake_fixture fx;
  client_config config;
  config.initial_size = 1252;
  config.send_acks = false;
  config.timeout = net::seconds(300);
  const auto obs = fx.run("le-r3-x1cross",
                          server_behavior::meta_pre_disclosure(7),
                          std::move(config));
  // mvfst behaviour: resends ignore the limit; amplification blows up.
  EXPECT_GT(obs.total_amplification(), 10.0);
  EXPECT_GE(obs.server_datagrams, 8u);  // initial flight + 7 resends
}

TEST(Handshake, CompliantServerNeverExceeds3xEvenWhenSilent) {
  handshake_fixture fx;
  client_config config;
  config.initial_size = 1252;
  config.send_acks = false;
  config.timeout = net::seconds(300);
  const auto obs = fx.run("le-r3-x1cross", server_behavior::compliant(),
                          std::move(config));
  EXPECT_LE(obs.bytes_received_total, 3 * obs.bytes_sent_first_flight);
}

TEST(Handshake, UndersizedInitialIsDropped) {
  handshake_fixture fx;
  const auto obs = fx.run("cloudflare", server_behavior::compliant(),
                          client_config{.initial_size = 900,
                                        .timeout = net::seconds(1)});
  EXPECT_FALSE(obs.response_received);
  EXPECT_TRUE(obs.timed_out);
}

TEST(Handshake, AppDataExchangeMeasuresTtfb) {
  handshake_fixture fx;
  client_config config;
  config.initial_size = 1362;
  config.fetch_app_data = true;
  const auto obs = fx.run("cloudflare", server_behavior::compliant(),
                          std::move(config));
  ASSERT_TRUE(obs.handshake_complete);
  EXPECT_EQ(obs.app_bytes_received, 256u);
  // 1-RTT timeline: the request coalesces with the Finished flight,
  // which leaves ack_delay (1 ms) after the server burst arrives; the
  // response lands one RTT (20 ms) later.
  EXPECT_EQ(obs.first_app_byte_time,
            obs.complete_time + net::milliseconds(1) + net::milliseconds(20));
}

TEST(Handshake, NoAppDataWithoutFetchFlag) {
  handshake_fixture fx;
  const auto obs = fx.run("cloudflare", server_behavior::compliant(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_EQ(obs.app_bytes_received, 0u);
  EXPECT_EQ(obs.first_app_byte_time, 0u);
}

TEST(Handshake, PtoRetransmissionTimingUnderLoss) {
  // The server's first flight is lost; the PTO retransmission restores
  // the handshake on an exact deterministic timeline: client Initial
  // arrives at 10 ms, the first flight (sent at 10 ms) is dropped, the
  // 400 ms PTO fires at 410 ms and the retransmitted flight lands at
  // 420 ms. The google profile retransmits outside the amplification
  // limit — a compliant server has no budget left for the resend and
  // must wait for the client to retry instead.
  handshake_fixture fx;
  net::path_config to_client;
  to_client.loss_rate = 1.0;
  fx.sim.set_path_to(kClientEp, to_client);
  fx.sim.schedule(net::milliseconds(100), [&fx]() {
    fx.sim.set_path_to(kClientEp, net::path_config{});  // loss ends
  });
  const auto obs = fx.run("cloudflare", server_behavior::google(),
                          client_config{.initial_size = 1362});
  ASSERT_TRUE(obs.handshake_complete);
  EXPECT_EQ(obs.first_receive_time, net::milliseconds(420));
}

TEST(Handshake, ServerPacingSpreadsBurstWithoutChangingBytes) {
  handshake_fixture fx_burst;
  const auto burst = fx_burst.run("le-r3-x1cross",
                                  server_behavior::standard_no_coalesce(),
                                  client_config{.initial_size = 1362});

  handshake_fixture fx_paced;
  server_behavior paced = server_behavior::standard_no_coalesce();
  paced.pacing_bps = 2'000'000;  // ~5 ms per full datagram
  const auto spread = fx_paced.run("le-r3-x1cross", paced,
                                   client_config{.initial_size = 1362});

  ASSERT_TRUE(burst.handshake_complete);
  ASSERT_TRUE(spread.handshake_complete);
  // Pacing only re-times the same bytes.
  EXPECT_EQ(spread.bytes_received_total, burst.bytes_received_total);
  EXPECT_EQ(spread.tls_bytes_received, burst.tls_bytes_received);
  // The multi-datagram burst arrives spread out, delaying completion.
  EXPECT_GT(spread.complete_time, burst.complete_time);
  EXPECT_GT(spread.last_receive_time - spread.first_receive_time,
            burst.last_receive_time - burst.first_receive_time);
}

TEST(Handshake, BudgetBlockedFlightsAreTimed) {
  // A chain larger than 3x the client Initial forces the compliant
  // server to park its flight on the amplification budget until the
  // client's ACK validates the path; the stats record both the event
  // and the blocked duration (at least the client-side ack_delay, at
  // most the round trip that releases it).
  net::simulator sim;
  ca::ecosystem eco = ca::ecosystem::make();
  const bytes dictionary = eco.compression_dictionary();
  rng issue_rng{99};
  auto chain = eco.issue(eco.profile("le-r3-x1cross"), "x.org", issue_rng);
  server srv{sim,   kServerEp, std::move(chain),
             server_behavior::compliant(), dictionary, 1};
  client cli{sim, kClientEp, kServerEp,
             client_config{.initial_size = 1362}, 2};
  cli.start();
  sim.run();
  ASSERT_TRUE(cli.result().handshake_complete);
  EXPECT_GE(srv.stats().budget_blocked_flights, 1u);
  EXPECT_GE(srv.stats().budget_blocked_us,
            static_cast<std::uint64_t>(net::milliseconds(1)));
  EXPECT_LE(srv.stats().budget_blocked_us,
            static_cast<std::uint64_t>(net::milliseconds(21)));
}

// Property: an RFC-9000-compliant server never exceeds the 3x limit
// before validation, across Initial sizes, chains and coalescing modes.
struct ComplianceCase {
  const char* profile;
  std::size_t initial_size;
  bool coalesce;
  bool acks;
};

class AmplificationInvariant
    : public ::testing::TestWithParam<ComplianceCase> {};

TEST_P(AmplificationInvariant, Holds) {
  const auto& param = GetParam();
  handshake_fixture fx;
  server_behavior behavior = param.coalesce
                                 ? server_behavior::compliant()
                                 : server_behavior::standard_no_coalesce();
  client_config config;
  config.initial_size = param.initial_size;
  config.send_acks = param.acks;
  config.timeout = net::seconds(120);
  const auto obs = fx.run(param.profile, behavior, std::move(config));
  ASSERT_TRUE(obs.response_received);
  EXPECT_LE(obs.bytes_received_first_burst, 3 * obs.bytes_sent_first_flight);
  if (!param.acks) {
    EXPECT_LE(obs.bytes_received_total, 3 * obs.bytes_sent_first_flight);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AmplificationInvariant,
    ::testing::Values(
        ComplianceCase{"cloudflare", 1200, true, true},
        ComplianceCase{"cloudflare", 1472, false, true},
        ComplianceCase{"le-r3-x1cross", 1200, true, true},
        ComplianceCase{"le-r3-x1cross", 1200, false, false},
        ComplianceCase{"le-r3-x1cross", 1362, true, false},
        ComplianceCase{"le-r3-x1cross", 1472, false, true},
        ComplianceCase{"sectigo", 1250, true, true},
        ComplianceCase{"sectigo", 1362, false, false},
        ComplianceCase{"cpanel", 1302, true, true},
        ComplianceCase{"gts-1c3", 1362, false, true}));

TEST(Packet, VersionNegotiationRoundTrip) {
  const packet vn = make_version_negotiation(
      bytes{1, 2}, bytes{3, 4, 5}, {kVersion1, 0x6b3343cfu});
  EXPECT_TRUE(vn.is_version_negotiation());
  const bytes wire = encode_datagram({vn});
  EXPECT_EQ(wire.size(), vn.wire_size());
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].is_version_negotiation());
  ASSERT_EQ(parsed[0].supported_versions.size(), 2u);
  EXPECT_EQ(parsed[0].supported_versions[0], kVersion1);
  EXPECT_EQ(parsed[0].dcid, (bytes{1, 2}));
}

TEST(Handshake, VersionMismatchNegotiatesAndCompletes) {
  handshake_fixture fx;
  server_behavior behavior = server_behavior::compliant();
  behavior.supported_version = 0x6b3343cfu;  // QUIC v2 code point
  client_config config;
  config.initial_size = 1362;  // client offers v1
  const auto obs = fx.run("cloudflare", behavior, std::move(config));
  EXPECT_TRUE(obs.version_negotiation_seen);
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_GE(obs.client_datagrams, 2u);  // original + renegotiated Initial
}

TEST(Handshake, MatchingVersionSkipsNegotiation) {
  handshake_fixture fx;
  const auto obs = fx.run("cloudflare", server_behavior::compliant(),
                          client_config{.initial_size = 1362});
  EXPECT_FALSE(obs.version_negotiation_seen);
}

TEST(Handshake, SilentClientIgnoresVersionNegotiation) {
  handshake_fixture fx;
  server_behavior behavior = server_behavior::compliant();
  behavior.supported_version = 0x6b3343cfu;
  client_config config;
  config.initial_size = 1362;
  config.send_acks = false;
  config.timeout = net::seconds(2);
  const auto obs = fx.run("cloudflare", behavior, std::move(config));
  EXPECT_FALSE(obs.version_negotiation_seen);
  EXPECT_FALSE(obs.handshake_complete);
  // A VN reply is tiny: no amplification value for attackers.
  EXPECT_LT(obs.bytes_received_total, 100u);
}

// Fuzz property: arbitrary bytes never crash the datagram parser —
// they either parse or raise codec_error.
class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomBytesAreSafe) {
  rng r{GetParam()};
  for (int round = 0; round < 400; ++round) {
    bytes noise(static_cast<std::size_t>(r.uniform(0, 1600)));
    r.fill(noise);
    try {
      const auto packets = parse_datagram(noise);
      for (const auto& p : packets) {
        (void)p.wire_size();
      }
    } catch (const codec_error&) {
      // expected for malformed input
    }
  }
}

TEST_P(ParserFuzz, TruncatedValidDatagramsAreSafe) {
  rng r{GetParam() ^ 0xfeed};
  packet init;
  init.type = packet_type::initial;
  init.dcid.resize(8);
  r.fill(init.dcid);
  bytes crypto(600);
  r.fill(crypto);
  init.frames.push_back(crypto_frame{0, crypto});
  std::vector<packet> dgram{init};
  (void)pad_datagram_to(dgram, 1200);
  const bytes wire = encode_datagram(dgram);
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    const bytes_view truncated{wire.data(), cut};
    try {
      (void)parse_datagram(truncated);
    } catch (const codec_error&) {
    }
  }
}

TEST_P(ParserFuzz, BitFlippedDatagramsAreSafe) {
  rng r{GetParam() ^ 0xf11b};
  packet init;
  init.type = packet_type::initial;
  init.dcid.resize(8);
  r.fill(init.dcid);
  bytes crypto(300);
  r.fill(crypto);
  init.frames.push_back(crypto_frame{0, crypto});
  bytes wire = encode_datagram({init});
  for (int round = 0; round < 300; ++round) {
    bytes mutated = wire;
    const auto pos = r.uniform(0, mutated.size() - 1);
    mutated[pos] ^= static_cast<std::uint8_t>(1u << r.uniform(0, 7));
    try {
      (void)parse_datagram(mutated);
    } catch (const codec_error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// The census probe's client Initial (a ClientHello padded to 1362 B)
// followed by every datagram a server sends back to it, retransmissions
// included, while the client stays silent.
std::vector<bytes> probe_datagrams(const ca::ecosystem& eco,
                                   server_behavior behavior) {
  net::simulator sim;
  rng r{31};
  const bytes dictionary = eco.compression_dictionary();
  server srv{sim,
             kServerEp,
             eco.issue(eco.profile("le-r3-x1cross"), "mut.example", r),
             std::move(behavior),
             dictionary,
             3};
  std::vector<bytes> out;
  sim.attach(kClientEp,
             [&out](const net::datagram& d) { out.push_back(d.payload); });
  tls::client_hello_config ch;
  ch.server_name = "mut.example";
  packet init;
  init.type = packet_type::initial;
  init.dcid.resize(8);
  r.fill(init.dcid);
  init.frames.push_back(crypto_frame{0, tls::encode_client_hello(ch, r)});
  std::vector<packet> dgram{std::move(init)};
  (void)pad_datagram_to(dgram, 1362);
  out.push_back(encode_datagram(dgram));
  sim.send({kClientEp, kServerEp, out.front()});
  (void)sim.run_until(net::seconds(2));
  return out;
}

// True when `wire` parses or is rejected with codec_error; any other
// exception is a decoder bug.
bool parses_or_rejects(bytes_view wire) {
  return test::decodes_or_rejects([wire] {
    for (const auto& p : parse_datagram(wire)) {
      (void)p.wire_size();
      (void)account(p.frames);
    }
  });
}

// Mutation property over real probe traffic: every truncation, every
// single-byte corruption and appended garbage either parses or throws
// codec_error. tools/verify.sh --sanitize runs it under ASan+UBSan, so
// an out-of-bounds read fails it too.
TEST(ParserMutation, ProbeDatagramsParseOrThrowCodecError) {
  const ca::ecosystem eco = ca::ecosystem::make();
  std::vector<bytes> corpus;
  for (server_behavior behavior :
       {server_behavior::compliant(), server_behavior::cloudflare(),
        server_behavior::retry_always()}) {
    for (bytes& d : probe_datagrams(eco, std::move(behavior))) {
      corpus.push_back(std::move(d));
    }
  }
  ASSERT_GE(corpus.size(), 6u);
  rng r{0x6d75'7461'7465ULL};
  for (std::size_t n = 0; n < corpus.size(); ++n) {
    ASSERT_FALSE(parse_datagram(corpus[n]).empty()) << "datagram " << n;
    SCOPED_TRACE("datagram " + std::to_string(n));
    test::check_mutants(corpus[n], r, parses_or_rejects);
  }
}

// Property: the historical draft policies order total attacker-visible
// bytes as expected (Table 3 ablation).
TEST(Handshake, DraftPolicyOrdering) {
  auto run_policy = [](amplification_policy policy) {
    handshake_fixture fx;
    server_behavior behavior = server_behavior::compliant();
    behavior.policy = policy;
    behavior.max_retransmissions = 0;
    client_config config;
    config.initial_size = 1200;
    config.send_acks = false;
    config.timeout = net::seconds(30);
    const auto obs = fx.run("le-r3-x1cross", behavior, std::move(config));
    return obs.bytes_received_total;
  };
  const auto unlimited = run_policy(amplification_policy::unlimited);
  const auto three_datagrams =
      run_policy(amplification_policy::max_three_datagrams);
  const auto three_x = run_policy(amplification_policy::three_x_bytes);
  EXPECT_GE(unlimited, three_datagrams);
  EXPECT_GE(unlimited, three_x);
  EXPECT_GT(unlimited, 4000u);  // full flight flows pre-Draft-09
  EXPECT_LE(three_x, 3 * 1200u);
}

}  // namespace
}  // namespace certquic::quic
