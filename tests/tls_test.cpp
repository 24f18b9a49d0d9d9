// Unit tests for the TLS 1.3 handshake message layer.
#include <gtest/gtest.h>

#include "ca/ecosystem.hpp"
#include "tls/handshake.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace certquic::tls {
namespace {

class TlsTest : public ::testing::Test {
 protected:
  ca::ecosystem eco_ = ca::ecosystem::make();
  bytes dictionary_ = eco_.compression_dictionary();
  rng rng_{77};

  x509::chain make_chain(const char* profile = "cloudflare") {
    return eco_.issue(eco_.profile(profile), "example.org", rng_);
  }
};

TEST_F(TlsTest, FrameRoundTrip) {
  const bytes body = {1, 2, 3, 4, 5};
  const bytes framed = frame(handshake_type::finished, body);
  EXPECT_EQ(framed.size(), body.size() + 4);
  const auto info = peek_frame(framed);
  EXPECT_EQ(info.type, handshake_type::finished);
  EXPECT_EQ(info.total_size, framed.size());
}

TEST_F(TlsTest, PeekFrameRejectsTruncation) {
  bytes framed = frame(handshake_type::finished, bytes(32, 0));
  framed.resize(framed.size() - 1);
  EXPECT_THROW((void)peek_frame(framed), codec_error);
}

TEST_F(TlsTest, ClientHelloRealisticSize) {
  client_hello_config config;
  config.server_name = "www.example.org";
  const bytes ch = encode_client_hello(config, rng_);
  // Realistic browser ClientHellos (sans padding) run ~250-400 bytes.
  EXPECT_GT(ch.size(), 250u);
  EXPECT_LT(ch.size(), 420u);
  EXPECT_EQ(peek_frame(ch).type, handshake_type::client_hello);
}

TEST_F(TlsTest, ClientHelloCompressionOfferRoundTrip) {
  client_hello_config config;
  config.server_name = "example.org";
  config.compression_algorithms = {compress::algorithm::brotli,
                                   compress::algorithm::zstd};
  const bytes ch = encode_client_hello(config, rng_);
  const auto offered = parse_offered_compression(ch);
  ASSERT_EQ(offered.size(), 2u);
  EXPECT_EQ(offered[0], compress::algorithm::brotli);
  EXPECT_EQ(offered[1], compress::algorithm::zstd);

  client_hello_config none;
  none.server_name = "example.org";
  EXPECT_TRUE(parse_offered_compression(encode_client_hello(none, rng_))
                  .empty());
}

TEST_F(TlsTest, ServerHelloSizeStable) {
  const bytes sh = encode_server_hello(rng_);
  EXPECT_EQ(peek_frame(sh).type, handshake_type::server_hello);
  // SH with key_share + supported_versions: ~120-135 bytes framed.
  EXPECT_GT(sh.size(), 110u);
  EXPECT_LT(sh.size(), 140u);
}

TEST_F(TlsTest, CertificateMessageMatchesChainSize) {
  const auto chain = make_chain();
  const bytes cert_msg = encode_certificate(chain);
  // Framing: 4 (frame) + 1 (context) + 3 (list len) + per-cert 3+2.
  const std::size_t expected =
      4 + 1 + 3 + chain.wire_size() + chain.depth() * 5;
  EXPECT_EQ(cert_msg.size(), expected);
  EXPECT_EQ(peek_frame(cert_msg).type, handshake_type::certificate);
}

TEST_F(TlsTest, CompressedCertificateShrinksChain) {
  const auto chain = make_chain("le-r3-x1cross");
  const compress::codec codec{compress::algorithm::brotli, dictionary_};
  const bytes plain = encode_certificate(chain);
  const bytes compressed = encode_compressed_certificate(chain, codec);
  EXPECT_EQ(peek_frame(compressed).type,
            handshake_type::compressed_certificate);
  EXPECT_LT(compressed.size(), plain.size() / 2);
}

TEST_F(TlsTest, CertificateVerifySizeTracksKey) {
  const auto rsa =
      encode_certificate_verify(x509::key_algorithm::rsa_2048, rng_).size();
  const auto ec =
      encode_certificate_verify(x509::key_algorithm::ecdsa_p256, rng_).size();
  EXPECT_EQ(rsa, 4u + 4u + 256u);
  EXPECT_EQ(ec, 4u + 4u + 71u);
}

TEST_F(TlsTest, FinishedIs36Bytes) {
  EXPECT_EQ(encode_finished(rng_).size(), 36u);
}

TEST_F(TlsTest, ServerFlightLevelsSplitCorrectly) {
  const auto chain = make_chain();
  const auto flight = build_server_flight(chain, nullptr, rng_);
  EXPECT_EQ(peek_frame(flight.server_hello).type,
            handshake_type::server_hello);
  ASSERT_EQ(flight.handshake_msgs.size(), 4u);
  EXPECT_EQ(peek_frame(flight.handshake_msgs[0]).type,
            handshake_type::encrypted_extensions);
  EXPECT_EQ(peek_frame(flight.handshake_msgs[1]).type,
            handshake_type::certificate);
  EXPECT_EQ(peek_frame(flight.handshake_msgs[2]).type,
            handshake_type::certificate_verify);
  EXPECT_EQ(peek_frame(flight.handshake_msgs[3]).type,
            handshake_type::finished);
  EXPECT_EQ(flight.total_size(),
            flight.server_hello.size() + flight.handshake_crypto_size());
}

TEST_F(TlsTest, FlightSizeDominatedByCertificate) {
  const auto small = build_server_flight(make_chain("cloudflare"), nullptr,
                                         rng_);
  const auto big = build_server_flight(make_chain("le-r3-x1cross"), nullptr,
                                       rng_);
  // §2: "the size of a server reply is mainly determined by its
  // certificate [chain]".
  EXPECT_GT(big.total_size(), small.total_size() + 1500);
}

TEST_F(TlsTest, CompressedFlightFitsAmplificationBudget) {
  const auto chain = make_chain("le-r3-x1cross");
  const compress::codec codec{compress::algorithm::brotli, dictionary_};
  const auto plain = build_server_flight(chain, nullptr, rng_);
  const auto packed = build_server_flight(chain, &codec, rng_);
  // §4.2: compression keeps 99% of chains under 3x1357 = 4071 bytes.
  EXPECT_GT(plain.total_size(), 4071u);
  EXPECT_LT(packed.total_size(), 4071u);
}

}  // namespace
}  // namespace certquic::tls
