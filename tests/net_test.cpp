// Unit tests for the network simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/simulator.hpp"
#include "util/buffer.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace certquic::net {
namespace {

const endpoint_id kA{ipv4::of(10, 0, 0, 1), 1000};
const endpoint_id kB{ipv4::of(10, 0, 0, 2), 443};
const endpoint_id kSpoofed{ipv4::of(203, 0, 113, 7), 9999};

bytes payload_of(std::size_t n) { return bytes(n, 0xab); }

TEST(Address, ParseAndFormat) {
  const ipv4 a = ipv4::parse("157.240.229.35");
  EXPECT_EQ(a.to_string(), "157.240.229.35");
  EXPECT_EQ(a.host_octet(), 35);
  EXPECT_EQ(a.slash24().to_string(), "157.240.229.0");
  EXPECT_EQ(a, ipv4::of(157, 240, 229, 35));
}

TEST(Address, ParseRejectsMalformed) {
  EXPECT_THROW((void)ipv4::parse("1.2.3"), codec_error);
  EXPECT_THROW((void)ipv4::parse("1.2.3.999"), codec_error);
  EXPECT_THROW((void)ipv4::parse("1.2.3.4.5"), codec_error);
  EXPECT_THROW((void)ipv4::parse("a.b.c.d"), codec_error);
}

TEST(Address, EndpointFormatting) {
  EXPECT_EQ(kB.to_string(), "10.0.0.2:443");
}

TEST(Simulator, DeliversWithPathDelay) {
  simulator sim;
  time_point delivered_at = 0;
  sim.attach(kB, [&](const datagram& d) {
    delivered_at = sim.now();
    EXPECT_EQ(d.src, kA);
    EXPECT_EQ(d.payload.size(), 100u);
  });
  path_config path;
  path.one_way_delay = milliseconds(25);
  sim.set_path_to(kB, path);
  sim.send({kA, kB, payload_of(100)});
  sim.run();
  EXPECT_EQ(delivered_at, milliseconds(25));
  EXPECT_EQ(sim.stats().delivered, 1u);
}

TEST(Simulator, DropsOversizeDatagrams) {
  simulator sim;
  int received = 0;
  sim.attach(kB, [&](const datagram&) { ++received; });
  path_config path;
  path.mtu = 1500;  // capacity 1472
  sim.set_path_to(kB, path);
  sim.send({kA, kB, payload_of(1472)});
  sim.send({kA, kB, payload_of(1473)});
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(sim.stats().dropped_oversize, 1u);
}

TEST(Simulator, EncapsulationShrinksCapacity) {
  // §4.1: load-balancer tunneling adds headers, so large client
  // Initials exceed the path MTU and vanish.
  simulator sim;
  int received = 0;
  sim.attach(kB, [&](const datagram&) { ++received; });
  path_config path;
  path.mtu = 1500;
  path.encapsulation_overhead = 20;
  sim.set_path_to(kB, path);
  EXPECT_EQ(path.udp_capacity(), 1452u);
  sim.send({kA, kB, payload_of(1452)});
  sim.send({kA, kB, payload_of(1462)});
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(sim.stats().dropped_oversize, 1u);
}

TEST(Simulator, UnroutableCounted) {
  simulator sim;
  sim.send({kA, kB, payload_of(10)});
  sim.run();
  EXPECT_EQ(sim.stats().dropped_unroutable, 1u);
}

TEST(Simulator, SpoofedSourceRoutesReplyToVictim) {
  simulator sim;
  int server_got = 0;
  int victim_got = 0;
  sim.attach(kB, [&](const datagram& d) {
    ++server_got;
    // Reply to the (spoofed) source — the amplification reflection.
    sim.send({kB, d.src, payload_of(300)});
  });
  sim.attach(kSpoofed, [&](const datagram& d) {
    ++victim_got;
    EXPECT_EQ(d.payload.size(), 300u);
  });
  sim.send({kSpoofed, kB, payload_of(100)});  // attacker spoofs
  sim.run();
  EXPECT_EQ(server_got, 1);
  EXPECT_EQ(victim_got, 1);
}

TEST(Simulator, LossRateDropsRoughlyProportionally) {
  simulator sim{1234};
  int received = 0;
  sim.attach(kB, [&](const datagram&) { ++received; });
  path_config path;
  path.loss_rate = 0.25;
  sim.set_path_to(kB, path);
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    sim.send({kA, kB, payload_of(10)});
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(received) / kN, 0.75, 0.03);
  EXPECT_EQ(sim.stats().dropped_loss + static_cast<std::uint64_t>(received),
            static_cast<std::uint64_t>(kN));
}

TEST(Simulator, TimersFireInOrder) {
  simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(30), [&]() { order.push_back(3); });
  sim.schedule(milliseconds(10), [&]() { order.push_back(1); });
  sim.schedule(milliseconds(20), [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(Simulator, EqualTimestampsFifo) {
  simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(5), [&]() { order.push_back(1); });
  sim.schedule(milliseconds(5), [&]() { order.push_back(2); });
  sim.schedule(milliseconds(5), [&]() { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, HandlersMayScheduleMoreWork) {
  simulator sim;
  int fired = 0;
  std::function<void()> chain = [&]() {
    if (++fired < 5) {
      sim.schedule(milliseconds(1), chain);
    }
  };
  sim.schedule(milliseconds(1), chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  simulator sim;
  int fired = 0;
  sim.schedule(milliseconds(10), [&]() { ++fired; });
  sim.schedule(milliseconds(50), [&]() { ++fired; });
  sim.run_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(20));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilMaxEventsExitKeepsTimeMonotonic) {
  // Regression: exiting on max_events with events still queued before
  // the deadline used to force now() to the deadline anyway, so the
  // next run() fired those events *in the past* — handlers observed
  // sim.now() jump backwards. now() must stay at the last processed
  // event when the queue is not drained.
  simulator sim;
  std::vector<time_point> fired_at;
  sim.schedule(milliseconds(10), [&]() { fired_at.push_back(sim.now()); });
  sim.schedule(milliseconds(20), [&]() { fired_at.push_back(sim.now()); });

  const std::size_t processed = sim.run_until(milliseconds(50), 1);
  EXPECT_EQ(processed, 1u);
  EXPECT_EQ(sim.now(), milliseconds(10));  // not 50: queue not drained

  sim.run();
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_EQ(fired_at[0], milliseconds(10));
  EXPECT_EQ(fired_at[1], milliseconds(20));  // fires at 20, not "at" 50
  EXPECT_EQ(sim.now(), milliseconds(20));
}

TEST(Simulator, RunUntilDrainedQueueStillAdvancesToDeadline) {
  // The companion invariant: when everything up to the deadline has
  // fired, now() does advance to the deadline (callers rely on it as
  // the observation cut-off).
  simulator sim;
  int fired = 0;
  sim.schedule(milliseconds(10), [&]() { ++fired; });
  sim.schedule(milliseconds(60), [&]() { ++fired; });
  sim.run_until(milliseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(50));
}

TEST(Simulator, LossPatternStableAcrossConfigChanges) {
  // Loss is a pure function of (seed, send sequence): reconfiguring an
  // unrelated path — here shrinking B's MTU so some of its datagrams
  // are dropped oversize instead of sent — must not shift which of A's
  // datagrams are lost. Under a shared RNG stream it would.
  const endpoint_id kVictim{ipv4::of(10, 0, 0, 3), 443};
  auto run_pattern = [&](std::size_t b_mtu) {
    simulator sim{777};
    std::vector<int> arrived;
    sim.attach(kVictim, [&](const datagram& d) {
      arrived.push_back(static_cast<int>(d.payload[0]));
    });
    sim.attach(kB, [](const datagram&) {});
    path_config lossy;
    lossy.loss_rate = 0.5;
    sim.set_path_to(kVictim, lossy);
    // The other path is lossy too: under a shared RNG stream, dropping
    // its datagrams oversize (small MTU) skips their loss draws and
    // shifts every later draw — which is exactly the cascade the
    // per-sequence hash eliminates.
    path_config b_path;
    b_path.mtu = b_mtu;
    b_path.loss_rate = 0.5;
    sim.set_path_to(kB, b_path);
    for (int i = 0; i < 50; ++i) {
      sim.send({kA, kVictim, bytes(1, static_cast<std::uint8_t>(i))});
      sim.send({kA, kB, payload_of(1400)});  // interleaved other traffic
    }
    sim.run();
    return arrived;
  };
  // 1500 carries the 1400-byte datagrams; 1000 drops them oversize.
  EXPECT_EQ(run_pattern(1500), run_pattern(1000));
}

TEST(Simulator, BandwidthSerializesBursts) {
  // 1 Mbit/s: a 1250-byte datagram occupies the link for 10 ms. Three
  // sent back-to-back at t=0 arrive one serialization apart, each after
  // the 10 ms propagation delay.
  simulator sim;
  std::vector<time_point> arrivals;
  sim.attach(kB, [&](const datagram&) { arrivals.push_back(sim.now()); });
  path_config path;
  path.bandwidth_bps = 1'000'000;
  sim.set_path_to(kB, path);
  for (int i = 0; i < 3; ++i) {
    sim.send({kA, kB, payload_of(1250)});
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], milliseconds(20));  // 10 serialize + 10 delay
  EXPECT_EQ(arrivals[1], milliseconds(30));
  EXPECT_EQ(arrivals[2], milliseconds(40));
}

TEST(Simulator, EqualTimestampDatagramsDeliverFifo) {
  // Deliveries with identical timestamps keep send order — the same
  // FIFO tie-break the timer test pins, but through the datagram path.
  simulator sim;
  std::vector<int> order;
  sim.attach(kB, [&](const datagram& d) {
    order.push_back(static_cast<int>(d.payload[0]));
  });
  for (int i = 0; i < 4; ++i) {
    sim.send({kA, kB, bytes(1, static_cast<std::uint8_t>(i))});
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, CollidingTimestampsPopInAtSeqOrder) {
  // 10 000 seeded pushes with whole-millisecond delays of 0-3 ms, so
  // thousands share a timestamp; 70% are made from inside handlers, and
  // a quarter are datagram deliveries rather than timers. (at, seq) is
  // a strict total order, so the events must fire sorted by (at, push
  // order) whatever the queue's internal layout.
  constexpr std::size_t kPushes = 10'000;
  simulator sim;
  rng r{0x0a75'e9ULL};
  path_config path;
  path.one_way_delay = milliseconds(2);
  sim.set_path_to(kB, path);

  std::vector<std::pair<time_point, std::size_t>> pushed;
  std::vector<std::pair<time_point, std::size_t>> fired;
  std::function<void()> push_one;
  auto on_fire = [&](std::size_t id) {
    fired.emplace_back(sim.now(), id);
    if (pushed.size() < kPushes) {
      push_one();
    }
  };
  push_one = [&]() {
    const std::size_t id = pushed.size();
    if (r.chance(0.25)) {
      pushed.emplace_back(sim.now() + path.one_way_delay, id);
      buffer_writer w;
      w.u64(id);
      sim.send({kA, kB, std::move(w).take()});
    } else {
      const duration delay = milliseconds(r.uniform(0, 3));
      pushed.emplace_back(sim.now() + delay, id);
      sim.schedule(delay, [&on_fire, id]() { on_fire(id); });
    }
  };
  sim.attach(kB, [&](const datagram& d) {
    buffer_reader rd{d.payload};
    on_fire(static_cast<std::size_t>(rd.u64()));
  });
  while (pushed.size() < 3 * kPushes / 10) {
    push_one();
  }
  sim.run();

  ASSERT_EQ(pushed.size(), kPushes);
  ASSERT_EQ(fired.size(), kPushes);
  std::sort(pushed.begin(), pushed.end());
  EXPECT_EQ(fired, pushed);
}

TEST(NetworkCondition, DefaultMatchesHistoricalPath) {
  network_condition cond;
  path_config path;
  path.encapsulation_overhead = 13;
  cond.apply_to(path);
  EXPECT_EQ(path.one_way_delay, milliseconds(10));
  EXPECT_EQ(path.loss_rate, 0.0);
  EXPECT_EQ(path.bandwidth_bps, 0u);
  EXPECT_EQ(path.encapsulation_overhead, 13u);  // left to the caller
}

TEST(Simulator, DetachMakesEndpointUnroutable) {
  simulator sim;
  int received = 0;
  sim.attach(kB, [&](const datagram&) { ++received; });
  sim.send({kA, kB, payload_of(10)});
  sim.run();
  sim.detach(kB);
  sim.send({kA, kB, payload_of(10)});
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(sim.stats().dropped_unroutable, 1u);
}

TEST(Time, Conversions) {
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(51)), 51.0);
}

}  // namespace
}  // namespace certquic::net
