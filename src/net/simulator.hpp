// Deterministic discrete-event network simulator.
//
// A single event queue drives datagram deliveries and endpoint timers.
// Paths model one-way delay, random loss, an IP MTU (QUIC forbids
// fragmentation, so oversize datagrams are silently dropped — this is
// what breaks reachability behind encapsulating load balancers, §4.1),
// optional per-destination encapsulation overhead, and an optional
// bottleneck bandwidth: datagrams serialize onto the path one after
// another, so a burst spreads out in time instead of arriving as one
// instant (the time-domain model behind the TTFB studies).
//
// Spoofing falls out of the design: a sender may stamp any source
// address; replies are routed to whoever owns that address (a telescope,
// §4.3) or to nobody.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "net/time.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace certquic::net {

/// One UDP datagram in flight.
struct datagram {
  endpoint_id src;
  endpoint_id dst;
  bytes payload;
};

/// Per-destination path properties.
struct path_config {
  /// IP MTU; the usable UDP payload is mtu - 28 (IPv4 + UDP headers).
  std::size_t mtu = 1500;
  duration one_way_delay = milliseconds(10);
  /// Independent per-datagram loss probability.
  double loss_rate = 0.0;
  /// Extra bytes added by tunnel encapsulation in front of the load
  /// balancer; they count against the MTU but are stripped before
  /// delivery (the receiver never sees them).
  std::size_t encapsulation_overhead = 0;
  /// Bottleneck bandwidth in bits per second; 0 = unconstrained (every
  /// datagram departs instantly, the historical behaviour all goldens
  /// are captured under). When set, each datagram occupies the link for
  /// its serialization time and later datagrams queue behind it.
  std::uint64_t bandwidth_bps = 0;

  /// Largest UDP payload this path can carry without fragmentation.
  [[nodiscard]] std::size_t udp_capacity() const noexcept {
    const std::size_t headers = 28 + encapsulation_overhead;
    return mtu > headers ? mtu - headers : 0;
  }
};

/// A named symmetric network regime for time-domain studies: both
/// directions of a probe share the same loss rate and bottleneck
/// bandwidth, and the RTT splits evenly into two one-way delays. The
/// default reproduces the historical simulator setup (10 ms each way,
/// no loss, no bandwidth cap), so plans that never set a condition stay
/// bit-identical.
struct network_condition {
  std::string name = "ideal";
  duration rtt = milliseconds(20);
  double loss_rate = 0.0;
  std::uint64_t bandwidth_bps = 0;  // 0 = unconstrained

  /// Applies this condition to a path_config (delay is one direction's
  /// share of the RTT; MTU/encapsulation are left to the caller).
  void apply_to(path_config& path) const {
    path.one_way_delay = rtt / 2;
    path.loss_rate = loss_rate;
    path.bandwidth_bps = bandwidth_bps;
  }
};

/// Delivery/drop counters, per simulator.
struct traffic_stats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped_oversize = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_unroutable = 0;
  std::uint64_t bytes_delivered = 0;
};

/// The event-driven fabric. Endpoints attach handlers keyed by their
/// address; `send` schedules delivery after the path delay; `schedule`
/// arms arbitrary timers (QUIC PTO). `run` drains events in time order.
class simulator {
 public:
  explicit simulator(std::uint64_t loss_seed = 0x105e'5eedULL)
      : loss_seed_(loss_seed) {}

  using handler = std::function<void(const datagram&)>;
  using timer_fn = std::function<void()>;

  /// Registers (or replaces) the receive handler for an endpoint.
  void attach(const endpoint_id& ep, handler h);
  /// Removes an endpoint; datagrams to it become unroutable.
  void detach(const endpoint_id& ep);

  /// Sets the path used for datagrams addressed *to* `dst`.
  void set_path_to(const endpoint_id& dst, const path_config& path);
  /// Path lookup (default path when unset).
  [[nodiscard]] const path_config& path_to(const endpoint_id& dst) const;

  /// Sends a datagram; applies MTU check, loss and delay. The source
  /// address is taken from the datagram and is NOT validated — spoofing
  /// is allowed by design.
  void send(datagram d);

  /// Arms a timer.
  void schedule(duration delay, timer_fn fn);

  /// Current virtual time.
  [[nodiscard]] time_point now() const noexcept { return now_; }

  /// Runs until the queue is empty or `max_events` fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = 10'000'000);

  /// Runs until the queue is empty or virtual time would pass
  /// `deadline`. `now()` advances to `deadline` only when every event
  /// up to it has fired; an exit on `max_events` leaves `now()` at the
  /// last processed event so a later run never fires events in the
  /// past (virtual time is monotonic).
  std::size_t run_until(time_point deadline,
                        std::size_t max_events = 10'000'000);

  [[nodiscard]] const traffic_stats& stats() const noexcept { return stats_; }

 private:
  struct event {
    time_point at;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::function<void()> fn;
  };
  struct event_later {
    bool operator()(const event& a, const event& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void push(time_point at, std::function<void()> fn);
  /// Moves the earliest event out of the queue, advances `now_` to it
  /// and returns its callback (popped before it runs: it may push).
  std::function<void()> pop_next();

  time_point now_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Binary heap under event_later: front() is the earliest (at, seq).
  /// A plain vector rather than std::priority_queue so pop_next can
  /// move the callback (and the datagram it owns) out instead of
  /// copying it from a const top().
  std::vector<event> queue_;
  std::unordered_map<endpoint_id, handler> endpoints_;
  std::unordered_map<endpoint_id, path_config> paths_;
  path_config default_path_{};
  traffic_stats stats_{};
  /// Loss is drawn as a pure hash of (loss_seed_, send sequence
  /// number), not from a shared RNG stream: whether datagram N is lost
  /// depends only on N, so path-config changes (MTU, encapsulation)
  /// that alter *other* datagrams' fates cannot cascade into the loss
  /// pattern of the rest of the run.
  std::uint64_t loss_seed_;
  std::uint64_t send_seq_ = 0;
  /// Per-destination link-busy horizon for bandwidth serialization.
  std::unordered_map<endpoint_id, time_point> link_busy_;
};

}  // namespace certquic::net
