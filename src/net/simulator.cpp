#include "net/simulator.hpp"

#include <algorithm>

namespace certquic::net {
namespace {

/// Uniform [0, 1) draw that is a pure function of (seed, seq): two
/// splitmix64 rounds over the sequence number. Quality is plenty for
/// loss decisions, and — unlike a shared RNG stream — the draw for one
/// datagram can never be perturbed by what happened to another.
double loss_draw(std::uint64_t seed, std::uint64_t seq) {
  std::uint64_t state = seed ^ (seq + 0x9e37'79b9'7f4a'7c15ULL);
  (void)splitmix64(state);
  const std::uint64_t word = splitmix64(state);
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

}  // namespace

void simulator::attach(const endpoint_id& ep, handler h) {
  endpoints_[ep] = std::move(h);
}

void simulator::detach(const endpoint_id& ep) { endpoints_.erase(ep); }

void simulator::set_path_to(const endpoint_id& dst, const path_config& path) {
  paths_[dst] = path;
}

const path_config& simulator::path_to(const endpoint_id& dst) const {
  const auto it = paths_.find(dst);
  return it != paths_.end() ? it->second : default_path_;
}

void simulator::push(time_point at, std::function<void()> fn) {
  queue_.push_back(event{at, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), event_later{});
}

std::function<void()> simulator::pop_next() {
  std::pop_heap(queue_.begin(), queue_.end(), event_later{});
  event next = std::move(queue_.back());
  queue_.pop_back();
  now_ = next.at;
  return std::move(next.fn);
}

void simulator::send(datagram d) {
  const path_config& path = path_to(d.dst);
  // Every send consumes one sequence number, whatever its fate, so the
  // per-seq loss draws below stay aligned across config changes.
  const std::uint64_t seq = send_seq_++;
  if (d.payload.size() > path.udp_capacity()) {
    // QUIC sets DF; an oversize datagram is dropped, not fragmented.
    ++stats_.dropped_oversize;
    return;
  }
  // Bandwidth serialization: the datagram departs once the link frees
  // up and occupies it for its transmit time; an uncapped path departs
  // instantly (the historical behaviour).
  time_point depart = now_;
  if (path.bandwidth_bps > 0) {
    const std::uint64_t bits =
        static_cast<std::uint64_t>(d.payload.size()) * 8;
    const duration serialize =
        (bits * 1'000'000 + path.bandwidth_bps - 1) / path.bandwidth_bps;
    time_point& busy = link_busy_[d.dst];
    depart = std::max(now_, busy) + serialize;
    busy = depart;
  }
  if (path.loss_rate > 0.0 &&
      loss_draw(loss_seed_, seq) < path.loss_rate) {
    ++stats_.dropped_loss;
    return;
  }
  push(depart + path.one_way_delay, [this, d = std::move(d)]() {
    const auto it = endpoints_.find(d.dst);
    if (it == endpoints_.end()) {
      ++stats_.dropped_unroutable;
      return;
    }
    ++stats_.delivered;
    stats_.bytes_delivered += d.payload.size();
    it->second(d);
  });
}

void simulator::schedule(duration delay, timer_fn fn) {
  push(now_ + delay, std::move(fn));
}

std::size_t simulator::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (!queue_.empty() && processed < max_events) {
    pop_next()();
    ++processed;
  }
  return processed;
}

std::size_t simulator::run_until(time_point deadline, std::size_t max_events) {
  std::size_t processed = 0;
  while (!queue_.empty() && processed < max_events &&
         queue_.front().at <= deadline) {
    pop_next()();
    ++processed;
  }
  // Clamp forward only when everything up to the deadline has fired.
  // An exit on max_events leaves events at <= deadline queued; jumping
  // now_ past them would make a later run fire them with at < now_ —
  // virtual time running backwards.
  if (now_ < deadline && (queue_.empty() || queue_.front().at > deadline)) {
    now_ = deadline;
  }
  return processed;
}

}  // namespace certquic::net
