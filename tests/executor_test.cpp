// Executor tests: parallel_ordered must be bit-identical to the serial
// loop at 2/8/16 threads across both the reach (census) and backscatter
// backends, must deliver in plan order even with one-item chunks, must
// propagate worker and sink exceptions, must hold buffered results to
// its documented window while the sink stalls, and must die on a
// sequencer-ticket monotonicity violation in assert-enabled builds.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/amplification_study.hpp"
#include "core/census.hpp"
#include "engine/backend.hpp"
#include "engine/engine.hpp"

namespace certquic {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  return m;
}

std::string full(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string digest(const stats::sample_set& s) {
  std::ostringstream out;
  out << s.size();
  if (!s.empty()) {
    out << ' ' << full(s.mean()) << ' ' << full(s.min()) << ' '
        << full(s.median()) << ' ' << full(s.max());
  }
  return out.str();
}

std::string digest(const core::census_result& census) {
  std::ostringstream out;
  out << census.initial_size << '|' << census.probed << '|';
  for (const auto count : census.counts) {
    out << count << ',';
  }
  out << '|';
  for (const auto& group : census.group_counts) {
    for (const auto count : group) {
      out << count << ',';
    }
  }
  out << '|' << digest(census.first_burst_amplification);
  out << '|' << census.multi_tls_exceeding_limit << '|'
      << census.max_non_tls_bytes << '|' << census.amplifying << '|'
      << census.amplifying_cloudflare << '|'
      << digest(census.cloudflare_padding) << '|';
  for (const auto& [total, tls] : census.multi_rtt_payload) {
    out << total << ':' << tls << ',';
  }
  return out.str();
}

std::string digest(const engine::unit_outcome& o) {
  std::ostringstream out;
  out << o.backscatter.provider << ':' << o.backscatter.bytes << ':'
      << o.backscatter.datagrams << ':' << o.backscatter.first_seen << ':'
      << o.backscatter.last_seen << ':' << o.probe.obs.bytes_sent_total;
  return out.str();
}

std::string census_digest(engine::options opt) {
  core::census_options census_opt;
  census_opt.initial_size = 1362;
  census_opt.max_services = 300;
  return digest(core::run_census(shared_model(), census_opt, opt));
}

TEST(Executor, CensusMatchesSerialAtEveryThreadCount) {
  // The reach backend: byte-identical aggregates at 2/8/16 threads.
  const std::string serial = census_digest(engine::options::serial());
  for (const std::size_t threads : {2UL, 8UL, 16UL}) {
    EXPECT_EQ(serial, census_digest({.threads = threads}))
        << "census diverged from serial at " << threads << " threads";
  }
}

TEST(Executor, BackscatterBackendMatchesSerial) {
  // The shared-world backend through run_backend: per-unit outcomes in
  // plan order must be identical at every thread count.
  const auto plan = core::build_telescope_plan(
      shared_model(), {.sessions_per_provider = 20});
  const engine::backscatter_backend backend{plan};

  const auto collect = [&](engine::options opt) {
    std::vector<std::string> digests;
    engine::run_backend(backend, opt,
                        [&](std::size_t, engine::unit_outcome&& o) {
                          digests.push_back(digest(o));
                        });
    return digests;
  };
  const auto serial = collect(engine::options::serial());
  ASSERT_EQ(serial.size(), plan.sessions.size());
  for (const std::size_t threads : {2UL, 8UL, 16UL}) {
    EXPECT_EQ(serial, collect({.threads = threads}))
        << "backscatter diverged at " << threads << " threads";
  }
}

TEST(Executor, OneItemChunksStillDeliverInPlanOrder) {
  // One item per chunk maximizes claim/consume interleaving. Order and
  // values must still hold.
  constexpr std::size_t kN = 257;
  std::size_t expected = 0;
  engine::parallel_ordered(
      kN, {.threads = 8, .chunk = 1}, [](std::size_t i) { return i + 1; },
      [&](std::size_t i, std::size_t result) {
        EXPECT_EQ(i, expected);
        EXPECT_EQ(result, i + 1);
        ++expected;
      });
  EXPECT_EQ(expected, kN);
}

TEST(Executor, PropagatesWorkerExceptions) {
  std::atomic<std::size_t> consumed{0};
  EXPECT_THROW(engine::parallel_ordered(
                   1000, {.threads = 4, .chunk = 8},
                   [](std::size_t i) {
                     if (i == 57) {
                       throw std::runtime_error("probe failed");
                     }
                     return i;
                   },
                   [&](std::size_t, std::size_t) { consumed.fetch_add(1); }),
               std::runtime_error);
  EXPECT_LE(consumed.load(), 57u) << "consume must stop at the failure";
}

TEST(Executor, PropagatesConsumeExceptions) {
  std::atomic<std::size_t> worked{0};
  EXPECT_THROW(engine::parallel_ordered(
                   1000, {.threads = 4, .chunk = 8},
                   [&](std::size_t i) {
                     worked.fetch_add(1);
                     return i;
                   },
                   [](std::size_t i, std::size_t) {
                     if (i == 10) {
                       throw std::runtime_error("sink failed");
                     }
                   }),
               std::runtime_error);
  // Cancellation is prompt: the window stops workers well before the
  // full index space.
  EXPECT_LT(worked.load(), 1000u);
}

/// A result that counts its live instances (moved-from ones included,
/// since they still occupy a slot until destroyed) and the peak.
class counted {
 public:
  static std::atomic<long> live;
  static std::atomic<long> peak;

  explicit counted(std::size_t value) : value_(value) { enter(); }
  counted(const counted& other) : value_(other.value_) { enter(); }
  counted(counted&& other) noexcept : value_(other.value_) { enter(); }
  counted& operator=(const counted&) = default;
  counted& operator=(counted&&) noexcept = default;
  ~counted() { live.fetch_sub(1); }

  [[nodiscard]] std::size_t value() const noexcept { return value_; }

 private:
  static void enter() {
    const long now = live.fetch_add(1) + 1;
    long seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  }

  std::size_t value_;
};

std::atomic<long> counted::live{0};
std::atomic<long> counted::peak{0};

TEST(Executor, StalledSinkHoldsBufferedResultsToTheWindow) {
  // Park the ordered consumer inside consume(0). Workers fill the
  // window (chunks 0 .. window-1) and then wait; no worker may compute
  // past it, and the live results never exceed window * chunk plus one
  // under construction per worker.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kChunk = 4;
  const std::size_t window = engine::window_chunks(kThreads);
  const std::size_t kN = 4 * window * kChunk;
  counted::live = 0;
  counted::peak = 0;
  std::atomic<std::size_t> produced{0};
  std::size_t produced_while_stalled = 0;
  std::size_t delivered = 0;
  engine::parallel_ordered(
      kN, {.threads = kThreads, .chunk = kChunk},
      [&](std::size_t i) {
        produced.fetch_add(1);
        return counted{i};
      },
      [&](std::size_t i, counted&& result) {
        if (i == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (produced.load() < window * kChunk &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          // Give a worker that ignored the window time to show it.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          produced_while_stalled = produced.load();
        }
        EXPECT_EQ(result.value(), i);
        EXPECT_EQ(i, delivered) << "delivery left plan order";
        ++delivered;
      });
  EXPECT_EQ(delivered, kN);
  EXPECT_EQ(produced_while_stalled, window * kChunk)
      << "workers must fill the window and stop at its edge";
  EXPECT_LE(counted::peak.load(),
            static_cast<long>(window * kChunk + kThreads))
      << "buffered results exceeded the documented window bound";
  EXPECT_EQ(counted::live.load(), 0);
}

#if defined(CERTQUIC_ENABLE_ASSERTS)
TEST(SequencerTicketDeath, DetectsGapSkipAndReplay) {
  {
    engine::sequencer_ticket ticket;
    ticket.advance(0);
    ticket.advance(1);
    EXPECT_DEATH_IF_SUPPORTED(ticket.advance(3), "left plan order");
  }
  {
    engine::sequencer_ticket ticket;
    ticket.advance(0);
    EXPECT_DEATH_IF_SUPPORTED(ticket.advance(0), "left plan order");
  }
  {
    engine::sequencer_ticket ticket;
    EXPECT_DEATH_IF_SUPPORTED(ticket.advance(5), "left plan order");
  }
}
#endif  // CERTQUIC_ENABLE_ASSERTS

}  // namespace
}  // namespace certquic
