#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/census.hpp"
#include "core/certificates.hpp"
#include "core/stream_digest.hpp"
#include "core/ttfb_study.hpp"
#include "engine/backend.hpp"
#include "engine/engine.hpp"
#include "engine/probe_plan.hpp"
#include "engine/spill.hpp"
#include "internet/chain_cache.hpp"
#include "internet/model.hpp"
#include "quic/packet.hpp"
#include "scan/reach.hpp"
#include "service/census_service.hpp"
#include "service/epoch_store.hpp"
#include "stats.hpp"
#include "tls/handshake.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/rss_meter.hpp"

namespace perfbench {
namespace {

using namespace certquic;
using clock_type = std::chrono::steady_clock;

// Population sizes: each untraced call of a study at nproc threads
// takes a few tenths of a second on a 4-core host, long enough to time
// and short enough that a run repeats it many times.
constexpr std::size_t kCensusDomains = 30'000;
constexpr std::size_t kCorpusDomains = 10'000;
constexpr std::size_t kTtfbDomains = 4'000;
constexpr std::size_t kEpochDomains = 10'000;
constexpr std::size_t kEpochs = 3;
constexpr std::size_t kEpochShards = 4;
constexpr std::size_t kInitialSize = 1362;

// Untraced runs: after every (1-thread, nproc-thread) round of the
// timed phase the workload is set up once for each of kSetupGroups
// groups; a group's figure is its mean set-up time over the run, and
// setup_s is the median of the groups.
constexpr std::size_t kSetupGroups = 5;
// Traced runs: internet.generate_s is the median of this many calls.
constexpr std::size_t kGenerateReps = 21;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// Timed phases and repeated traced passes run at least this many
// repetitions, and more while their time budget lasts.
constexpr std::size_t kMinReps = 3;

/// Repeats `rep(r)` at least kMinReps times, and again while the next
/// repetition should still end within `budget_s` of the start.
void repeat_within(double budget_s,
                   const std::function<void(std::size_t)>& rep) {
  const auto start = clock_type::now();
  double last_s = 0.0;
  for (std::size_t r = 0;
       r < kMinReps || seconds_since(start) + last_s <= budget_s; ++r) {
    const auto t0 = clock_type::now();
    rep(r);
    last_s = seconds_since(t0);
  }
}

void mix(std::uint64_t& h, std::uint64_t v) { core::digest_mix(h, v); }
void mix(std::uint64_t& h, double v) {
  core::digest_mix(h, std::bit_cast<std::uint64_t>(v));
}
void mix(std::uint64_t& h, const stats::sample_set& s) {
  mix(h, static_cast<std::uint64_t>(s.size()));
  if (!s.empty()) {
    mix(h, s.mean());
    mix(h, s.median());
  }
}

// ---------------------------------------------------------------------------
// Per-layer metric table: every name of BENCHMARK.json's per_layer list,
// in that order, 0 until a traced pass measures it.

struct metric_def {
  const char* name;
  const char* unit;
};

constexpr std::array kLayerMetrics = {
    metric_def{"internet.generate_s", "s"},
    metric_def{"internet.chain_of.calls", "count"},
    metric_def{"internet.chain_of.busy_s", "s"},
    metric_def{"internet.chain_of.us_p50", "us"},
    metric_def{"internet.chain_of.us_p99", "us"},
    metric_def{"internet.chain_bytes", "bytes"},
    metric_def{"internet.chain_cache.hits", "count"},
    metric_def{"internet.chain_cache.misses", "count"},
    metric_def{"internet.chain_cache.hit_ratio", "ratio"},
    metric_def{"internet.at_epoch_s", "s"},
    metric_def{"tls.server_flight.busy_s", "s"},
    metric_def{"tls.server_flight.us_p50", "us"},
    metric_def{"quic.parse_datagram.busy_s", "s"},
    metric_def{"quic.parse_datagram.ns_per_byte", "ns/B"},
    metric_def{"scan.probe.calls", "count"},
    metric_def{"scan.probe.busy_s", "s"},
    metric_def{"scan.probe.us_p50", "us"},
    metric_def{"scan.probe.us_p99", "us"},
    metric_def{"scan.handshake_self_s", "s"},
    metric_def{"quic.server_datagrams_per_probe", "count"},
    metric_def{"quic.client_datagrams_per_probe", "count"},
    metric_def{"quic.bytes_received_per_probe", "bytes"},
    metric_def{"quic.timed_out_share", "ratio"},
    metric_def{"engine.items", "count"},
    metric_def{"engine.wall_s", "s"},
    metric_def{"engine.work_busy_s", "s"},
    metric_def{"engine.consume_busy_s", "s"},
    metric_def{"engine.wait_s", "s"},
    metric_def{"engine.scaling_eff", "ratio"},
    metric_def{"engine.spill.records", "count"},
    metric_def{"engine.spill.bytes", "bytes"},
    metric_def{"engine.spill.write_s", "s"},
    metric_def{"engine.spill.replay_s", "s"},
    metric_def{"engine.spill.probe_s", "s"},
    metric_def{"service.epoch_s_p50", "s"},
    metric_def{"trace.overhead_share", "ratio"},
};

class layer_table {
 public:
  layer_table() {
    for (const metric_def& d : kLayerMetrics) {
      values_.emplace(d.name, 0.0);
    }
  }
  void set(const std::string& name, double value) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::logic_error("unknown per-layer metric " + name);
    }
    it->second = value;
  }
  [[nodiscard]] std::vector<metric> ordered() const {
    std::vector<metric> out;
    for (const metric_def& d : kLayerMetrics) {
      out.push_back({d.name, values_.at(d.name), d.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

using span_summary = std::map<std::string, span_stats>;

const span_stats& stat(const span_summary& s, const std::string& name) {
  static const span_stats none;
  const auto it = s.find(name);
  return it == s.end() ? none : it->second;
}

/// `<name>.busy_s` and `.us_p50` of the spans called `name`, plus
/// `.calls` and `.us_p99` when `calls_and_p99`. A p99 with fewer than
/// ten samples beyond it reads 0 and gets a note.
void put_calls(layer_table& t, run_report& rep, const span_summary& s,
               const std::string& name, bool calls_and_p99) {
  const span_stats& st = stat(s, name);
  t.set(name + ".busy_s", st.busy_s);
  if (!st.durations_us.empty()) {
    t.set(name + ".us_p50", median(st.durations_us));
  }
  if (!calls_and_p99) {
    return;
  }
  t.set(name + ".calls", static_cast<double>(st.calls));
  if (const auto p99 = supported_quantile(st.durations_us, 0.99)) {
    t.set(name + ".us_p99", *p99);
  } else if (st.calls > 0) {
    char highest[32] = "none";
    if (const auto p = highest_supported_percentile(st.calls)) {
      std::snprintf(highest, sizeof highest, "p%g", *p * 100.0);
    }
    rep.notes.push_back(name + ".us_p99: " + std::to_string(st.calls) +
                        " samples leave fewer than 10 beyond p99; left 0 " +
                        "(highest supported: " + highest + ")");
  }
}

// ---------------------------------------------------------------------------
// Shared pieces of the traced passes

/// The recorder's spans of every traced pass, written out at the end.
struct span_log {
  std::vector<std::pair<std::string, std::vector<span>>> passes;

  /// Moves the recorder's spans into the log under `pass` and
  /// summarizes them. A pass repeated back to back keeps only its
  /// latest spans.
  span_summary take(const std::string& pass) {
    recorder& rec = recorder::global();
    std::vector<span> spans = rec.collect();
    rec.clear();
    span_summary out = summarize(spans);
    if (!passes.empty() && passes.back().first == pass) {
      passes.back().second = std::move(spans);
    } else {
      passes.emplace_back(pass, std::move(spans));
    }
    return out;
  }
};

/// Records a result in plan order: digest over the same fields the
/// library's stream digest folds, plus class counts and the per-probe
/// QUIC observation sums.
struct probe_tally {
  std::size_t units = 0;
  std::uint64_t digest = core::kStreamDigestSeed;
  std::array<std::size_t, core::kClassCount> counts{};
  double server_datagrams = 0.0;
  double client_datagrams = 0.0;
  double bytes_received = 0.0;
  double timed_out = 0.0;

  void add(std::uint32_t record, std::uint32_t variant,
           const scan::probe_result& r) {
    ++units;
    core::digest_record(digest, record, variant, r);
    ++counts[static_cast<std::size_t>(r.cls)];
    server_datagrams += static_cast<double>(r.obs.server_datagrams);
    client_datagrams += static_cast<double>(r.obs.client_datagrams);
    bytes_received += static_cast<double>(r.obs.bytes_received_total);
    timed_out += r.obs.timed_out ? 1.0 : 0.0;
  }
};

/// The unit-k → (record, variant) mapping of engine::reach_backend:
/// variant-major over the sample.
struct unit_ref {
  std::uint32_t record;
  std::uint32_t variant;
};
unit_ref unit_at(const std::vector<std::uint32_t>& sampled, std::size_t k) {
  return {sampled[k % sampled.size()],
          static_cast<std::uint32_t>(k / sampled.size())};
}

/// Wraps a probe backend so each shard the engine hands out is one
/// `engine.work` span under the caller's `engine.run` span.
class timed_backend final : public engine::probe_backend {
 public:
  timed_backend(const engine::probe_backend& inner, std::uint64_t parent)
      : inner_(inner), parent_(parent) {}
  [[nodiscard]] std::size_t unit_count() const override {
    return inner_.unit_count();
  }
  [[nodiscard]] std::size_t units_per_shard() const override {
    return inner_.units_per_shard();
  }
  [[nodiscard]] std::uint64_t base_seed() const override {
    return inner_.base_seed();
  }
  [[nodiscard]] std::vector<engine::unit_outcome> run_shard(
      const engine::shard_context& ctx) const override {
    const scope work{"engine.work", ctx.index, parent_};
    return inner_.run_shard(ctx);
  }

 private:
  const engine::probe_backend& inner_;
  std::uint64_t parent_;
};

struct engine_pass {
  double wall_s = 0.0;
  std::size_t units = 0;
  std::uint64_t digest = core::kStreamDigestSeed;
  std::uint64_t chain_bytes = 0;  // chain passes only
};

using engine_pass_fn = std::function<engine_pass(std::size_t threads)>;

/// One engine::run_backend call over a timed reach backend.
engine_pass backend_pass(const engine::probe_backend& backend,
                         const std::vector<std::uint32_t>& sampled,
                         std::size_t threads) {
  probe_tally tally;
  const auto t0 = clock_type::now();
  {
    const scope run{"engine.run"};
    const timed_backend timed{backend, run.id()};
    engine::run_backend(timed, engine::options{.threads = threads},
                        [&](std::size_t k, engine::unit_outcome&& o) {
                          const scope consume{"engine.consume", k};
                          const unit_ref u = unit_at(sampled, k);
                          tally.add(u.record, u.variant, o.probe);
                        });
  }
  return {seconds_since(t0), tally.units, tally.digest, 0};
}

/// What profile_engine measured.
struct engine_profile {
  span_summary parallel;  // one traced nproc-thread pass
  span_summary serial;    // the traced 1-thread pass
  double overhead_share = 0.0;
  engine_pass result;  // of the traced nproc pass
};

/// Runs `pass` at nproc threads, alternately traced and untraced, then
/// once traced at 1 thread; every result must be the same.
engine_profile profile_engine(const engine_pass_fn& pass, std::size_t threads,
                              double budget_s, span_log& log,
                              run_report& rep) {
  recorder& rec = recorder::global();
  engine_profile prof;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  std::optional<engine_pass> first;
  auto check = [&](const engine_pass& p, const char* what) {
    rep.attempted += p.units;
    if (!first) {
      first = p;
    } else if (p.digest != first->digest || p.units != first->units) {
      rep.correct = false;
      rep.failed += p.units;
      rep.notes.push_back(std::string("engine pass result differs: ") + what);
    }
  };
  repeat_within(budget_s, [&](std::size_t r) {
    for (std::size_t side = 0; side < 2; ++side) {
      const bool traced = (r + side) % 2 == 0;
      rec.clear();
      rec.set_enabled(traced);
      const engine_pass p = pass(threads);
      rec.set_enabled(false);
      check(p, traced ? "traced nproc" : "untraced nproc");
      if (traced) {
        traced_walls.push_back(p.wall_s);
        prof.parallel = log.take("engine-nproc");
        prof.result = p;
      } else {
        untraced_walls.push_back(p.wall_s);
      }
    }
  });
  rec.clear();
  rec.set_enabled(true);
  const engine_pass serial = pass(1);
  rec.set_enabled(false);
  check(serial, "traced 1-thread");
  prof.serial = log.take("engine-1thread");
  prof.overhead_share = median(traced_walls) / median(untraced_walls) - 1.0;
  return prof;
}

void put_engine(layer_table& t, const engine_profile& prof,
                std::size_t threads) {
  const span_stats& run = stat(prof.parallel, "engine.run");
  const span_stats& work = stat(prof.parallel, "engine.work");
  t.set("engine.items", static_cast<double>(prof.result.units));
  t.set("engine.wall_s", run.busy_s);
  t.set("engine.work_busy_s", work.busy_s);
  t.set("engine.consume_busy_s", stat(prof.parallel, "engine.consume").busy_s);
  t.set("engine.wait_s",
        static_cast<double>(threads) * run.busy_s - work.busy_s);
  t.set("trace.overhead_share", prof.overhead_share);
}

/// The server flight as a client receives it: the ServerHello in one
/// Initial datagram, the Handshake-level CRYPTO stream in 1100-byte
/// Handshake packets, every datagram PADDING-padded to 1200 bytes.
std::vector<bytes> flight_datagrams(const tls::server_flight& flight) {
  constexpr std::size_t kChunk = 1100;
  const bytes cid(8, 0xcd);
  std::vector<bytes> out;
  auto emit = [&](quic::packet_type type, std::uint64_t pn,
                  std::uint64_t offset, bytes data) {
    quic::packet p;
    p.type = type;
    p.dcid = cid;
    p.scid = cid;
    p.packet_number = pn;
    p.frames.emplace_back(quic::crypto_frame{offset, std::move(data)});
    std::vector<quic::packet> dgram;
    dgram.push_back(std::move(p));
    quic::pad_datagram_to(dgram, quic::kMinInitialSize);
    out.push_back(quic::encode_datagram(dgram));
  };
  emit(quic::packet_type::initial, 0, 0, flight.server_hello);
  bytes stream;
  for (const bytes& msg : flight.handshake_msgs) {
    stream.insert(stream.end(), msg.begin(), msg.end());
  }
  for (std::size_t off = 0, pn = 0; off < stream.size(); off += kChunk, ++pn) {
    const std::size_t end = std::min(stream.size(), off + kChunk);
    emit(quic::packet_type::handshake, pn, off,
         bytes(stream.begin() + static_cast<long>(off),
               stream.begin() + static_cast<long>(end)));
  }
  return out;
}

std::size_t crypto_bytes(const std::vector<quic::packet>& packets) {
  std::size_t n = 0;
  for (const quic::packet& p : packets) {
    for (const quic::frame& f : p.frames) {
      if (const auto* cf = std::get_if<quic::crypto_frame>(&f)) {
        n += cf->data.size();
      }
    }
  }
  return n;
}

struct layer_pass {
  probe_tally tally;
  std::size_t failed = 0;
  std::uint64_t chain_bytes = 0;
  std::uint64_t parsed_bytes = 0;
};

/// Times the chain → TLS flight → QUIC datagram layers for one chain a
/// probe materialized: internet::model::chain_of, tls::
/// build_server_flight, and quic::parse_datagram on each padded
/// datagram of the flight. Throws when the parsed CRYPTO bytes do not
/// add up to the flight.
void time_chain_layers(const internet::model& m,
                       const internet::service_record& rec,
                       x509::pq_profile profile, std::size_t k,
                       layer_pass& out) {
  x509::chain chain;
  {
    const scope s{"internet.chain_of", k};
    chain = m.chain_of(rec, internet::fetch_protocol::quic, profile);
  }
  out.chain_bytes += chain.wire_size();
  rng r{rec.seed};
  tls::server_flight flight;
  {
    const scope s{"tls.server_flight", k};
    flight = tls::build_server_flight(chain, nullptr, r);
  }
  std::size_t parsed_crypto = 0;
  for (const bytes& d : flight_datagrams(flight)) {
    std::vector<quic::packet> packets;
    {
      const scope s{"quic.parse_datagram", k};
      packets = quic::parse_datagram(d);
    }
    out.parsed_bytes += d.size();
    parsed_crypto += crypto_bytes(packets);
  }
  if (parsed_crypto != flight.total_size()) {
    throw std::runtime_error("parsed server flight carries " +
                             std::to_string(parsed_crypto) + " of " +
                             std::to_string(flight.total_size()) +
                             " CRYPTO bytes");
  }
}

/// One serial pass over a plan's units, mirroring reach_backend: a
/// `scan.probe` span per probe, and the chain layers timed once per
/// distinct (record, chain profile) — the chains the probes themselves
/// materialize. A unit that throws is counted and skipped.
layer_pass run_layer_pass(const internet::model& m,
                          const engine::probe_plan& plan,
                          const std::vector<std::uint32_t>& sampled,
                          const internet::chain_cache* cache,
                          run_report& rep) {
  layer_pass out;
  const scan::reach prober{m, cache};
  std::unordered_set<std::uint64_t> materialized;
  const std::size_t units = sampled.size() * plan.variants.size();
  for (std::size_t k = 0; k < units; ++k) {
    const unit_ref u = unit_at(sampled, k);
    const engine::probe_variant& variant = plan.variants[u.variant];
    const internet::service_record& rec = m.records()[u.record];
    const scope unit{"unit", k};
    try {
      scan::probe_options popt = variant.to_probe_options();
      popt.seed_override =
          engine::probe_seed(plan.base_seed, rec.domain, variant.salt);
      scan::probe_result r;
      {
        const scope s{"scan.probe", k};
        r = prober.probe(rec, popt);
      }
      out.tally.add(u.record, u.variant, r);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(u.record) << 8) |
          static_cast<std::uint64_t>(variant.chain_profile);
      if (materialized.insert(key).second) {
        time_chain_layers(m, rec, variant.chain_profile, k, out);
      }
    } catch (const std::exception& e) {
      ++out.failed;
      if (out.failed == 1) {
        rep.notes.push_back(std::string("unit failed: ") + e.what());
      }
    }
  }
  rep.attempted += units;
  rep.failed += out.failed;
  if (out.failed != 0) {
    rep.correct = false;
  }
  return out;
}

/// The per-layer metrics a layer pass yields.
void put_layers(layer_table& t, run_report& rep, const span_summary& s,
                const layer_pass& lp) {
  put_calls(t, rep, s, "internet.chain_of", true);
  t.set("internet.chain_bytes", static_cast<double>(lp.chain_bytes));
  put_calls(t, rep, s, "tls.server_flight", false);
  const span_stats& parse = stat(s, "quic.parse_datagram");
  t.set("quic.parse_datagram.busy_s", parse.busy_s);
  if (lp.parsed_bytes != 0) {
    t.set("quic.parse_datagram.ns_per_byte",
          parse.busy_s * 1e9 / static_cast<double>(lp.parsed_bytes));
  }
  put_calls(t, rep, s, "scan.probe", true);
  t.set("scan.handshake_self_s", stat(s, "scan.probe").busy_s -
                                     stat(s, "internet.chain_of").busy_s);
  const probe_tally& y = lp.tally;
  if (y.units != 0) {
    const double n = static_cast<double>(y.units);
    t.set("quic.server_datagrams_per_probe", y.server_datagrams / n);
    t.set("quic.client_datagrams_per_probe", y.client_datagrams / n);
    t.set("quic.bytes_received_per_probe", y.bytes_received / n);
    t.set("quic.timed_out_share", y.timed_out / n);
  }
}

/// Fails the traced run when a serial layer pass disagrees with the
/// engine's result over the same plan.
void expect_same(run_report& rep, std::uint64_t a, std::uint64_t b,
                 std::size_t units, const std::string& what) {
  if (a != b) {
    rep.correct = false;
    rep.failed += units;
    rep.notes.push_back("check failed: " + what);
  }
}

template <typename T, std::size_t N>
std::size_t sum(const std::array<T, N>& a) {
  std::size_t n = 0;
  for (const T& v : a) {
    n += v;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Workloads

/// One untraced call of a study.
struct call_result {
  double wall_s = 0.0;       // the study call alone
  std::size_t units = 0;     // units the study reported
  std::uint64_t digest = 0;  // of the outputs; equal at any thread count
  std::string problem;       // first failed output check, empty if none
};

class workload {
 public:
  virtual ~workload() = default;

  /// The population the workload's studies run on.
  [[nodiscard]] virtual internet::config population() const = 0;
  /// Builds what the timed phase needs (timed as setup_s).
  virtual void setup() = 0;
  /// Units one call attempts.
  [[nodiscard]] virtual std::size_t expected_units() const = 0;
  /// One untraced call of the study at `threads` engine threads.
  [[nodiscard]] virtual call_result call(std::size_t threads) = 0;
  /// The traced run, after setup().
  /// `budget_s` bounds the repeated passes that measure tracing
  /// overhead.
  virtual void traced(std::size_t threads, double budget_s, layer_table& t,
                      span_log& log, run_report& rep) = 0;
  /// Human-readable description of the inputs.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// A workload whose studies run on one generated population and its
/// sample of services.
class sampled_workload : public workload {
 public:
  internet::config population() const override {
    return {.domains = domains_, .seed = seed_};
  }
  void setup() override {
    model_ = std::make_unique<internet::model>(
        internet::model::generate(population()));
    sampled_ = engine::sample_indices(*model_, filter_, 0);
  }

 protected:
  sampled_workload(std::uint64_t seed, std::size_t domains,
                   engine::service_filter filter)
      : seed_(seed), domains_(domains), filter_(filter) {}

  std::uint64_t seed_;
  std::size_t domains_;
  engine::service_filter filter_;
  std::unique_ptr<internet::model> model_;
  std::vector<std::uint32_t> sampled_;
};

class census_workload final : public sampled_workload {
 public:
  explicit census_workload(std::uint64_t seed)
      : sampled_workload(seed, kCensusDomains, engine::service_filter::quic) {}

  std::size_t expected_units() const override { return sampled_.size(); }

  call_result call(std::size_t threads) override {
    const auto t0 = clock_type::now();
    const core::census_result r = core::run_census(
        *model_,
        {.initial_size = kInitialSize, .collect_payload_details = true},
        {.threads = threads});
    call_result out{seconds_since(t0), r.probed, core::kStreamDigestSeed, {}};
    std::size_t grouped = 0;
    for (const auto& g : r.group_counts) {
      grouped += sum(g);
      for (const std::size_t c : g) {
        mix(out.digest, static_cast<std::uint64_t>(c));
      }
    }
    if (r.probed != sampled_.size()) {
      out.problem = "probed != sampled QUIC services";
    } else if (sum(r.counts) != r.probed || grouped != r.probed) {
      out.problem = "class counts do not sum to probes";
    }
    for (const std::size_t c : r.counts) {
      mix(out.digest, static_cast<std::uint64_t>(c));
    }
    mix(out.digest, r.first_burst_amplification);
    mix(out.digest, r.cloudflare_padding);
    for (const auto& [total, tls] : r.multi_rtt_payload) {
      mix(out.digest, static_cast<std::uint64_t>(total));
      mix(out.digest, static_cast<std::uint64_t>(tls));
    }
    for (const std::size_t v :
         {r.multi_tls_exceeding_limit, r.max_non_tls_bytes, r.amplifying,
          r.amplifying_cloudflare}) {
      mix(out.digest, static_cast<std::uint64_t>(v));
    }
    return out;
  }

  void traced(std::size_t threads, double budget_s, layer_table& t,
              span_log& log, run_report& rep) override {
    engine::probe_variant v;
    v.initial_size = kInitialSize;
    const engine::probe_plan plan = engine::probe_plan::single(std::move(v));
    const engine::reach_backend backend{*model_, plan, sampled_};
    const engine_profile prof = profile_engine(
        [&](std::size_t n) { return backend_pass(backend, sampled_, n); },
        threads, budget_s, log, rep);
    put_engine(t, prof, threads);

    recorder::global().set_enabled(true);
    const layer_pass lp = run_layer_pass(*model_, plan, sampled_, nullptr, rep);
    recorder::global().set_enabled(false);
    put_layers(t, rep, log.take("layers"), lp);
    expect_same(rep, lp.tally.digest, prof.result.digest, lp.tally.units,
                "serial layer pass == nproc engine pass");
  }

  std::string describe() const override {
    return "census: " + std::to_string(kCensusDomains) + " domains, " +
           std::to_string(sampled_.size()) + " QUIC services x 1 variant";
  }
};

class corpus_workload final : public sampled_workload {
 public:
  explicit corpus_workload(std::uint64_t seed)
      : sampled_workload(seed, kCorpusDomains, engine::service_filter::tls) {}

  std::size_t expected_units() const override { return sampled_.size(); }

  call_result call(std::size_t threads) override {
    const auto t0 = clock_type::now();
    const core::corpus_result r =
        core::analyze_corpus(*model_, {}, {.threads = threads});
    const std::size_t chains =
        r.quic_chain_sizes.size() + r.https_chain_sizes.size();
    call_result out{seconds_since(t0), chains, core::kStreamDigestSeed, {}};
    if (chains != sampled_.size()) {
      out.problem = "chains != sampled TLS services";
    }
    mix(out.digest, r.quic_chain_sizes);
    mix(out.digest, r.https_chain_sizes);
    mix(out.digest, r.field_spki);
    mix(out.digest, r.san_shares);
    mix(out.digest, r.all_chains_over_4071);
    for (const auto& side : r.alg_counts) {
      for (const auto& role : side) {
        for (const std::size_t c : role) {
          mix(out.digest, static_cast<std::uint64_t>(c));
        }
      }
    }
    for (const std::size_t v :
         {r.leaves_total, r.quadrant_small_low, r.quadrant_small_high,
          r.quadrant_large_high, r.quadrant_large_low}) {
      mix(out.digest, static_cast<std::uint64_t>(v));
    }
    return out;
  }

  void traced(std::size_t threads, double budget_s, layer_table& t,
              span_log& log, run_report& rep) override {
    // analyze_corpus's engine call, re-issued from here: chain
    // materialization on the workers, the ordered consumer folding
    // wire sizes.
    const internet::model& m = *model_;
    auto pass = [&](std::size_t n) {
      engine_pass out;
      const auto t0 = clock_type::now();
      {
        const scope run{"engine.run"};
        const std::uint64_t run_id = run.id();
        engine::parallel_ordered(
            sampled_.size(), engine::options{.threads = n},
            [&](std::size_t i) {
              const scope work{"engine.work", i, run_id};
              const scope s{"internet.chain_of", i};
              return m.chain_of(m.records()[sampled_[i]],
                                internet::fetch_protocol::https);
            },
            [&](std::size_t i, x509::chain&& chain) {
              const scope consume{"engine.consume", i};
              const std::size_t size = chain.wire_size();
              ++out.units;
              out.chain_bytes += size;
              mix(out.digest, static_cast<std::uint64_t>(size));
            });
      }
      out.wall_s = seconds_since(t0);
      return out;
    };
    const engine_profile prof =
        profile_engine(pass, threads, budget_s, log, rep);
    put_engine(t, prof, threads);
    // Per-call chain costs from the uncontended 1-thread pass.
    put_calls(t, rep, prof.serial, "internet.chain_of", true);
    t.set("internet.chain_bytes",
          static_cast<double>(prof.result.chain_bytes));
    if (prof.result.units != sampled_.size()) {
      rep.correct = false;
      rep.failed += sampled_.size();
      rep.notes.push_back("check failed: chains != sampled TLS services");
    }
  }

  std::string describe() const override {
    return "corpus: " + std::to_string(kCorpusDomains) + " domains, " +
           std::to_string(sampled_.size()) + " TLS services (one chain each)";
  }
};

class ttfb_workload final : public sampled_workload {
 public:
  explicit ttfb_workload(std::uint64_t seed)
      : sampled_workload(seed, kTtfbDomains, engine::service_filter::quic) {
    // The plan core::run_ttfb_study builds: profile-major over the
    // network grid.
    for (const x509::pq_profile profile : x509::all_pq_profiles()) {
      for (const net::network_condition& c :
           core::default_network_conditions()) {
        engine::probe_variant v;
        v.initial_size = kInitialSize;
        v.chain_profile = profile;
        v.network = c;
        v.measure_ttfb = true;
        plan_.variants.push_back(std::move(v));
      }
    }
  }

  std::size_t expected_units() const override {
    return sampled_.size() * plan_.variants.size();
  }

  call_result call(std::size_t threads) override {
    const auto t0 = clock_type::now();
    core::ttfb_options topt;
    topt.initial_size = kInitialSize;
    const core::ttfb_study_result r =
        core::run_ttfb_study(*model_, topt, {.threads = threads});
    call_result out{seconds_since(t0), 0, core::kStreamDigestSeed, {}};
    if (r.cells.size() != plan_.variants.size()) {
      out.problem = "cell count != plan variants";
    }
    for (const core::ttfb_cell& cell : r.cells) {
      out.units += cell.probed;
      if (cell.probed != sampled_.size()) {
        out.problem = "cell probes != sampled QUIC services";
      } else if (sum(cell.counts) != cell.probed) {
        out.problem = "class counts do not sum to probes";
      }
      for (const std::size_t c : cell.counts) {
        mix(out.digest, static_cast<std::uint64_t>(c));
      }
      mix(out.digest, cell.ttfb_ms);
    }
    return out;
  }

  void traced(std::size_t threads, double budget_s, layer_table& t,
              span_log& log, run_report& rep) override {
    const engine::reach_backend backend{*model_, plan_, sampled_};
    const engine_profile prof = profile_engine(
        [&](std::size_t n) { return backend_pass(backend, sampled_, n); },
        threads, budget_s, log, rep);
    put_engine(t, prof, threads);

    const internet::chain_cache cache{*model_};
    recorder::global().set_enabled(true);
    const layer_pass lp = run_layer_pass(*model_, plan_, sampled_, &cache, rep);
    recorder::global().set_enabled(false);
    put_layers(t, rep, log.take("layers"), lp);
    const double hits = static_cast<double>(cache.hits());
    const double misses = static_cast<double>(cache.misses());
    t.set("internet.chain_cache.hits", hits);
    t.set("internet.chain_cache.misses", misses);
    if (hits + misses > 0) {
      t.set("internet.chain_cache.hit_ratio", hits / (hits + misses));
    }
    expect_same(rep, lp.tally.digest, prof.result.digest, lp.tally.units,
                "serial layer pass == nproc engine pass");
  }

  std::string describe() const override {
    return "ttfb-sweep: " + std::to_string(kTtfbDomains) + " domains, " +
           std::to_string(sampled_.size()) + " QUIC services x " +
           std::to_string(plan_.variants.size()) + " variants";
  }

 private:
  engine::probe_plan plan_;
};

/// Counts replayed records.
class counting_sink final : public engine::observation_sink {
 public:
  void on_record(const engine::probe_record& /*rec*/) override { ++records; }
  std::size_t records = 0;
};

class epochs_workload final : public workload {
 public:
  epochs_workload(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed),
        store_(work_dir + "/epochs-" + std::to_string(::getpid())) {}
  ~epochs_workload() override {
    std::error_code ec;
    std::filesystem::remove_all(store_, ec);
  }
  epochs_workload(const epochs_workload&) = delete;
  epochs_workload& operator=(const epochs_workload&) = delete;

  internet::config population() const override {
    return {.domains = kEpochDomains, .seed = seed_};
  }

  /// The check's expectations: each epoch's QUIC sample, derived
  /// independently of run_epochs.
  void setup() override {
    expected_.clear();
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      const internet::model m =
          internet::model::at_epoch(population(), internet::churn_config{}, e);
      expected_.push_back(
          engine::sample_indices(m, engine::service_filter::quic, 0).size());
    }
  }
  std::size_t expected_units() const override {
    std::size_t n = 0;
    for (const std::size_t s : expected_) {
      n += s;
    }
    return n;
  }

  call_result call(std::size_t threads) override {
    reset_store();
    const auto t0 = clock_type::now();
    const service::service_result r =
        service::run_epochs(options(0), {.threads = threads});
    call_result out{seconds_since(t0), 0, core::kStreamDigestSeed, {}};
    out.problem = check(r);
    for (const service::epoch_report& rep : r.epochs) {
      out.units += rep.aggregate.records;
      mix(out.digest, rep.aggregate.stream_digest);
    }
    return out;
  }

  void traced(std::size_t threads, double budget_s, layer_table& t,
              span_log& log, run_report& rep) override {
    recorder& rec = recorder::global();
    // The service, one epoch per call, alternately traced and not.
    std::vector<double> traced_walls;
    std::vector<double> untraced_walls;
    service::service_result last;
    span_summary service_spans;
    repeat_within(budget_s, [&](std::size_t r) {
      for (std::size_t side = 0; side < 2; ++side) {
        const bool traced = (r + side) % 2 == 0;
        reset_store();
        rec.clear();
        rec.set_enabled(traced);
        const auto t0 = clock_type::now();
        for (std::uint64_t e = 0; e < kEpochs; ++e) {
          const scope s{"service.run_epochs", e};
          last = service::run_epochs(options(1), {.threads = threads});
        }
        const double wall = seconds_since(t0);
        rec.set_enabled(false);
        (traced ? traced_walls : untraced_walls).push_back(wall);
        rep.attempted += expected_units();
        if (const std::string problem = check(last); !problem.empty()) {
          rep.correct = false;
          rep.failed += expected_units();
          rep.notes.push_back("check failed: " + problem);
        }
        if (traced) {
          service_spans = log.take("service");
        }
      }
    });
    const span_stats& calls = stat(service_spans, "service.run_epochs");
    if (!calls.durations_us.empty()) {
      t.set("service.epoch_s_p50", median(calls.durations_us) * 1e-6);
    }
    t.set("trace.overhead_share",
          median(traced_walls) / median(untraced_walls) - 1.0);

    // Each epoch's layers, from a fresh at_epoch world; the serial
    // pass must reproduce the epoch's sealed stream digest.
    engine::probe_variant v;
    v.initial_size = kInitialSize;
    const engine::probe_plan plan = engine::probe_plan::single(std::move(v));
    const service::epoch_store store{store_config()};
    const std::string rewrite = store_ + "/rewrite.spill";
    layer_pass all;
    std::uint64_t spill_records = 0;
    std::uint64_t spill_bytes = 0;
    rec.set_enabled(true);
    for (std::uint64_t e = 0; e < kEpochs && e < last.epochs.size(); ++e) {
      std::optional<internet::model> m;
      {
        const scope s{"internet.at_epoch", e};
        m.emplace(internet::model::at_epoch(population(),
                                            internet::churn_config{}, e));
      }
      const std::vector<std::uint32_t> sampled =
          engine::sample_indices(*m, engine::service_filter::quic, 0);
      const layer_pass lp = run_layer_pass(*m, plan, sampled, nullptr, rep);
      expect_same(rep, lp.tally.digest, last.epochs[e].aggregate.stream_digest,
                  lp.tally.units,
                  "epoch " + std::to_string(e) +
                      " layer pass == sealed stream digest");
      accumulate(all, lp);

      const engine::spill_reader reader{*m, plan};
      for (std::size_t s = 0; s < kEpochShards; ++s) {
        const std::string path = store.shard_path(e, s);
        engine::spill_probe_result probe;
        {
          const scope sp{"engine.spill.probe", e};
          probe = engine::spill_probe(path);
        }
        counting_sink counter;
        {
          const scope sp{"engine.spill.replay", e};
          reader.replay(path, counter);
        }
        std::size_t rewritten = 0;
        {
          const scope sp{"engine.spill.write", e};
          engine::spill_sink sink{rewrite};
          reader.replay(path, sink);
          rewritten = sink.records_written();
        }
        spill_records += probe.records;
        spill_bytes += std::filesystem::file_size(path);
        rep.attempted += probe.records;
        if (!probe.complete() || counter.records != probe.records ||
            rewritten != probe.records ||
            std::filesystem::file_size(rewrite) !=
                std::filesystem::file_size(path)) {
          rep.correct = false;
          rep.failed += probe.records;
          rep.notes.push_back("check failed: spill shard " + path);
        }
      }
    }
    rec.set_enabled(false);
    const span_summary s = log.take("layers");
    put_layers(t, rep, s, all);
    t.set("internet.at_epoch_s", stat(s, "internet.at_epoch").busy_s);
    t.set("engine.spill.records", static_cast<double>(spill_records));
    t.set("engine.spill.bytes", static_cast<double>(spill_bytes));
    t.set("engine.spill.write_s", stat(s, "engine.spill.write").busy_s);
    t.set("engine.spill.replay_s", stat(s, "engine.spill.replay").busy_s);
    t.set("engine.spill.probe_s", stat(s, "engine.spill.probe").busy_s);
    if (spill_records != expected_units()) {
      rep.correct = false;
      rep.notes.push_back("check failed: spilled records != sampled services");
    }
  }

  std::string describe() const override {
    std::string sizes;
    for (const std::size_t s : expected_) {
      sizes += (sizes.empty() ? "" : "+") + std::to_string(s);
    }
    return "epochs: " + std::to_string(kEpochDomains) + " domains, " +
           std::to_string(kEpochs) + " epochs x " +
           std::to_string(kEpochShards) + " shards, " + sizes +
           " QUIC services; store " + store_ + " on " + filesystem_name();
  }

 private:
  static void accumulate(layer_pass& all, const layer_pass& lp) {
    all.tally.units += lp.tally.units;
    all.tally.server_datagrams += lp.tally.server_datagrams;
    all.tally.client_datagrams += lp.tally.client_datagrams;
    all.tally.bytes_received += lp.tally.bytes_received;
    all.tally.timed_out += lp.tally.timed_out;
    all.failed += lp.failed;
    all.chain_bytes += lp.chain_bytes;
    all.parsed_bytes += lp.parsed_bytes;
  }

  service::service_options options(std::size_t max_epochs_per_call) const {
    service::service_options o;
    o.store_dir = store_;
    o.domains = kEpochDomains;
    o.seed = seed_;
    o.sample = 0;
    o.shards = kEpochShards;
    o.initial_size = kInitialSize;
    o.epochs = kEpochs;
    o.max_epochs_per_call = max_epochs_per_call;
    return o;
  }

  service::store_config store_config() const {
    return {.root = store_,
            .seed = seed_,
            .domains = kEpochDomains,
            .sample = 0,
            .shards = kEpochShards,
            .initial_size = kInitialSize};
  }

  void reset_store() const {
    std::filesystem::remove_all(store_);
    std::filesystem::create_directories(store_);
  }

  /// The first failed output check of a run_epochs result, or "".
  std::string check(const service::service_result& r) const {
    if (!r.complete) {
      return "run_epochs did not report complete";
    }
    if (r.epochs.size() != expected_.size()) {
      return "epoch count != target";
    }
    for (std::size_t e = 0; e < r.epochs.size(); ++e) {
      const service::epoch_report& rep = r.epochs[e];
      if (rep.sampled != expected_[e] ||
          rep.aggregate.records != rep.sampled) {
        return "epoch " + std::to_string(e) + " records != sampled services";
      }
      if (sum(rep.aggregate.counts) != rep.aggregate.records) {
        return "epoch " + std::to_string(e) +
               " class counts do not sum to records";
      }
    }
    return {};
  }

  std::string filesystem_name() const {
    struct statfs fs {};
    const std::string dir =
        std::filesystem::path(store_).parent_path().string();
    if (::statfs(dir.c_str(), &fs) != 0) {
      return "unknown";
    }
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0xEF53: return "ext4";
      case 0x58465342: return "xfs";
      case 0x01021994: return "tmpfs";
      case 0x794c7630: return "overlayfs";
      case 0x9123683E: return "btrfs";
      default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "fs-0x%lx",
                      static_cast<unsigned long>(fs.f_type));
        return buf;
      }
    }
  }

  std::uint64_t seed_;
  std::string store_;
  std::vector<std::size_t> expected_;
};

std::unique_ptr<workload> make_workload(const run_options& opt) {
  if (opt.workload == "census") {
    return std::make_unique<census_workload>(opt.seed);
  }
  if (opt.workload == "corpus") {
    return std::make_unique<corpus_workload>(opt.seed);
  }
  if (opt.workload == "ttfb-sweep") {
    return std::make_unique<ttfb_workload>(opt.seed);
  }
  if (opt.workload == "epochs") {
    return std::make_unique<epochs_workload>(opt.seed, opt.work_dir);
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

// ---------------------------------------------------------------------------
// The two kinds of run

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

/// Pins the calling thread (and the threads it starts) to one CPU for
/// the scope's lifetime, then restores its previous CPU set. A no-op
/// when the kernel refuses.
class cpu_pin {
 public:
  explicit cpu_pin(int cpu) {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    active_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~cpu_pin() {
    if (active_) {
      ::sched_setaffinity(0, sizeof saved_, &saved_);
    }
  }
  cpu_pin(const cpu_pin&) = delete;
  cpu_pin& operator=(const cpu_pin&) = delete;

 private:
  cpu_set_t saved_;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Host speed
//
// On a shared host the same binary on the same input runs 15-40% faster
// or slower from one minute to the next. No time is stolen from the
// process (its CPU time equals its wall time); the CPUs themselves run
// slower while other tenants load the cores and caches they share. So
// every timed item is bracketed by calibration passes: fixed work that
// uses none of the library, run on the same CPUs with the same number
// of threads. Their speed, as a multiple of the reference host's median
// speed, converts the item's wall time into reference seconds, and the
// end-to-end times and rates are reported in reference seconds.

/// Calibration passes per second on the reference host (4 vCPUs, see
/// BASELINE.json), median over 200 passes, alone or each of nproc
/// concurrent passes (27-28 either way).
constexpr double kReferencePassesPerS = 28.0;

/// One calibration pass: builds, counts and sorts 60 x 1 000 short
/// pseudo-random strings, as the library's chain building allocates,
/// hashes and compares short byte strings. The working set (about
/// 100 KB) stays in the core's own caches: a pass over 20 000 strings
/// slowed about three times as much as a 1-thread corpus call when the
/// host did, this one as much. Returns its wall time. Its memory comes
/// from a private mapping that is unmapped at the end, so the pass
/// leaves nothing in the heap and the resident set of a call timed
/// after it is what the call itself uses.
double calibration_pass() {
  constexpr std::size_t kArenaBytes = std::size_t{1} << 20;
  const auto t0 = clock_type::now();
  void* arena = ::mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (arena == MAP_FAILED) {
    throw std::runtime_error("calibration pass: mmap failed");
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::size_t built = 0;
  for (int round = 0; round < 60; ++round) {
    std::pmr::monotonic_buffer_resource pool{
        arena, kArenaBytes, std::pmr::null_memory_resource()};
    std::pmr::vector<std::pmr::string> keys{&pool};
    std::pmr::unordered_map<std::pmr::string, std::uint64_t> counts{&pool};
    for (std::uint64_t i = 0; i < 1'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::pmr::string key(8 + x % 40, '\0', &pool);
      for (std::size_t j = 0; j < key.size(); ++j) {
        key[j] = static_cast<char>('a' + ((x >> (j % 57)) & 15));
      }
      counts[key] += i;
      keys.push_back(std::move(key));
    }
    std::sort(keys.begin(), keys.end());
    built += keys.size() + counts.size();
  }
  ::munmap(arena, kArenaBytes);
  if (built == 0) {
    throw std::logic_error("calibration pass built nothing");
  }
  return seconds_since(t0);
}

/// The host's speed now, as a multiple of the reference host's: one
/// calibration pass on each of `threads` concurrent threads.
double host_speed(std::size_t threads) {
  std::vector<double> secs(threads);
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < threads; ++i) {
    helpers.emplace_back([&secs, i] { secs[i] = calibration_pass(); });
  }
  secs[0] = calibration_pass();
  for (std::thread& t : helpers) {
    t.join();
  }
  double passes_per_s = 0.0;
  for (const double s : secs) {
    passes_per_s += 1.0 / s;
  }
  passes_per_s /= static_cast<double>(threads);
  return passes_per_s / kReferencePassesPerS;
}

/// Runs `item` between two host_speed(threads) readings and returns
/// their mean: the factor that turns the item's wall time into
/// reference seconds.
double speed_around(std::size_t threads, const std::function<void()>& item) {
  const double before = host_speed(threads);
  item();
  return (before + host_speed(threads)) / 2.0;
}

/// The calls of one side (1 thread or nproc threads) of a timed phase.
struct side_tally {
  double units = 0.0;
  double wall_s = 0.0;       // summed wall time
  double reference_s = 0.0;  // the same in reference seconds
  std::vector<double> rates;  // per call, wall time, for the notes

  void add(std::size_t n, double wall, double reference) {
    units += static_cast<double>(n);
    wall_s += wall;
    reference_s += reference;
    rates.push_back(static_cast<double>(n) / wall);
  }
  /// Units per reference second over all the side's calls.
  [[nodiscard]] double rate() const {
    return reference_s > 0.0 ? units / reference_s : 0.0;
  }
  /// Units per wall second over all the side's calls.
  [[nodiscard]] double wall_rate() const {
    return wall_s > 0.0 ? units / wall_s : 0.0;
  }
};

std::string quartile_note(const std::string& name,
                          const std::vector<double>& v,
                          const std::string& of = "calls") {
  const quartiles q = quartiles_of(v);
  return name + " over " + std::to_string(v.size()) + " " + of + ": q1 " +
         std::to_string(q.q1) + " median " + std::to_string(q.median) +
         " q3 " + std::to_string(q.q3);
}

/// Untraced study calls at 1 and at nproc engine threads, with their
/// output checks. A call that throws or fails a check counts all its
/// units as failed in `rep`, and the run goes on.
class call_runner {
 public:
  call_runner(workload& w, std::size_t threads, run_report& rep)
      : w_(w),
        threads_(threads),
        rep_(rep),
        expected_(w.expected_units()),
        cpus_(allowed_cpus()) {}

  /// One call at 1 thread and one at nproc threads; which goes first
  /// alternates, so neither always follows the other.
  void round() {
    if (rounds_++ % 2 == 0) {
      one(1);
      one(threads_);
    } else {
      one(threads_);
      one(1);
    }
  }

  [[nodiscard]] std::size_t rounds() const { return rounds_; }

  side_tally parallel;
  side_tally serial;
  std::vector<double> rss_mb;  // peak of each nproc-thread call

 private:
  void one(std::size_t threads) {
    // On a shared host the CPUs differ in speed, and a thread left
    // alone stays on one of them for the whole run; 1-thread calls
    // therefore rotate over every allowed CPU, so each run sees them
    // all.
    std::optional<cpu_pin> pin;
    if (threads == 1 && !cpus_.empty()) {
      pin.emplace(cpus_[serial_calls_++ % cpus_.size()]);
    }
    call_result r;
    double peak_mb = 0.0;
    const double speed = speed_around(threads, [&] {
      // Every call starts from a trimmed heap, so neither its speed nor
      // its resident peak depends on what came before it.
      ::malloc_trim(0);
      std::optional<rss_meter::phase> phase;
      if (threads == threads_) {
        phase.emplace();
      }
      try {
        r = w_.call(threads);
      } catch (const std::exception& e) {
        r.problem = std::string("threw: ") + e.what();
      }
      if (phase) {
        peak_mb = static_cast<double>(phase->peak_kb()) / 1024.0;
      }
    });
    rep_.attempted += expected_;
    if (r.problem.empty() && r.units != expected_) {
      r.problem = "units " + std::to_string(r.units) + " != expected " +
                  std::to_string(expected_);
    }
    if (r.problem.empty() && first_digest_ && *first_digest_ != r.digest) {
      r.problem = "output differs from the first call's";
    }
    if (!r.problem.empty()) {
      rep_.correct = false;
      rep_.failed += expected_;
      rep_.notes.push_back("check failed at " + std::to_string(threads) +
                           " thread(s): " + r.problem);
      return;
    }
    first_digest_ = r.digest;
    (threads == threads_ ? parallel : serial)
        .add(r.units, r.wall_s, r.wall_s * speed);
    if (threads == threads_) {
      rss_mb.push_back(peak_mb);
    }
  }

  workload& w_;
  std::size_t threads_;
  run_report& rep_;
  std::size_t expected_;
  std::vector<int> cpus_;
  std::size_t rounds_ = 0;
  std::size_t serial_calls_ = 0;
  std::optional<std::uint64_t> first_digest_;
};

run_report run_untraced(workload& w, const run_options& opt) {
  run_report rep;
  w.setup();
  rep.notes.push_back(w.describe());

  call_runner calls{w, opt.threads, rep};
  // Set-up takes milliseconds; set-ups spread over the whole run, each
  // round's in reference seconds, see the same mix of fast and slow
  // stretches on every run.
  std::array<double, kSetupGroups> setup_sum{};
  const auto start = clock_type::now();
  repeat_within(opt.seconds, [&](std::size_t) {
    calls.round();
    std::array<double, kSetupGroups> wall_s{};
    const double speed = speed_around(1, [&] {
      ::malloc_trim(0);
      for (double& one : wall_s) {
        const auto t0 = clock_type::now();
        w.setup();
        one = seconds_since(t0);
      }
    });
    for (std::size_t g = 0; g < kSetupGroups; ++g) {
      setup_sum[g] += wall_s[g] * speed;
    }
  });
  std::vector<double> setup_s;
  for (const double sum : setup_sum) {
    setup_s.push_back(sum / static_cast<double>(calls.rounds()));
  }
  rep.notes.push_back("timed phase: " + std::to_string(calls.rounds()) +
                      " rounds in " + std::to_string(seconds_since(start)) +
                      " s");
  rep.notes.push_back(quartile_note("setup_s", setup_s, "groups"));
  for (const auto& [name, side] : {std::pair{"units_per_s", &calls.parallel},
                                   {"units_per_s_serial", &calls.serial}}) {
    if (!side->rates.empty()) {
      rep.notes.push_back(std::string(name) + " per wall second: " +
                          std::to_string(side->wall_rate()) +
                          "; host speed " +
                          std::to_string(side->reference_s / side->wall_s) +
                          " x reference");
      rep.notes.push_back(quartile_note(std::string(name) + " (wall)",
                                        side->rates));
    }
  }

  const double ok_share =
      rep.attempted == 0
          ? 0.0
          : static_cast<double>(rep.attempted - rep.failed) /
                static_cast<double>(rep.attempted);
  rep.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"units_per_s", calls.parallel.rate(), "units/s"},
      {"units_per_s_serial", calls.serial.rate(), "units/s"},
      {"peak_rss_mb", calls.rss_mb.empty() ? 0.0 : median(calls.rss_mb), "MB"},
      {"ok_share", ok_share, "ratio"},
  };
  return rep;
}

run_report run_traced(workload& w, const run_options& opt) {
  run_report rep;
  layer_table table;
  span_log log;

  std::vector<double> generate_s;
  for (std::size_t i = 0; i < kGenerateReps; ++i) {
    const auto t0 = clock_type::now();
    const internet::model m = internet::model::generate(w.population());
    generate_s.push_back(seconds_since(t0));
  }
  table.set("internet.generate_s", median(generate_s));
  w.setup();
  rep.notes.push_back(w.describe());
  w.traced(opt.threads, opt.seconds / 2.0, table, log, rep);

  // Scaling from the study's own untraced calls, timed as in an
  // untraced run.
  call_runner calls{w, opt.threads, rep};
  repeat_within(opt.seconds / 4.0, [&](std::size_t) { calls.round(); });
  if (calls.serial.wall_rate() > 0.0) {
    table.set("engine.scaling_eff",
              calls.parallel.wall_rate() /
                  (static_cast<double>(opt.threads) *
                   calls.serial.wall_rate()));
  }
  rep.metrics = table.ordered();

  std::filesystem::create_directories(opt.work_dir);
  const std::string path = opt.work_dir + "/spans-" + opt.workload + ".tsv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(kSpanHeader, f);
    std::size_t n = 0;
    for (const auto& [pass, spans] : log.passes) {
      write_spans(f, pass, spans);
      n += spans.size();
    }
    std::fclose(f);
    rep.notes.push_back("spans: " + std::to_string(n) + " written to " + path);
  }
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"census", "corpus",
                                                 "ttfb-sweep", "epochs"};
  return names;
}

run_report run_workload(const run_options& opt) {
  std::filesystem::create_directories(opt.work_dir);
  const std::unique_ptr<workload> w = make_workload(opt);
  return opt.trace ? run_traced(*w, opt) : run_untraced(*w, opt);
}

}  // namespace perfbench
