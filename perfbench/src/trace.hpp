// In-memory span tracing for the benchmark's traced run.
//
// A span records one call from the benchmark into a layer's public
// function: a name, a start, an end, the span that caused it and the
// unit (probe, chain, epoch) it belongs to. Each thread appends to its
// own buffer, so recording takes no lock; buffers are merged and
// written out only when the benchmark ends. A span's parent is the
// innermost open span on the same thread unless the caller names one
// explicitly (engine work callables name the span of the engine call
// that spawned them, on another thread).
//
// A span's self time is its duration minus the part of its interval
// covered by its children. Children may nest inside each other or,
// when they ran on several threads, overlap; the covered part is the
// union of their intervals clipped to the parent's.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // never 0 for a recorded span
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t unit = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span (same order as `spans`), in nanoseconds.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<span>& spans);

/// Per-name totals over a set of spans.
struct span_stats {
  std::size_t calls = 0;
  double busy_s = 0.0;  // summed durations
  double self_s = 0.0;  // summed self times
  std::vector<double> durations_us;
};

[[nodiscard]] std::map<std::string, span_stats> summarize(
    const std::vector<span>& spans);

class recorder {
 public:
  recorder(const recorder&) = delete;
  recorder& operator=(const recorder&) = delete;

  /// The process-wide recorder every scope writes to.
  [[nodiscard]] static recorder& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; returns its id, or 0 when
  /// recording is off. `parent` 0 means "the innermost open span of
  /// this thread".
  std::uint64_t begin(const char* name, std::uint64_t unit,
                      std::uint64_t parent);
  /// Closes the span `id` opened on the calling thread.
  void end(std::uint64_t id);

  /// Every closed span of every thread. Call only while no other
  /// thread records.
  [[nodiscard]] std::vector<span> collect() const;
  /// Drops every recorded span (buffers stay registered).
  void clear();

 private:
  // One instance only: each thread caches its buffer in a thread_local.
  recorder() = default;

  struct thread_buffer {
    std::uint64_t index = 0;
    std::vector<span> spans;
    std::vector<std::uint64_t> open;  // stack of open span ids
  };
  thread_buffer& local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<thread_buffer>> buffers_;  // guarded by mu_
};

/// RAII span on the global recorder; a no-op while recording is off.
class scope {
 public:
  explicit scope(const char* name, std::uint64_t unit = 0,
                 std::uint64_t parent = 0)
      : id_(recorder::global().begin(name, unit, parent)) {}
  ~scope() {
    if (id_ != 0) {
      recorder::global().end(id_);
    }
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

/// Column header of write_spans' tab-separated lines.
inline constexpr const char* kSpanHeader =
    "pass\tid\tparent\tunit\tname\tstart_ns\tend_ns\tself_ns\n";

/// Appends one tab-separated line per span (times in ns), each tagged
/// with the benchmark pass that recorded it: span ids restart when the
/// recorder is cleared between passes.
void write_spans(std::FILE* out, const std::string& pass,
                 const std::vector<span>& spans);

}  // namespace perfbench
