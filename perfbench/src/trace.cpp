#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

// Span ids: (buffer index + 1) in the high half, position in the
// buffer in the low half, so an id is never 0 and finds its span
// without a lookup table.
constexpr std::uint64_t make_id(std::uint64_t buffer, std::size_t pos) {
  return ((buffer + 1) << 32) | static_cast<std::uint64_t>(pos);
}

}  // namespace

std::vector<std::int64_t> self_times(const std::vector<span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const span& s : spans) {
    const auto parent = index_of.find(s.parent);
    if (s.parent != 0 && parent != index_of.end()) {
      children[parent->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union so far
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, span_stats> summarize(const std::vector<span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, span_stats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    span_stats& st = out[spans[i].name];
    const double dur = static_cast<double>(spans[i].duration_ns());
    ++st.calls;
    st.busy_s += dur * 1e-9;
    st.self_s += static_cast<double>(self[i]) * 1e-9;
    st.durations_us.push_back(dur * 1e-3);
  }
  return out;
}

recorder& recorder::global() {
  static recorder instance;
  return instance;
}

recorder::thread_buffer& recorder::local() {
  // A thread registers its buffer on its first span; the recorder owns
  // it, so spans of engine workers outlive the workers.
  thread_local thread_buffer* mine = nullptr;
  if (mine == nullptr) {
    auto buf = std::make_unique<thread_buffer>();
    const std::lock_guard<std::mutex> lock{mu_};
    buf->index = buffers_.size();
    mine = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return *mine;
}

std::uint64_t recorder::begin(const char* name, std::uint64_t unit,
                              std::uint64_t parent) {
  if (!enabled()) {
    return 0;
  }
  thread_buffer& buf = local();
  span s;
  s.name = name;
  s.unit = unit;
  s.id = make_id(buf.index, buf.spans.size());
  s.parent = parent != 0 ? parent : (buf.open.empty() ? 0 : buf.open.back());
  s.start_ns = now_ns();
  s.end_ns = -1;  // open; collect() skips it
  buf.spans.push_back(s);
  buf.open.push_back(s.id);
  return s.id;
}

void recorder::end(std::uint64_t id) {
  const std::int64_t t = now_ns();
  thread_buffer& buf = local();
  buf.spans[id & 0xffff'ffffULL].end_ns = t;
  if (!buf.open.empty() && buf.open.back() == id) {
    buf.open.pop_back();
  }
}

std::vector<span> recorder::collect() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<span> out;
  for (const auto& buf : buffers_) {
    for (const span& s : buf->spans) {
      if (s.end_ns >= s.start_ns) {
        out.push_back(s);
      }
    }
  }
  return out;
}

void recorder::clear() {
  const std::lock_guard<std::mutex> lock{mu_};
  for (const auto& buf : buffers_) {
    buf->spans.clear();
    buf->open.clear();
  }
}

void write_spans(std::FILE* out, const std::string& pass,
                 const std::vector<span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    std::fprintf(out, "%s\t%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%lld\n",
                 pass.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.unit), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
}

}  // namespace perfbench
