// Unit tests of the benchmark's statistics and span accounting.
// Build and run: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// Reference values below come from Python 3.11:
//   statistics.median(v), statistics.quantiles(v, n=4)

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Median, EmptyThrows) {
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Quartiles, MatchPythonExclusiveRule) {
  // quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) {
    v.push_back(i);
  }
  const quartiles q = quartiles_of(v);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.relative_spread(), 5.5 / 5.5);
}

TEST(Quartiles, TinySamplesExtrapolateLikePython) {
  // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const quartiles q = quartiles_of({2.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  // quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const quartiles r = quartiles_of({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(r.q1, 1.0);
  EXPECT_DOUBLE_EQ(r.median, 2.0);
  EXPECT_DOUBLE_EQ(r.q3, 3.0);
}

TEST(Quartiles, RelativeSpreadOfZeroMedianIsZero) {
  EXPECT_DOUBLE_EQ(quartiles_of({0.0, 0.0, 0.0}).relative_spread(), 0.0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.90), 10u);

  EXPECT_EQ(highest_supported_percentile(10000), 0.999);
  EXPECT_EQ(highest_supported_percentile(1000), 0.99);
  EXPECT_EQ(highest_supported_percentile(999), 0.95);
  EXPECT_EQ(highest_supported_percentile(100), 0.90);
  EXPECT_EQ(highest_supported_percentile(40), 0.75);
  EXPECT_EQ(highest_supported_percentile(20), 0.50);
  EXPECT_FALSE(highest_supported_percentile(19).has_value());

  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) {
    v.push_back(i);
  }
  EXPECT_FALSE(supported_quantile(v, 0.99).has_value());
  v.push_back(1000);
  // position 0.99 * 1001 = 990.99 → 990 + 0.99 * (991 - 990)
  ASSERT_TRUE(supported_quantile(v, 0.99).has_value());
  EXPECT_NEAR(*supported_quantile(v, 0.99), 990.99, 1e-9);
}

span make(std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end) {
  span s;
  s.name = "s";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, NestedChildrenCountOnceAtEachLevel) {
  // root [0,100) > child [10,60) > grandchild [20,30)
  const std::vector<span> spans = {make(1, 0, 0, 100), make(2, 1, 10, 60),
                                   make(3, 2, 20, 30)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50);  // only the child's 50 ns is subtracted
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, OverlappingChildrenSubtractTheirUnion) {
  // Two children on different threads: [10,50) and [30,70) cover
  // [10,70) = 60 ns of the root, not 80.
  const std::vector<span> spans = {make(1, 0, 0, 100), make(2, 1, 10, 50),
                                   make(3, 1, 30, 70), make(4, 1, 35, 40)};
  EXPECT_EQ(self_times(spans)[0], 40);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // A worker span that outlives its parent's window only covers the
  // part inside it.
  const std::vector<span> spans = {make(1, 0, 100, 200), make(2, 1, 50, 120),
                                   make(3, 1, 190, 260)};
  EXPECT_EQ(self_times(spans)[0], 100 - 20 - 10);
}

TEST(SelfTime, DisjointChildrenAndUnknownParents) {
  const std::vector<span> spans = {make(1, 0, 0, 100), make(2, 1, 0, 10),
                                   make(3, 1, 90, 100), make(4, 99, 0, 5)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 80);
  EXPECT_EQ(self[3], 5);  // parent not recorded: a root
}

TEST(Recorder, ScopesNestAndCrossThreadParentsResolve) {
  recorder& rec = recorder::global();
  rec.clear();
  rec.set_enabled(true);
  {
    const scope root{"root", 7};
    { const scope child{"child", 7}; }
    const std::uint64_t root_id = root.id();
    std::thread worker([root_id] { const scope w{"worker", 8, root_id}; });
    worker.join();
  }
  rec.set_enabled(false);
  { const scope off{"ignored"}; }
  const std::vector<span> spans = rec.collect();
  rec.clear();
  ASSERT_EQ(spans.size(), 3u);
  std::uint64_t root_id = 0;
  for (const span& s : spans) {
    if (std::string(s.name) == "root") {
      root_id = s.id;
      EXPECT_EQ(s.parent, 0u);
      EXPECT_EQ(s.unit, 7u);
    }
  }
  ASSERT_NE(root_id, 0u);
  for (const span& s : spans) {
    if (std::string(s.name) != "root") {
      EXPECT_EQ(s.parent, root_id) << s.name;
      EXPECT_GE(s.end_ns, s.start_ns);
    }
  }
  const auto summary = summarize(spans);
  EXPECT_EQ(summary.at("child").calls, 1u);
  EXPECT_EQ(summary.at("worker").calls, 1u);
  EXPECT_EQ(summary.count("ignored"), 0u);
}

}  // namespace
}  // namespace perfbench
