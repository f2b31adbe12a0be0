// Unit tests of the benchmark's own helpers: exact percentiles and the
// tail-reporting rule, and the oracles the workloads check answers with.

#include <gtest/gtest.h>

#include <set>

#include "oracle.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(QuantileTest, InterpolatesBetweenClosestRanks) {
  // Python: statistics.quantiles(range(1, 11), n=4, method="inclusive")
  // == [3.25, 5.5, 7.75].
  const std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 3.25);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.75), 7.75);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 10);
  EXPECT_DOUBLE_EQ(Quantile({4.5}, 0.9), 4.5);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(QuantileTest, ExactValuesNotBucketEdges) {
  // A log-bucketed histogram would report a bucket bound near 0.32768;
  // the exact helper returns the samples' own order statistics.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(0.300 + 0.0001 * i);
  EXPECT_NEAR(Quantile(v, 0.5), 0.30495, 1e-12);
}

TEST(TailRuleTest, NinetiethPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(90, 0.9), 9u);
  EXPECT_EQ(SamplesBeyond(0, 0.9), 0u);

  std::vector<double> v(99, 1.0);
  EXPECT_TRUE(ReportablePercentile(v, 0.9).has_value());
  v.resize(90);
  EXPECT_FALSE(ReportablePercentile(v, 0.9).has_value());
  // The median is reported from a single sample; nothing from none.
  EXPECT_TRUE(ReportablePercentile({2.0}, 0.5).has_value());
  EXPECT_FALSE(ReportablePercentile({}, 0.5).has_value());
}

TEST(WiscRelationTest, Unique2IsAPermutation) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const WiscRelation rel("r", 20000, seed);
    std::set<int64_t> seen;
    for (int64_t i = 0; i < rel.rows; ++i) seen.insert(rel.Unique2(i));
    EXPECT_EQ(seen.size(), 20000u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 19999);
  }
  EXPECT_NE(WiscRelation::StringU1(0), WiscRelation::StringU1(1));
  EXPECT_EQ(WiscRelation::StringU1(27), "saaaaabb");
}

TEST(DigraphTest, ReachIsTransitiveAndFollowsRemovals) {
  Digraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);  // cycle back to the source
  g.AddEdge(4, 5);
  EXPECT_EQ(g.Reach(1), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(g.Reach(5), std::vector<int64_t>{});
  g.RemoveEdge(2, 3);
  EXPECT_EQ(g.Reach(1), (std::vector<int64_t>{2}));
  EXPECT_EQ(g.edges(), 3u);
}

TEST(MvvOracleTest, ParsesScheduleRowsAndEvaluatesRoutes) {
  const std::string facts =
      "location2(stop1, zone1).\n"
      "schedule3(b1, 1, stop1, stop2, 480, 483, bus, p0, weekdays, zone1, "
      "150).\n"
      "schedule3(b1, 1, stop2, stop3, 490, 495, bus, p1, weekdays, zone2, "
      "160).\n"
      "schedule3(b1, 2, stop1, stop2, 800, 805, bus, p0, weekdays, zone1, "
      "150).\n"
      "schedule3(t2, 3, stop2, stop3, 900, 904, tram, p0, weekdays, zone2, "
      "150).\n";
  const std::vector<Segment> segments = ParseSchedule3(facts);
  ASSERT_EQ(segments.size(), 4u);
  EXPECT_EQ(segments[1].from, "stop2");
  EXPECT_EQ(segments[1].arr, 495);
  const MvvOracle oracle(segments);

  // Departures in [T0, T0 + 240] only.
  EXPECT_EQ(oracle.Route1("stop1", "stop2", 470),
            std::vector<std::string>{"[leg(b1,stop1,stop2,480,483)]"});
  EXPECT_EQ(oracle.Route1("stop1", "stop2", 481),
            std::vector<std::string>{});
  EXPECT_EQ(oracle.Route1("stop1", "stop2", 600),
            std::vector<std::string>{"[leg(b1,stop1,stop2,800,805)]"});

  // The second leg departs within 240 minutes of the first's arrival:
  // 805 -> 900 qualifies, 483 -> 900 does not, 483 -> 490 does.
  EXPECT_EQ(oracle.Route2("stop1", "stop3", 470),
            std::vector<std::string>{
                "[leg(b1,stop1,stop2,480,483),leg(b1,stop2,stop3,490,495)]"});
  EXPECT_EQ(oracle.Route2("stop1", "stop3", 700),
            std::vector<std::string>{
                "[leg(b1,stop1,stop2,800,805),leg(t2,stop2,stop3,900,904)]"});
  // No change at the destination itself.
  EXPECT_EQ(oracle.Route2("stop1", "stop2", 470), std::vector<std::string>{});
}

}  // namespace
}  // namespace perfbench
