// Tests of the benchmark's own helpers: summaries and the tail rule, span
// self time, ablation differencing, and seeded workload construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace qb = qosbench;

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: unsorted on purpose
}

std::string text(const ssq::check::Scenario& s) {
  std::ostringstream out;
  ssq::check::write_scenario(out, s);
  return out.str();
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(qb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(qb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(qb::median({}), 0.0);
}

TEST(Percentile, NearestRank) {
  const qb::Percentile p = qb::percentile(ramp(100), 90.0);
  EXPECT_DOUBLE_EQ(p.value, 90.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(p.n, 100u);
  EXPECT_DOUBLE_EQ(qb::percentile(ramp(10), 50.0).value, 5.0);
  EXPECT_DOUBLE_EQ(qb::percentile(ramp(10), 100.0).value, 10.0);
  EXPECT_DOUBLE_EQ(qb::percentile(ramp(3), 1.0).value, 1.0);
}

TEST(Tail, HighestRungWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  qb::Percentile t = qb::tail(ramp(1000));
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  // 999 samples: p99 would leave 9 beyond, so the tail falls back to p90.
  t = qb::tail(ramp(999));
  EXPECT_DOUBLE_EQ(t.pct, 90.0);
  EXPECT_GE(t.beyond, 10u);
  // 100000 samples reach p99.99.
  EXPECT_DOUBLE_EQ(qb::tail(ramp(100000)).pct, 99.99);
  // 20 samples: only the median has ten beyond it.
  t = qb::tail(ramp(20));
  EXPECT_DOUBLE_EQ(t.pct, 50.0);
  EXPECT_EQ(t.beyond, 10u);
  // Fewer: the median is still returned, with its short count shown.
  t = qb::tail(ramp(7));
  EXPECT_DOUBLE_EQ(t.pct, 50.0);
  EXPECT_LT(t.beyond, 10u);
}

TEST(Tail, OneOutlierCannotSetIt) {
  std::vector<double> v(1000, 1.0);
  v[17] = 1e9;
  EXPECT_DOUBLE_EQ(qb::tail(v).value, 1.0);
}

qb::Span span(std::int32_t parent, std::int64_t a, std::int64_t b) {
  qb::Span s;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<qb::Span> spans = {
      span(-1, 0, 100),  // root
      span(0, 10, 30),   // child
      span(0, 20, 50),   // overlapping child: [10, 50) counts once
      span(0, 90, 120),  // child running past the root: clipped to [90, 100)
      span(1, 12, 14),   // grandchild: only its parent's self time shrinks
  };
  const std::vector<std::int64_t> self = qb::self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 2);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 2);
}

TEST(SpanRecorder, NestsAndSharesIds) {
  qb::SpanRecorder rec(true);
  const int root = rec.open("scenario", 7);
  qb::timed(rec, "generate", 7, [] {});
  qb::timed(rec, "run_scenario", 7, [] {});
  rec.close(root);
  const int next = rec.open("scenario", 8);
  rec.close(next);
  ASSERT_EQ(rec.spans().size(), 4u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  EXPECT_EQ(rec.spans()[3].parent, -1);
  EXPECT_EQ(rec.spans()[2].id, 7u);
  for (const qb::Span& s : rec.spans()) EXPECT_GE(s.duration(), 0);
  const std::vector<std::int64_t> self = qb::self_times(rec.spans());
  EXPECT_LE(self[0], rec.spans()[0].duration());
  EXPECT_GE(self[0], 0);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  qb::SpanRecorder rec(false);
  int calls = 0;
  qb::timed(rec, "run", 1, [&] { ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(rec.spans().empty());
}

TEST(Ablation, LegCostIsTheDifferencePerSteppedCycle) {
  EXPECT_DOUBLE_EQ(qb::leg_ns_per_cycle(300.0, 100.0, 50.0), 4.0);
  // Noise larger than the leg shows as a negative cost, not a clamp.
  EXPECT_DOUBLE_EQ(qb::leg_ns_per_cycle(100.0, 110.0, 10.0), -1.0);
  EXPECT_DOUBLE_EQ(qb::leg_ns_per_cycle(100.0, 50.0, 0.0), 0.0);
}

TEST(Workloads, SeedChangesTheScenarioSetNotItsShape) {
  using qb::Workload;
  int differ = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto a = qb::campaign_scenario(Workload::CampaignDense, i, 1);
    const auto b = qb::campaign_scenario(Workload::CampaignDense, i, 2);
    differ += text(a) != text(b) ? 1 : 0;
    // Same seed, same scenario: the set is a pure function of the seed.
    EXPECT_EQ(text(a),
              text(qb::campaign_scenario(Workload::CampaignDense, i, 1)));
    // The sparse twin is the same draw, derated.
    const auto s = qb::campaign_scenario(Workload::CampaignSparse, i, 1);
    EXPECT_EQ(s.cycles, 8 * a.cycles);
    ASSERT_EQ(s.flows.size(), a.flows.size());
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
      EXPECT_DOUBLE_EQ(s.flows[f].inject_rate, a.flows[f].inject_rate * 0.05);
    }
    EXPECT_EQ(s.has_faults(), a.has_faults());
  }
  EXPECT_GT(differ, 15);

  // The stratified index sets differ by seed but hold the same mix of
  // radix classes and checking depths.
  const auto mix = [](std::uint64_t seed) {
    std::array<int, 8> m{};
    for (const std::uint64_t i : qb::scenario_indices(seed, 200)) {
      const auto s = qb::campaign_scenario(Workload::CampaignDense, i, seed);
      const int c = s.radix <= 3 ? 0 : s.radix <= 16 ? 1 : s.radix <= 32 ? 2 : 3;
      ++m[static_cast<std::size_t>(2 * c) +
          (qb::checking_depth(s).differential ? 1u : 0u)];
    }
    return m;
  };
  EXPECT_NE(qb::scenario_indices(1, 200), qb::scenario_indices(2, 200));
  EXPECT_EQ(qb::scenario_indices(1, 200), qb::scenario_indices(1, 200));
  EXPECT_EQ(qb::scenario_indices(1, 200).size(), 200u);
  EXPECT_EQ(mix(1), (std::array<int, 8>{8, 12, 60, 90, 8, 12, 4, 6}));
  // Half of each (class, depth) stratum draws many flows for its radix.
  int many = 0;
  for (const std::uint64_t i : qb::scenario_indices(3, 200)) {
    const auto s = qb::campaign_scenario(Workload::CampaignDense, i, 3);
    many += 2 * (s.flows.size() - 2) >=
                    std::min<std::size_t>(2 * s.radix, 22)
                ? 1
                : 0;
  }
  EXPECT_EQ(many, 100);
  EXPECT_EQ(mix(1), mix(2));

  // The switch workload takes the seed as its switch seed only.
  auto c1 = qb::hotspot_config(1);
  const auto c2 = qb::hotspot_config(2);
  EXPECT_NE(c1.seed, c2.seed);
  c1.seed = c2.seed;
  EXPECT_EQ(c1.radix, 64u);
  EXPECT_EQ(c1.radix, c2.radix);
  EXPECT_EQ(c1.ssvc.level_bits, c2.ssvc.level_bits);
  EXPECT_EQ(c1.gl_policing, c2.gl_policing);
  const auto w1 = qb::hotspot_workload(1);
  const auto w2 = qb::hotspot_workload(2);
  ASSERT_EQ(w1.num_flows(), 64u);
  ASSERT_EQ(w2.num_flows(), 64u);
  int phases_differ = 0;
  for (ssq::FlowId f = 0; f < w1.num_flows(); ++f) {
    EXPECT_EQ(w1.flow(f).src, w2.flow(f).src);
    EXPECT_EQ(w1.flow(f).dst, w2.flow(f).dst);
    EXPECT_EQ(w1.flow(f).cls, w2.flow(f).cls);
    EXPECT_DOUBLE_EQ(w1.flow(f).inject_rate, w2.flow(f).inject_rate);
    phases_differ += w1.flow(f).start_cycle != w2.flow(f).start_cycle ? 1 : 0;
  }
  EXPECT_GT(phases_differ, 32);

  // The campaign manifest keeps its size and grid across seeds.
  const auto m1 = qb::sharded_manifest(1, 400, 48);
  const auto m2 = qb::sharded_manifest(2, 400, 48);
  EXPECT_NE(m1.base_seed, m2.base_seed);
  EXPECT_EQ(m1.total_units(), m2.total_units());
  EXPECT_EQ(m1.shards, m2.shards);
  ASSERT_EQ(m1.grid.size(), 2u);
  EXPECT_EQ(m1.grid[1].label, "monitor");
  EXPECT_TRUE(m1.grid[1].opts.monitor);
  EXPECT_EQ(m1.base_seed, qb::manifest_seed(1, 400));

  // Its base seed is picked for the mix: the counts of 32- and 64-port and
  // of differentially checked scenarios sit near the generator's odds.
  for (const std::uint64_t seed : {1u, 2u, 202u}) {
    const std::uint64_t base = qb::manifest_seed(seed, 512);
    int r32 = 0, r64 = 0, differential = 0;
    for (std::uint64_t i = 0; i < 512; ++i) {
      const auto s = ssq::check::generate_scenario(i, base);
      r32 += s.radix > 16 && s.radix <= 32 ? 1 : 0;
      r64 += s.radix > 32 ? 1 : 0;
      differential += qb::checking_depth(s).differential ? 1 : 0;
    }
    EXPECT_NEAR(r32, 51.2, 3.56);
    EXPECT_NEAR(r64, 25.6, 3.56);
    EXPECT_NEAR(differential, 307.2, 11.24);
    EXPECT_EQ(base, qb::manifest_seed(seed, 512));
  }
}

TEST(Workloads, CheckingDepthFollowsTheChecker) {
  ssq::check::Scenario s;
  s.radix = 8;
  EXPECT_TRUE(qb::checking_depth(s).differential);
  EXPECT_TRUE(qb::checking_depth(s).circuit);
  s.radix = 64;
  s.ssvc.level_bits = 4;  // 64 * (16 + 2) wires > 1024
  EXPECT_TRUE(qb::checking_depth(s).differential);
  EXPECT_FALSE(qb::checking_depth(s).circuit);
  s.radix = 8;
  s.matching_engine = ssq::arb::MatchKind::Islip;
  EXPECT_FALSE(qb::checking_depth(s).differential);
  s.matching_engine = ssq::arb::MatchKind::None;
  s.faults.bitflip_rate = 1e-3;
  EXPECT_TRUE(s.has_faults());
  EXPECT_FALSE(qb::checking_depth(s).differential);
  EXPECT_FALSE(qb::checking_depth(s).circuit);
}

TEST(Workloads, NamesRoundTrip) {
  for (const char* n : {"campaign_dense", "campaign_sparse",
                        "switch_r64_hotspot", "campaign_sharded"}) {
    const auto w = qb::parse_workload(n);
    ASSERT_TRUE(w.has_value()) << n;
    EXPECT_STREQ(qb::workload_name(*w), n);
  }
  EXPECT_FALSE(qb::parse_workload("nope").has_value());
}

}  // namespace
