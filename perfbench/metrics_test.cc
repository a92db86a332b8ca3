// Unit tests of the benchmark's metric code on synthetic inputs.
#include "metrics.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

using fastreg::obs::timeline_event;

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  // p99 of 999 samples is rank 990: only 9 samples lie beyond it.
  EXPECT_FALSE(percentile(v, 99).has_value());
  v.push_back(1000);
  ASSERT_TRUE(percentile(v, 99).has_value());
  EXPECT_EQ(*percentile(v, 99), 990);
  EXPECT_EQ(*percentile(v, 50), 500);

  std::vector<double> few{3, 1, 2};
  EXPECT_FALSE(percentile(few, 50).has_value());
  std::vector<double> twenty(20, 7.0);
  EXPECT_EQ(*percentile(twenty, 50), 7.0);
  std::vector<double> empty;
  EXPECT_FALSE(percentile(empty, 50).has_value());
}

TEST(Quantile, InterpolatesBetweenRanks) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_DOUBLE_EQ(quantile(even, 0.25), 1.75);
  std::vector<double> one{7};
  EXPECT_DOUBLE_EQ(quantile(one, 0.25), 7.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(median(empty), 0.0);
}

TEST(BetterQuartile, IgnoresUnitsTheHostSlowed) {
  // Ten segments, four of them disturbed: latencies up, rates down.
  std::vector<double> lat{100, 101, 99, 400, 100, 900, 102, 98, 350, 600};
  EXPECT_LT(better_quartile(lat, /*higher_is_better=*/false), 101.0);
  std::vector<double> rate{8000, 8100, 7900, 2000, 8050, 1500, 7950, 8020,
                           3000, 2500};
  EXPECT_GT(better_quartile(rate, /*higher_is_better=*/true), 7900.0);
}

op_sample op(std::string client, std::uint64_t obj, bool is_put,
             std::uint64_t t0, std::optional<std::uint64_t> t1,
             int rounds = 1) {
  return op_sample{std::move(client), obj, is_put, t0, t1, rounds};
}

TEST(Summarize, ExcludesOpsInvokedBeforeTheWindow) {
  const std::vector<op_sample> ops = {
      op("r1", 1, false, 500, 90'000),    // seeding/warm-up: before start
      op("r1", 1, false, 999, 1'500),     // invoked just before start
      op("r1", 1, false, 1'000, 3'000),   // first measured op
      op("w", 2, true, 2'000, 6'000, 1),
      op("r2", 1, false, 9'000, 10'000),  // invoked at end: excluded
  };
  const auto w = summarize(ops, 1'000, 9'000, 0);
  ASSERT_EQ(w.get_us.size(), 1u);
  EXPECT_DOUBLE_EQ(w.get_us[0], 2.0);
  ASSERT_EQ(w.put_us.size(), 1u);
  EXPECT_DOUBLE_EQ(w.put_us[0], 4.0);
  EXPECT_EQ(w.attempted, 2u);
  EXPECT_EQ(w.failed, 0u);
}

TEST(Summarize, CountsIncompleteAndRefusedOpsAsFailed) {
  const std::vector<op_sample> ops = {
      op("r1", 1, false, 100, 200, 1), op("r1", 2, false, 300, std::nullopt),
      op("w", 3, true, 400, 900, 2),   op("w", 4, true, 500, std::nullopt),
      op("r2", 5, false, 50, std::nullopt),  // before the window: ignored
  };
  const auto w = summarize(ops, 100, 1'000, /*submit_failures=*/3);
  EXPECT_EQ(w.attempted, 4u + 3u);
  EXPECT_EQ(w.failed, 2u + 3u);
  EXPECT_EQ(w.completed(), 2u);
  EXPECT_DOUBLE_EQ(w.completed_share(), 2.0 / 7.0);
  EXPECT_DOUBLE_EQ(w.get_rounds_mean, 1.0);
  EXPECT_DOUBLE_EQ(w.put_rounds_mean, 2.0);
  EXPECT_DOUBLE_EQ(summarize({}, 0, 10, 0).completed_share(), 1.0);

  // Pooling segments keeps counts and weights the round means by ops.
  auto pooled = w;
  pooled.absorb(summarize({op("r1", 1, false, 0, 10, 2),
                           op("r1", 1, false, 20, 30, 2)},
                          0, 100, 1));
  EXPECT_EQ(pooled.attempted, 7u + 3u);
  EXPECT_EQ(pooled.failed, 5u + 1u);
  EXPECT_EQ(pooled.get_us.size(), 3u);
  EXPECT_DOUBLE_EQ(pooled.get_rounds_mean, 5.0 / 3.0);
}

TEST(CoveredNs, CountsOverlapOnceAndClipsToTheOp) {
  EXPECT_EQ(covered_ns({{10, 20}, {15, 30}, {40, 50}}, 0, 100), 30u);
  EXPECT_EQ(covered_ns({{10, 20}}, 12, 18), 6u);
  EXPECT_EQ(covered_ns({{40, 50}, {10, 20}}, 0, 45), 15u);
  EXPECT_EQ(covered_ns({}, 0, 100), 0u);
}

timeline_event ev(std::string node, std::uint64_t t, std::uint64_t trace,
                  std::string kind, std::string type, std::string peer,
                  std::uint32_t span = 0) {
  timeline_event e;
  e.node = std::move(node);
  e.t = t;
  e.trace = trace;
  e.span = span;
  e.ev = std::move(kind);
  e.type = std::move(type);
  e.peer = std::move(peer);
  e.obj = 9;
  return e;
}

/// One round of `trace` from client r1 to servers s1..s3 starting at
/// `t`: server i answers after `srv[i]` ns, wire legs take 10 ns each.
void add_round(std::vector<timeline_event>& out, std::uint64_t trace,
               std::uint64_t t, const std::string& req,
               const std::vector<std::uint64_t>& srv) {
  for (std::size_t i = 0; i < srv.size(); ++i) {
    const std::string s = "s" + std::to_string(i + 1);
    out.push_back(ev("r1", t, trace, "send", req, s));
    out.push_back(ev(s, t + 10, trace, "recv", req, "r1"));
    out.push_back(ev(s, t + 10, trace, "serve", req, "r1"));
    out.push_back(ev(s, t + 10 + srv[i], trace, "send", req + "ACK", "r1"));
    out.push_back(ev("r1", t + 20 + srv[i], trace, "recv", req + "ACK", s));
  }
}

TEST(Ledger, TakesTheQuorumthReplyAsTheCriticalPath) {
  std::vector<timeline_event> evs;
  add_round(evs, 7, 1'000, "QUERY", {50, 10, 30});
  add_round(evs, 7, 2'000, "WB", {20, 40, 60});
  const std::vector<op_sample> ops = {op("r1", 9, false, 990, 3'000, 2)};
  const auto led = build_ledger(evs, ops, /*quorum=*/2);
  ASSERT_EQ(led.ops_used, 1u);
  ASSERT_EQ(led.server_us.size(), 2u);
  // Round 1 replies land at +30, +50, +70: the 2nd came from s3 (30 ns).
  // Round 2 at +40, +60, +80: the 2nd came from s2 (40 ns).
  std::vector<double> srv = led.server_us;
  std::sort(srv.begin(), srv.end());
  EXPECT_DOUBLE_EQ(srv[0], 0.030);
  EXPECT_DOUBLE_EQ(srv[1], 0.040);
  EXPECT_DOUBLE_EQ(led.c2s_us[0], 0.010);
  EXPECT_DOUBLE_EQ(led.s2c_us[0], 0.010);
  // 2010 ns of latency, of which 50 + 60 ns lie on critical paths.
  ASSERT_EQ(led.residual_us.size(), 1u);
  EXPECT_DOUBLE_EQ(led.residual_us[0], (2'010.0 - 110.0) / 1e3);
}

TEST(Ledger, ResidualIsNeverNegative) {
  // Critical paths that overlap each other and spill past the op's own
  // stamps must not be counted twice or outside the op.
  std::vector<timeline_event> evs;
  add_round(evs, 1, 100, "QUERY", {500, 500, 500});
  add_round(evs, 1, 200, "WRITE", {500, 500, 500});
  const std::vector<op_sample> ops = {op("r1", 9, true, 100, 600, 2)};
  const auto led = build_ledger(evs, ops, 2);
  ASSERT_EQ(led.ops_used, 1u);
  for (const double r : led.residual_us) EXPECT_GE(r, 0.0);
  EXPECT_DOUBLE_EQ(led.residual_us[0], 0.0);
}

TEST(Ledger, SkipsTracesWithLostEventsOrNoOp) {
  std::vector<timeline_event> evs;
  add_round(evs, 1, 1'000, "READ", {10, 10, 10});
  // Trace 2 lost its server events to ring wrap.
  add_round(evs, 2, 5'000, "READ", {10, 10, 10});
  std::erase_if(evs, [](const timeline_event& e) {
    return e.trace == 2 && e.node != "r1";
  });
  // Trace 3 matches no op in the log.
  add_round(evs, 3, 50'000, "READ", {10, 10, 10});
  const std::vector<op_sample> ops = {op("r1", 9, false, 1'000, 1'100),
                                      op("r1", 9, false, 5'000, 5'100)};
  const auto led = build_ledger(evs, ops, 2);
  EXPECT_EQ(led.ops_used, 1u);
  EXPECT_EQ(led.ops_skipped, 2u);
}

TEST(Ledger, SkipsOpsWhoseRoundCountDiffers) {
  // The op log says two rounds, but the rings only kept the second.
  std::vector<timeline_event> evs;
  add_round(evs, 4, 2'000, "WB", {10, 10, 10});
  const std::vector<op_sample> ops = {op("r1", 9, false, 1'000, 2'100, 2)};
  const auto led = build_ledger(evs, ops, 2);
  EXPECT_EQ(led.ops_used, 0u);
  EXPECT_EQ(led.ops_skipped, 1u);
}

}  // namespace
}  // namespace perfbench
