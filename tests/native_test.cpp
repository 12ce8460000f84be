#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "native/fences.h"

namespace wmm::native {
namespace {

TEST(NativeFences, AllKindsProducePositiveTimes) {
  for (HostFence f : all_host_fences()) {
    EXPECT_GT(time_host_fence_ns(f, 20000), 0.0) << host_fence_name(f);
    EXPECT_STRNE(host_fence_name(f), "?");
  }
}

TEST(NativeFences, SeqCstStoreCostsMoreThanRelaxedOnTso) {
  // On x86 a seq_cst store lowers to xchg/mfence while relaxed and
  // acquire/release stores are plain mov: the full fence must be measurably
  // slower per operation.
  const double relaxed = measure_host_fence(HostFence::None, 6, 200000).geomean;
  const double seq_cst =
      measure_host_fence(HostFence::SeqCstStore, 6, 200000).geomean;
  EXPECT_GT(seq_cst, relaxed * 1.5);
}

TEST(NativeFences, AcquireReleaseNearlyFreeOnTso) {
  const double relaxed = measure_host_fence(HostFence::None, 6, 200000).geomean;
  const double acqrel =
      measure_host_fence(HostFence::AcquireRelease, 6, 200000).geomean;
  EXPECT_LT(acqrel, relaxed * 2.0 + 1.0);
}

TEST(NativeFences, SummaryHasPaperStatistics) {
  const core::SampleSummary s = measure_host_fence(HostFence::None, 6, 50000);
  EXPECT_EQ(s.n, 6u);
  EXPECT_GT(s.geomean, 0.0);
  EXPECT_GE(s.max, s.min);
  EXPECT_GE(s.ci95, 0.0);
}

TEST(NativeCostLoop, GrowsWithIterations) {
  // One timing of each can be preempted on a busy host; the minimum over
  // interleaved repeats is the least-disturbed run of each loop length.
  double t16 = std::numeric_limits<double>::infinity();
  double t1024 = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    t16 = std::min(t16, time_host_cost_loop_ns(16, 20000));
    t1024 = std::min(t1024, time_host_cost_loop_ns(1024, 2000));
  }
  EXPECT_GT(t1024, t16 * 8.0);
}

// The full statistics pipeline applied to host-fence samples: summaries,
// relative performance with propagated confidence intervals, percentiles.
// Timings are nondeterministic, so these check structural invariants rather
// than values.
TEST(NativeStatsPipeline, SummaryInvariantsHoldForEveryFence) {
  for (HostFence f : all_host_fences()) {
    const core::SampleSummary s = measure_host_fence(f, 6, 50000);
    ASSERT_EQ(s.n, 6u) << host_fence_name(f);
    EXPECT_GT(s.min, 0.0) << host_fence_name(f);
    EXPECT_LE(s.min, s.geomean) << host_fence_name(f);
    EXPECT_LE(s.geomean, s.max) << host_fence_name(f);
    // AM-GM: the geometric mean never exceeds the arithmetic mean.
    EXPECT_LE(s.geomean, s.mean * (1.0 + 1e-12)) << host_fence_name(f);
    EXPECT_GE(s.stddev, 0.0) << host_fence_name(f);
    EXPECT_GE(s.ci95, 0.0) << host_fence_name(f);
    EXPECT_LE(s.ci_lo(), s.mean) << host_fence_name(f);
    EXPECT_GE(s.ci_hi(), s.mean) << host_fence_name(f);
  }
}

TEST(NativeStatsPipeline, RelativePerformanceOfFenceVsBaseline) {
  const core::SampleSummary base = measure_host_fence(HostFence::None, 6, 100000);
  const core::SampleSummary fence =
      measure_host_fence(HostFence::ThreadFenceSeqCst, 6, 100000);
  const core::Comparison rel = core::relative_performance(base, fence);
  // A full fence cannot beat the empty baseline: relative performance < 1,
  // with a sane interval around it.
  EXPECT_GT(rel.value, 0.0);
  EXPECT_LT(rel.value, 1.0);
  EXPECT_LE(rel.min, rel.value);
  EXPECT_GE(rel.max, rel.value);
  EXPECT_GE(rel.ci95, 0.0);
  // Identical summaries compare as exactly no change.
  const core::Comparison same = core::relative_performance(base, base);
  EXPECT_DOUBLE_EQ(same.value, 1.0);
  EXPECT_FALSE(same.significant());
}

TEST(NativeStatsPipeline, PercentilesOrderedOnRawFenceSamples) {
  std::vector<double> samples;
  for (int i = 0; i < 12; ++i) {
    samples.push_back(time_host_fence_ns(HostFence::None, 20000));
  }
  const double p50 = core::percentile(samples, 50.0);
  const double p90 = core::percentile(samples, 90.0);
  const double p99 = core::percentile(samples, 99.0);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  const core::SampleSummary s = core::summarize(samples);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
}

}  // namespace
}  // namespace wmm::native
