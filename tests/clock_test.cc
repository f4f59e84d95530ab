#include "common/clock.h"

#include <gtest/gtest.h>

#include <thread>

namespace sdci {
namespace {

TEST(TimeAuthority, NowAdvancesMonotonically) {
  TimeAuthority authority(100.0);
  const VirtualTime a = authority.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const VirtualTime b = authority.Now();
  EXPECT_GT(b, a);
}

// Real time scaled by `dilation`, as virtual time, with 1 us of slack for
// the nanosecond truncations on both sides.
VirtualDuration Scaled(std::chrono::nanoseconds real, double dilation) {
  return VirtualDuration(static_cast<int64_t>(static_cast<double>(real.count()) * dilation));
}
constexpr VirtualDuration kRounding = Micros(1);

TEST(TimeAuthority, DilationScalesVirtualTime) {
  constexpr double kDilation = 50.0;
  TimeAuthority authority(kDilation);
  const auto outer_start = std::chrono::steady_clock::now();
  const VirtualTime before = authority.Now();
  const auto inner_start = std::chrono::steady_clock::now();
  authority.SleepFor(Millis(100));  // 100 virtual ms = 2 real ms
  const auto inner_end = std::chrono::steady_clock::now();
  const VirtualTime after = authority.Now();
  const auto outer_end = std::chrono::steady_clock::now();
  const auto elapsed = after - before;
  EXPECT_GE(elapsed, Millis(95));
  // The virtual interval is the real one times the dilation, however long
  // the host took: it lies between the real intervals measured just
  // inside and just outside it, each scaled.
  EXPECT_GE(elapsed, Scaled(inner_end - inner_start, kDilation) - kRounding);
  EXPECT_LE(elapsed, Scaled(outer_end - outer_start, kDilation) + kRounding);
}

TEST(TimeAuthority, ToRealInvertsDilation) {
  TimeAuthority authority(10.0);
  EXPECT_EQ(authority.ToReal(Millis(100)), std::chrono::milliseconds(10));
}

TEST(TimeAuthority, SleepUntilPastIsInstant) {
  TimeAuthority authority(100.0);
  const auto start = std::chrono::steady_clock::now();
  authority.SleepUntil(VirtualTime::zero());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(5));
}

TEST(DelayBudget, AccumulatesTotalCharged) {
  TimeAuthority authority(1000.0);
  DelayBudget budget(authority);
  budget.Charge(Millis(10));
  budget.Charge(Millis(5));
  EXPECT_EQ(budget.TotalCharged(), Millis(15));
}

TEST(DelayBudget, FlushPaysDebtInVirtualTime) {
  TimeAuthority authority(100.0);
  DelayBudget budget(authority);
  const VirtualTime before = authority.Now();
  budget.Charge(Millis(200));  // 2ms real at 100x
  budget.Flush();
  const auto elapsed = authority.Now() - before;
  EXPECT_GE(elapsed, Millis(180));
}

TEST(DelayBudget, PacedLoopMatchesModeledRate) {
  TimeAuthority authority(200.0);
  DelayBudget budget(authority);
  const VirtualTime start = authority.Now();
  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    budget.Charge(Millis(1));  // 1 virtual ms per op
  }
  budget.Flush();
  const double elapsed_s = ToSecondsF(authority.Now() - start);
  const double rate = kOps / elapsed_s;
  // Modeled rate is 1000 ops/virtual-second. The tolerance is generous
  // because CI boxes run this suite alongside compile jobs; the tight
  // calibration claims are validated by bench_table2 instead.
  EXPECT_GT(rate, 800.0);
  EXPECT_LT(rate, 1200.0);
}

TEST(DelayBudget, NettingCoversRealWork) {
  // Each op burns real CPU worth half its modeled cost, then charges the
  // model. Netting deducts the CPU already spent, so the budget sleeps
  // only the other half: the ops take the model, not model + work.
  constexpr double kDilation = 10.0;
  constexpr int kOps = 100;
  constexpr auto kWorkPerOp = std::chrono::microseconds(300);  // real CPU
  const VirtualDuration model_per_op = Scaled(2 * kWorkPerOp, kDilation);
  const VirtualDuration model = model_per_op * kOps;
  TimeAuthority authority(kDilation);
  DelayBudget budget(authority);
  const auto real_start = std::chrono::steady_clock::now();
  const VirtualTime start = authority.Now();
  std::chrono::nanoseconds work_wall{0};
  for (int i = 0; i < kOps; ++i) {
    const auto work_start = std::chrono::steady_clock::now();
    const auto cpu_target = ThreadCpuNow() + kWorkPerOp;
    while (ThreadCpuNow() < cpu_target) {
    }
    work_wall += std::chrono::steady_clock::now() - work_start;
    budget.Charge(model_per_op);
  }
  budget.Flush();
  const VirtualDuration elapsed = authority.Now() - start;
  const auto slept = std::chrono::steady_clock::now() - real_start - work_wall;
  // The budget never sleeps less than the model minus the CPU it netted,
  // so the run as a whole takes at least the model.
  EXPECT_GE(elapsed, model - kRounding);
  // Without netting the budget would sleep the whole model on top of the
  // work. With it, the real time outside the work loops, scaled, stays
  // under the model (about half of it, plus any oversleep).
  EXPECT_LT(Scaled(slept, kDilation), model) << "netting deducted none of the work";
}

TEST(FormatClockTime, HhMmSsFraction) {
  const VirtualTime t = std::chrono::hours(20) + std::chrono::minutes(15) +
                        std::chrono::seconds(37) + std::chrono::microseconds(113800);
  EXPECT_EQ(FormatClockTime(t), "20:15:37.1138");
  EXPECT_EQ(FormatClockTime(VirtualTime::zero()), "00:00:00.0000");
}

TEST(FormatDuration, PicksUnits) {
  EXPECT_EQ(FormatDuration(VirtualDuration(500)), "500 ns");
  EXPECT_EQ(FormatDuration(Micros(1500)), "1.50 ms");
  EXPECT_EQ(FormatDuration(Seconds(2.5)), "2.50 s");
}

TEST(ConversionHelpers, MicrosMillisSeconds) {
  EXPECT_EQ(Micros(1000), Millis(1));
  EXPECT_EQ(Seconds(0.001), Millis(1));
  EXPECT_DOUBLE_EQ(ToSecondsF(Millis(1500)), 1.5);
}

}  // namespace
}  // namespace sdci
