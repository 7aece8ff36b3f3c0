// FairScheduler unit suite: the DWRR admission policy in isolation
// (no backend, no documents) — dispatch callbacks are plain lambdas
// recording into vectors, so every policy property is assertable
// synchronously:
//
//   * config validation rejects zero / negative / non-finite / tiny
//     weights with messages that say what to fix;
//   * free slots dispatch immediately (and Enqueue reports it);
//   * per-tenant order is FIFO, and per-tenant caps hold even when
//     global slots are free;
//   * under a contended slot, dispatches interleave proportionally to
//     weight (the tentpole property: 3:1 weights yield a 3:1 dispatch
//     ratio, not FIFO starvation, and not the 1:1 flattening a naive
//     cursor-advance under a tight slot cap would give);
//   * the work-conserving shortcut lets a lone tenant run at full
//     slot speed regardless of its weight.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "service/scheduler.h"

namespace parbox {
namespace {

using service::FairScheduler;
using service::FairSchedulerOptions;
using service::TenantConfig;
using service::ValidateTenantConfig;

TEST(TenantConfigTest, DefaultIsValid) {
  EXPECT_TRUE(ValidateTenantConfig(TenantConfig{}).ok());
}

TEST(TenantConfigTest, RejectsZeroWeight) {
  TenantConfig config;
  config.weight = 0.0;
  const Status status = ValidateTenantConfig(config);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("positive"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("max_in_flight"), std::string::npos)
      << "the error should point at the cap as the throttling knob: "
      << status.ToString();
}

TEST(TenantConfigTest, RejectsNegativeWeight) {
  TenantConfig config;
  config.weight = -2.5;
  EXPECT_FALSE(ValidateTenantConfig(config).ok());
}

TEST(TenantConfigTest, RejectsNonFiniteWeight) {
  TenantConfig config;
  config.weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateTenantConfig(config).ok());
  config.weight = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateTenantConfig(config).ok());
}

TEST(TenantConfigTest, RejectsVanishinglySmallWeight) {
  TenantConfig config;
  config.weight = 1e-9;
  const Status status = ValidateTenantConfig(config);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("1e-6"), std::string::npos)
      << status.ToString();
}

TEST(TenantConfigTest, AddTenantRejectsInvalidConfig) {
  FairScheduler sched;
  TenantConfig config;
  config.weight = 0.0;
  EXPECT_FALSE(sched.AddTenant("t", config).ok());
  EXPECT_EQ(sched.num_tenants(), 0u);
}

TEST(FairSchedulerTest, FreeSlotsDispatchImmediately) {
  FairSchedulerOptions options;
  options.max_in_flight = 2;
  FairScheduler sched(options);
  auto a = sched.AddTenant("a", {});
  ASSERT_TRUE(a.ok());

  int ran = 0;
  EXPECT_TRUE(sched.Enqueue(*a, 1, [&] { ++ran; }));
  EXPECT_TRUE(sched.Enqueue(*a, 1, [&] { ++ran; }));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.total_in_flight(), 2u);

  // Both slots taken: the third queues until a finish frees one.
  EXPECT_FALSE(sched.Enqueue(*a, 1, [&] { ++ran; }));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.Stats(*a).queue_depth, 1u);
  sched.OnUnitFinished(*a);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sched.Stats(*a).queue_depth, 0u);
  EXPECT_EQ(sched.Stats(*a).deferred, 1u);
}

TEST(FairSchedulerTest, PerTenantOrderIsFifo) {
  FairSchedulerOptions options;
  options.max_in_flight = 1;
  FairScheduler sched(options);
  auto a = sched.AddTenant("a", {});
  ASSERT_TRUE(a.ok());

  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.Enqueue(*a, 1, [&order, i] { order.push_back(i); });
  }
  for (int i = 0; i < 5; ++i) sched.OnUnitFinished(*a);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FairSchedulerTest, PerTenantCapHoldsWithFreeGlobalSlots) {
  FairSchedulerOptions options;
  options.max_in_flight = 8;
  FairScheduler sched(options);
  TenantConfig capped;
  capped.max_in_flight = 2;
  auto a = sched.AddTenant("a", capped);
  ASSERT_TRUE(a.ok());

  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    sched.Enqueue(*a, 1, [&] { ++ran; });
  }
  // Global slots are plentiful; the tenant's own cap pins it at 2.
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.Stats(*a).in_flight, 2u);
  EXPECT_EQ(sched.Stats(*a).queue_depth, 3u);
  sched.OnUnitFinished(*a);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sched.Stats(*a).in_flight, 2u);
}

TEST(FairSchedulerTest, ReconfigureRaisingCapPumpsQueue) {
  FairSchedulerOptions options;
  options.max_in_flight = 8;
  FairScheduler sched(options);
  TenantConfig capped;
  capped.max_in_flight = 1;
  auto a = sched.AddTenant("a", capped);
  ASSERT_TRUE(a.ok());

  int ran = 0;
  for (int i = 0; i < 3; ++i) {
    sched.Enqueue(*a, 1, [&] { ++ran; });
  }
  EXPECT_EQ(ran, 1);
  TenantConfig wide;
  wide.max_in_flight = 0;  // uncapped
  ASSERT_TRUE(sched.Reconfigure(*a, wide).ok());
  EXPECT_EQ(ran, 3);
  EXPECT_FALSE(sched.Reconfigure(*a, TenantConfig{.weight = -1.0}).ok());
  EXPECT_FALSE(sched.Reconfigure(99, TenantConfig{}).ok());
}

/// Fill every slot with sentinel units, enqueue `per_tenant` cost-1
/// units for each tenant, then free slots one at a time and record
/// which tenant each freed slot went to.
std::vector<std::string> DrainContended(FairScheduler* sched,
                                        std::vector<FairScheduler::TenantId>
                                            tenants,
                                        size_t per_tenant, size_t drains) {
  std::vector<std::string> order;
  // One sentinel occupies the single slot so everything else queues.
  sched->Enqueue(tenants[0], 1, [] {});
  std::vector<FairScheduler::TenantId> finished;
  for (size_t i = 0; i < per_tenant; ++i) {
    for (FairScheduler::TenantId t : tenants) {
      sched->Enqueue(t, 1, [&order, &finished, sched, t] {
        order.push_back(sched->Stats(t).name);
        finished.push_back(t);
      });
    }
  }
  // The sentinel belongs to tenants[0]; afterwards finish whichever
  // unit the previous pump dispatched.
  FairScheduler::TenantId next = tenants[0];
  for (size_t i = 0; i < drains; ++i) {
    const size_t before = finished.size();
    sched->OnUnitFinished(next);
    if (finished.size() == before) break;  // queues drained
    next = finished.back();
  }
  return order;
}

TEST(FairSchedulerTest, WeightsShapeDispatchRatioUnderContention) {
  FairSchedulerOptions options;
  options.max_in_flight = 1;
  FairScheduler sched(options);
  auto heavy = sched.AddTenant("heavy", TenantConfig{.weight = 3.0});
  auto light = sched.AddTenant("light", TenantConfig{.weight = 1.0});
  ASSERT_TRUE(heavy.ok() && light.ok());

  const std::vector<std::string> order =
      DrainContended(&sched, {*heavy, *light}, /*per_tenant=*/24,
                     /*drains=*/24);
  ASSERT_EQ(order.size(), 24u);
  const size_t heavy_count = static_cast<size_t>(
      std::count(order.begin(), order.end(), "heavy"));
  // 3:1 weights over 24 contended dispatches: heavy gets 18, light 6.
  // Allow one rotation of slack for the startup transient.
  EXPECT_NEAR(static_cast<double>(heavy_count), 18.0, 3.0)
      << "dispatch order was not ~3:1";
  // Both made progress — weighted sharing, not starvation.
  EXPECT_GT(heavy_count, 0u);
  EXPECT_LT(heavy_count, 24u);
}

TEST(FairSchedulerTest, EqualWeightsAlternate) {
  FairSchedulerOptions options;
  options.max_in_flight = 1;
  FairScheduler sched(options);
  auto a = sched.AddTenant("a", {});
  auto b = sched.AddTenant("b", {});
  ASSERT_TRUE(a.ok() && b.ok());

  const std::vector<std::string> order =
      DrainContended(&sched, {*a, *b}, /*per_tenant=*/8, /*drains=*/16);
  ASSERT_EQ(order.size(), 16u);
  EXPECT_EQ(std::count(order.begin(), order.end(), "a"), 8);
  EXPECT_EQ(std::count(order.begin(), order.end(), "b"), 8);
}

TEST(FairSchedulerTest, CostWeighsAgainstDeficit) {
  // Two equal-weight tenants; one submits cost-4 units, the other
  // cost-1: the cheap tenant should dispatch ~4x as many units.
  FairSchedulerOptions options;
  options.max_in_flight = 1;
  FairScheduler sched(options);
  auto wide = sched.AddTenant("wide", {});
  auto narrow = sched.AddTenant("narrow", {});
  ASSERT_TRUE(wide.ok() && narrow.ok());

  std::vector<std::string> order;
  std::vector<FairScheduler::TenantId> finished;
  sched.Enqueue(*wide, 1, [] {});  // sentinel holds the slot
  for (int i = 0; i < 20; ++i) {
    sched.Enqueue(*wide, 4, [&, t = *wide] {
      order.push_back("wide");
      finished.push_back(t);
    });
    sched.Enqueue(*narrow, 1, [&, t = *narrow] {
      order.push_back("narrow");
      finished.push_back(t);
    });
  }
  FairScheduler::TenantId next = *wide;
  for (int i = 0; i < 20; ++i) {
    const size_t before = finished.size();
    sched.OnUnitFinished(next);
    if (finished.size() == before) break;
    next = finished.back();
  }
  ASSERT_EQ(order.size(), 20u);
  const auto narrow_count =
      std::count(order.begin(), order.end(), "narrow");
  EXPECT_NEAR(static_cast<double>(narrow_count), 16.0, 3.0)
      << "cost-1 units should dispatch ~4x as often as cost-4";
}

TEST(FairSchedulerTest, LoneTenantRunsAtSlotSpeed) {
  // Work-conserving: with no competition, a tiny weight must not slow
  // the only queue down — every freed slot dispatches immediately.
  FairSchedulerOptions options;
  options.max_in_flight = 1;
  FairScheduler sched(options);
  auto a = sched.AddTenant("a", TenantConfig{.weight = 1e-6});
  ASSERT_TRUE(a.ok());

  int ran = 0;
  for (int i = 0; i < 10; ++i) {
    sched.Enqueue(*a, 64, [&] { ++ran; });
  }
  EXPECT_EQ(ran, 1);
  for (int i = 0; i < 9; ++i) sched.OnUnitFinished(*a);
  EXPECT_EQ(ran, 10);
}

TEST(FairSchedulerTest, StatsTrackQueueAndPeaks) {
  FairSchedulerOptions options;
  options.max_in_flight = 1;
  FairScheduler sched(options);
  auto a = sched.AddTenant("a", {});
  ASSERT_TRUE(a.ok());

  for (int i = 0; i < 4; ++i) sched.Enqueue(*a, 1, [] {});
  auto stats = sched.Stats(*a);
  EXPECT_EQ(stats.name, "a");
  EXPECT_EQ(stats.enqueued, 4u);
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_EQ(stats.deferred, 3u);
  EXPECT_EQ(stats.queue_depth, 3u);
  EXPECT_EQ(stats.peak_queue_depth, 3u);
  EXPECT_EQ(stats.in_flight, 1u);
  for (int i = 0; i < 4; ++i) sched.OnUnitFinished(*a);
  stats = sched.Stats(*a);
  EXPECT_EQ(stats.dispatched, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 3u);
  EXPECT_EQ(sched.total_in_flight(), 0u);
}

TEST(FairSchedulerTest, UnknownTenantDegradesToImmediateDispatch) {
  FairScheduler sched;
  int ran = 0;
  EXPECT_TRUE(sched.Enqueue(42, 1, [&] { ++ran; }));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.total_in_flight(), 0u);
  sched.OnUnitFinished(42);  // must not underflow or crash
}

}  // namespace
}  // namespace parbox
