#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "boolexpr/expr.h"
#include "exec/sim_backend.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/traffic.h"

namespace parbox::sim {
namespace {

using exec::Parcel;

/// The simulated cluster: a sim backend with one namespace of
/// `num_sites` sites.
std::unique_ptr<exec::SimBackend> MakeCluster(
    int num_sites, const NetworkParams& params = {}) {
  static bexpr::ExprFactory factory;
  auto cluster = std::make_unique<exec::SimBackend>(params);
  EXPECT_TRUE(cluster->AddNamespace(num_sites, 0, &factory).ok());
  return cluster;
}

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.At(2.0, [&] { order.push_back(2); });
  loop.At(1.0, [&] { order.push_back(1); });
  loop.At(3.0, [&] { order.push_back(3); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 3.0);
  EXPECT_EQ(loop.events_run(), 3u);
}

TEST(EventLoopTest, TiesBreakByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.At(1.0, [&, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ReentrantScheduling) {
  EventLoop loop;
  std::vector<double> times;
  loop.At(1.0, [&] {
    times.push_back(loop.now());
    loop.After(0.5, [&] { times.push_back(loop.now()); });
  });
  loop.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(ClusterTest, ComputeChargesDuration) {
  NetworkParams params;
  params.site_ops_per_second = 1000.0;
  auto cluster = MakeCluster(2, params);
  double done_at = -1;
  cluster->Compute(0, 500, [&] { done_at = cluster->now(); });
  cluster->Drain();
  EXPECT_DOUBLE_EQ(done_at, 0.5);
  EXPECT_DOUBLE_EQ(cluster->total_busy_seconds(), 0.5);
}

TEST(ClusterTest, SiteSerializesItsQueue) {
  NetworkParams params;
  params.site_ops_per_second = 1000.0;
  auto cluster = MakeCluster(1, params);
  std::vector<double> finish;
  cluster->Compute(0, 1000, [&] { finish.push_back(cluster->now()); });
  cluster->Compute(0, 1000, [&] { finish.push_back(cluster->now()); });
  cluster->Drain();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_DOUBLE_EQ(finish[0], 1.0);
  EXPECT_DOUBLE_EQ(finish[1], 2.0);  // FIFO, not parallel
}

TEST(ClusterTest, SitesRunInParallel) {
  NetworkParams params;
  params.site_ops_per_second = 1000.0;
  auto cluster = MakeCluster(2, params);
  double makespan_contrib = 0;
  cluster->Compute(0, 1000, [&] {});
  cluster->Compute(1, 1000, [&] {});
  double makespan = cluster->Drain();
  (void)makespan_contrib;
  EXPECT_DOUBLE_EQ(makespan, 1.0);  // not 2.0
  EXPECT_DOUBLE_EQ(cluster->total_busy_seconds(), 2.0);
}

TEST(ClusterTest, SendChargesLatencyAndBandwidth) {
  NetworkParams params;
  params.latency_seconds = 0.1;
  params.bandwidth_bytes_per_second = 100.0;
  auto cluster = MakeCluster(2, params);
  double arrival = -1;
  cluster->Send(0, 1, Parcel::OfSize(50), "data",
                [&](Parcel) { arrival = cluster->now(); });
  cluster->Drain();
  EXPECT_DOUBLE_EQ(arrival, 0.1 + 0.5);
  EXPECT_EQ(cluster->traffic().total_bytes(), 50u);
  EXPECT_EQ(cluster->traffic().total_messages(), 1u);
  EXPECT_EQ(cluster->traffic().bytes_with_tag("data"), 50u);
  EXPECT_EQ(cluster->traffic().bytes_into(1), 50u);
}

TEST(ClusterTest, LocalSendIsFreeAndUntracked) {
  auto cluster = MakeCluster(2);
  bool delivered = false;
  cluster->Send(1, 1, Parcel::OfSize(1 << 20), "data",
                [&](Parcel) { delivered = true; });
  double makespan = cluster->Drain();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(makespan, 0.0);
  EXPECT_EQ(cluster->traffic().total_bytes(), 0u);
}

TEST(ClusterTest, VisitAccounting) {
  auto cluster = MakeCluster(3);
  cluster->RecordVisit(1);
  cluster->RecordVisit(1);
  cluster->RecordVisit(2);
  EXPECT_EQ(cluster->visits_at(0), 0u);
  EXPECT_EQ(cluster->visits_at(1), 2u);
  EXPECT_EQ(cluster->visits_at(2), 1u);
  EXPECT_EQ(cluster->visits(), (std::vector<uint64_t>{0, 2, 1}));
}

TEST(ClusterTest, PipelinedRequestReplyTiming) {
  // request (latency only) -> compute -> reply: classic round trip.
  NetworkParams params;
  params.latency_seconds = 0.25;
  params.bandwidth_bytes_per_second = 1e9;
  params.site_ops_per_second = 100.0;
  auto cluster = MakeCluster(2, params);
  double reply_at = -1;
  cluster->Send(0, 1, Parcel::OfSize(0), "request", [&](Parcel) {
    cluster->Compute(1, 100, [&] {
      cluster->Send(1, 0, Parcel::OfSize(0), "reply",
                    [&](Parcel) { reply_at = cluster->now(); });
    });
  });
  cluster->Drain();
  EXPECT_DOUBLE_EQ(reply_at, 0.25 + 1.0 + 0.25);
}

TEST(TrafficTest, TagAggregation) {
  TrafficStats traffic;
  traffic.Record(0, 1, 10, "query");
  traffic.Record(0, 2, 20, "query");
  traffic.Record(1, 0, 5, "triplet");
  EXPECT_EQ(traffic.total_bytes(), 35u);
  EXPECT_EQ(traffic.total_messages(), 3u);
  EXPECT_EQ(traffic.bytes_with_tag("query"), 30u);
  EXPECT_EQ(traffic.bytes_with_tag("nope"), 0u);
  std::string s = traffic.ToString();
  EXPECT_NE(s.find("query"), std::string::npos);
}

}  // namespace
}  // namespace parbox::sim
