// Fair-share serving integration suite: the DWRR admission scheduler
// wired through CatalogService/QueryService, driven by the
// cross-document workload planner.
//
//   * Answer exactness — scheduler on vs off over the SAME pre-drawn
//     cross-document plan yields identical per-document answer
//     streams (the scheduler moves WHEN rounds start, never what they
//     compute); the cross-backend legs live in
//     backend_differential_test.cc.
//   * Report consistency — the aggregate report is the sum of each
//     document's own report (every counter and histogram sample
//     count), and its per-document rows reconcile with them:
//     percentiles match, qps rows sum to the aggregate rate.
//   * Admission edge cases — a same-timestamp burst wider than
//     max_batch_queries spills into ceil(n/max) rounds; zero-weight
//     tenants are rejected at configuration time with a useful error.
//   * The update priority lane applies deltas ahead of a read
//     backlog, and reads serialized after the update see its effect.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "fragment/delta.h"
#include "fragment/placement.h"
#include "fragment/strategies.h"
#include "service/catalog_service.h"
#include "service/query_service.h"
#include "service/scheduler.h"
#include "service/workload.h"
#include "testutil.h"
#include "xmark/generator.h"
#include "xpath/normalize.h"

namespace parbox {
namespace {

using catalog::Catalog;
using catalog::CatalogOptions;
using service::CatalogService;
using service::CrossDocPlan;
using service::QueryService;
using service::ServiceOptions;
using service::ServiceReport;
using service::TenantConfig;
using service::Workload;

/// A catalog of `num_docs` deterministic random documents named
/// "d0".."dN-1", plus a service over them with the given options.
struct FairDeployment {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<CatalogService> service;
  std::vector<std::string> docs;
};

FairDeployment MakeFairDeployment(size_t num_docs,
                                  const ServiceOptions& options,
                                  const std::string& backend = "sim") {
  FairDeployment d;
  CatalogOptions cat_options;
  cat_options.backend = backend;
  auto cat = Catalog::Create(cat_options);
  EXPECT_TRUE(cat.ok()) << cat.status().ToString();
  d.catalog = std::move(*cat);
  for (size_t i = 0; i < num_docs; ++i) {
    Rng rng(900 + i);
    xml::Document doc = xmark::GenerateRandomSmallDocument(120, &rng);
    auto set = frag::FragmentSet::FromDocument(std::move(doc));
    EXPECT_TRUE(set.ok());
    EXPECT_TRUE(frag::RandomSplits(&*set, 5, &rng).ok());
    auto placement = frag::Placement::Create(
        *set, frag::AssignOneSitePerFragment(*set));
    EXPECT_TRUE(placement.ok());
    const std::string name = "d" + std::to_string(i);
    EXPECT_TRUE(d.catalog
                    ->Open(name, std::move(*set), std::move(*placement))
                    .ok());
    d.docs.push_back(name);
  }
  auto svc = CatalogService::Create(d.catalog.get(), options);
  EXPECT_TRUE(svc.ok()) << svc.status().ToString();
  d.service = std::move(*svc);
  return d;
}

Workload MakeSkewedWorkload() {
  auto workload = Workload::Make({.distinct_queries = 6,
                                  .min_qlist_size = 2,
                                  .hot_multiplier = 8.0});
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return std::move(*workload);
}

/// Per-document (query_id, answer) streams, sorted by id, from the
/// outcomes RunCrossDocOpenLoop collected for `d.docs`.
std::map<std::string, std::vector<std::pair<uint64_t, bool>>> AnswersByDoc(
    const FairDeployment& d,
    const std::vector<std::vector<service::QueryOutcome>>& outcomes) {
  std::map<std::string, std::vector<std::pair<uint64_t, bool>>> out;
  for (size_t di = 0; di < d.docs.size(); ++di) {
    EXPECT_NE(d.service->document_service(d.docs[di]), nullptr);
    auto& answers = out[d.docs[di]];
    for (const service::QueryOutcome& o : outcomes[di]) {
      answers.emplace_back(o.query_id, o.answer);
    }
    std::sort(answers.begin(), answers.end());
  }
  return out;
}

// ---- Answer exactness ---------------------------------------------------

TEST(FairShareServiceTest, SchedulerOnOffAnswersIdentical) {
  const Workload workload = MakeSkewedWorkload();
  const CrossDocPlan plan = service::MakeCrossDocPlan(
      workload, 3,
      {.num_queries = 60, .arrival_rate_qps = 3000.0, .seed = 17});

  auto run = [&](bool fair) {
    ServiceOptions options;
    options.enable_fair_share = fair;
    options.fair_share.max_in_flight = 1;  // maximal contention
    FairDeployment d = MakeFairDeployment(3, options);
    if (fair) {
      EXPECT_TRUE(d.service
                      ->ConfigureTenant("d0", TenantConfig{.weight = 4.0})
                      .ok());
    }
    std::vector<std::vector<service::QueryOutcome>> outcomes;
    auto report =
        service::RunCrossDocOpenLoop(d.service.get(), workload, d.docs, plan,
                                     &outcomes);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::make_pair(AnswersByDoc(d, outcomes), report->sched_deferred);
  };

  const auto [fair_answers, fair_deferred] = run(true);
  const auto [fifo_answers, fifo_deferred] = run(false);
  EXPECT_EQ(fair_answers, fifo_answers);
  // The policy actually engaged: with one dispatch slot and 3
  // documents, rounds had to queue.
  EXPECT_GT(fair_deferred, 0u);
  EXPECT_EQ(fifo_deferred, 0u) << "FIFO baseline has no scheduler";
}

// ---- Report consistency (per-doc rows vs aggregate) ---------------------

/// Every additive quantity of a report, by name: the counters, plus
/// the sample counts of the pooled histograms.
std::map<std::string, uint64_t> AdditiveFields(const ServiceReport& r) {
  return {{"completed", r.completed},
          {"cache_hits", r.cache_hits},
          {"shared_evaluations", r.shared_evaluations},
          {"unique_evaluations", r.unique_evaluations},
          {"rounds", r.rounds},
          {"cache_invalidations", r.cache_invalidations},
          {"cache_refreshes", r.cache_refreshes},
          {"fused_walks", r.fused_walks},
          {"cse_shared_exprs", r.cse_shared_exprs},
          {"subsumption_hits", r.subsumption_hits},
          {"network_bytes", r.network_bytes},
          {"network_messages", r.network_messages},
          {"total_visits", r.total_visits},
          {"total_ops", r.total_ops},
          {"interned_formula_nodes", r.interned_formula_nodes},
          {"sched_deferred", r.sched_deferred},
          {"latency.count", r.latency.count()},
          {"admission_wait.count", r.admission_wait.count()},
          {"batch_width.count", r.batch_width.count()},
          {"sched_dispatch_delay.count", r.sched_dispatch_delay.count()}};
}

// The aggregate is the sum of its documents: every additive field
// equals the sum over the documents' own reports, and each per-document
// row reconciles with its document's report.
TEST(FairShareServiceTest, PerDocumentRowsReconcileWithAggregate) {
  struct Input {
    const char* name;
    Workload workload;
    service::CrossDocOptions plan;
  };
  auto families =
      Workload::Make({.distinct_queries = 8, .family_variants = 4});
  ASSERT_TRUE(families.ok()) << families.status().ToString();
  const Input inputs[] = {
      {"skewed", MakeSkewedWorkload(),
       {.num_queries = 48, .arrival_rate_qps = 2000.0, .seed = 23}},
      {"families", std::move(*families),
       {.num_queries = 120, .arrival_rate_qps = 3000.0, .seed = 5}}};
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    const CrossDocPlan plan =
        service::MakeCrossDocPlan(input.workload, 3, input.plan);

    ServiceOptions options;
    options.enable_fair_share = true;
    options.fair_share.max_in_flight = 2;
    FairDeployment d = MakeFairDeployment(3, options);
    auto report = service::RunCrossDocOpenLoop(d.service.get(),
                                               input.workload, d.docs, plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    ASSERT_EQ(report->per_document.size(), d.docs.size());
    std::map<std::string, uint64_t> sums;
    double sum_qps = 0.0;
    for (const ServiceReport::DocumentRow& row : report->per_document) {
      SCOPED_TRACE(row.name);
      const QueryService* qs = d.service->document_service(row.name);
      ASSERT_NE(qs, nullptr);
      const ServiceReport own = qs->BuildReport();
      EXPECT_EQ(row.completed, own.completed);
      if (own.completed > 0) {
        EXPECT_DOUBLE_EQ(row.p50_seconds, own.latency.Percentile(50));
        EXPECT_DOUBLE_EQ(row.p99_seconds, own.latency.Percentile(99));
      }
      EXPECT_EQ(row.sched_deferred, own.sched_deferred);
      for (const auto& [field, value] : AdditiveFields(own)) {
        sums[field] += value;
      }
      sum_qps += row.qps;
    }
    EXPECT_EQ(AdditiveFields(*report), sums);
    EXPECT_EQ(sums["completed"], plan.items.size());
    // The inputs exercise fusion, and the families subsumption too.
    EXPECT_GT(sums["fused_walks"], 0u);
    EXPECT_GT(sums["batch_width.count"], 0u);
    if (input.workload.spec().family_variants > 0) {
      EXPECT_GT(sums["subsumption_hits"], 0u);
    }
    // Rows share the aggregate makespan, so their rates sum to it.
    EXPECT_NEAR(sum_qps, report->throughput_qps,
                1e-9 * std::max(1.0, report->throughput_qps));
    // The report prints the rows (the human-facing contract).
    const std::string text = report->ToString();
    EXPECT_NE(text.find("per-document:"), std::string::npos) << text;
    EXPECT_NE(text.find("d0"), std::string::npos) << text;
  }
}

// ---- Admission edge cases -----------------------------------------------

TEST(FairShareServiceTest, SameTimestampBurstSpillsIntoExtraRounds) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "round widths are timing-dependent off the sim";
  }
  // 100 DISTINCT queries, all arriving at t=0, max_batch_queries=64:
  // admission must cut the batch at 64 and spill the remaining 36
  // into a second round — never drop or exceed the cap.
  testutil::RandomScenario scenario =
      testutil::MakeRandomScenario(777, 120, 6);
  ServiceOptions options;
  options.max_batch_queries = 64;
  auto svc = QueryService::Create(
      static_cast<const frag::FragmentSet*>(&scenario.set), &scenario.st,
      options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  Rng rng(91);
  std::vector<xpath::QueryFingerprint> fps;
  size_t submitted = 0;
  while (submitted < 100) {
    auto ast = testutil::RandomQual(&rng, 3);
    xpath::NormQuery q = xpath::Normalize(*ast);
    const xpath::QueryFingerprint fp = xpath::FingerprintQuery(q);
    bool dup = false;
    for (const auto& seen : fps) dup = dup || seen == fp;
    if (dup) continue;  // distinct: no dedup, every query widens a batch
    fps.push_back(fp);
    ASSERT_TRUE((*svc)->Submit(std::move(q), 0.0).ok());
    ++submitted;
  }
  (*svc)->Run();
  ASSERT_TRUE((*svc)->status().ok()) << (*svc)->status().ToString();

  const ServiceReport report = (*svc)->BuildReport();
  EXPECT_EQ(report.completed, 100u);
  EXPECT_EQ(report.rounds, 2u);
  EXPECT_EQ(report.batch_width.count(), 2u);
  EXPECT_DOUBLE_EQ(report.batch_width.max(), 64.0);
  EXPECT_DOUBLE_EQ(report.batch_width.min(), 36.0);
}

TEST(FairShareServiceTest, ZeroWeightTenantRejectedUsefully) {
  ServiceOptions options;
  options.enable_fair_share = true;
  FairDeployment d = MakeFairDeployment(2, options);

  const Status zero =
      d.service->ConfigureTenant("d0", TenantConfig{.weight = 0.0});
  EXPECT_FALSE(zero.ok());
  EXPECT_NE(zero.message().find("max_in_flight"), std::string::npos)
      << "the error should name the right throttling knob: "
      << zero.ToString();
  EXPECT_FALSE(
      d.service->ConfigureTenant("d1", TenantConfig{.weight = -3.0}).ok());
  EXPECT_FALSE(
      d.service->ConfigureTenant("nope", TenantConfig{}).ok());

  // Fair share off: configuring a tenant fails loudly, not silently.
  FairDeployment fifo = MakeFairDeployment(1, ServiceOptions{});
  const Status off = fifo.service->ConfigureTenant("d0", TenantConfig{});
  EXPECT_FALSE(off.ok());
  EXPECT_NE(off.message().find("enable_fair_share"), std::string::npos)
      << off.ToString();
}

// ---- Update priority lane -----------------------------------------------

TEST(FairShareServiceTest, UpdateLaneAppliesAheadOfReadBacklog) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "relies on deterministic virtual-time ordering";
  }
  ServiceOptions options;
  options.enable_fair_share = true;
  options.fair_share.max_in_flight = 1;
  FairDeployment d = MakeFairDeployment(2, options);
  QueryService* qs = d.service->document_service("d0");
  ASSERT_NE(qs, nullptr);

  // A query that can only be true once the update lands: no document
  // element is labelled "zzz" before the insert.
  auto probe = xpath::CompileQuery("[//zzz]");
  ASSERT_TRUE(probe.ok());

  // Pile distinct read rounds onto both documents (slot contention),
  // then an update behind them in submission order but with an
  // earlier-or-equal arrival: the priority lane applies it without
  // waiting for the backlog to drain.
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    auto ast = testutil::RandomQual(&rng, 3);
    ASSERT_TRUE(d.service
                    ->Submit("d" + std::to_string(i % 2),
                             xpath::Normalize(*ast), 0.0)
                    .ok());
  }
  frag::FragmentSet* set = d.catalog->Find("d0")->mutable_set();
  const frag::FragmentId root_fragment = *set->live_ids().begin();
  bool applied = false;
  Status apply_status = Status::OK();
  d.service->SubmitDelta(
      "d0",
      frag::Delta::InsertSubtree(root_fragment,
                                 set->fragment(root_fragment).root, "zzz"),
      /*arrival_seconds=*/0.0,
      [&](const Result<frag::AppliedDelta>& r) {
        applied = true;
        apply_status = r.status();
      });
  // A probe submitted well after the update's arrival must see it.
  std::vector<service::QueryOutcome> outcomes;
  ASSERT_TRUE(d.service
                  ->Submit("d0", std::move(*probe), 0.5,
                           testutil::RecordInto(&outcomes))
                  .ok());

  d.service->Run();
  ASSERT_TRUE(d.service->status().ok())
      << d.service->status().ToString();
  EXPECT_TRUE(applied);
  EXPECT_TRUE(apply_status.ok()) << apply_status.ToString();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].answer) << "probe did not observe the update";
}

TEST(FairShareServiceTest, SubmitDeltaUnknownDocumentFails) {
  ServiceOptions options;
  options.enable_fair_share = true;
  FairDeployment d = MakeFairDeployment(1, options);
  EXPECT_FALSE(
      d.service
          ->SubmitDelta("ghost", frag::Delta::Retext(0, nullptr, "x"), 0.0)
          .ok());
}

}  // namespace
}  // namespace parbox
