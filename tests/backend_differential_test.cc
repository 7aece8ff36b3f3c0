// The ExecBackend contract, held to by differential testing: the
// deterministic simulation is the oracle, and the real backends — the
// in-process thread pool ("threads") and the multi-process site
// daemons ("proc:2") — must agree with it bit-for-bit wherever the
// quantity is defined on both: answers, per-site visits, network bytes
// and messages, kernel ops, equation-system sizes, and the per-tag
// traffic breakdown. (Virtual times and event counts are sim-defined
// and excluded.)
//
// Covers every registered evaluator, ExecuteIncremental across random
// delta sequences (the seeded-trial harness of
// incremental_update_test.cc), and QueryService answer streams; plus
// the registry's unknown-spec UX.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/evaluator.h"
#include "core/session.h"
#include "exec/backend.h"
#include "exec/host.h"
#include "fragment/delta.h"
#include "fragment/placement.h"
#include "fragment/strategies.h"
#include "service/catalog_service.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "testutil.h"
#include "xpath/normalize.h"

namespace parbox::core {
namespace {

using frag::FragmentSet;
using testutil::TrialMultiplier;

/// The real (non-sim) backends every differential below holds to the
/// sim oracle.
const std::vector<std::string>& RealBackends() {
  static const std::vector<std::string> kBackends = {"threads", "proc:2"};
  return kBackends;
}

/// The cross-backend comparable slice of a RunReport.
void ExpectReportsAgree(const RunReport& sim, const RunReport& threads,
                        const std::string& context) {
  EXPECT_EQ(sim.answer, threads.answer) << context;
  EXPECT_EQ(sim.algorithm, threads.algorithm) << context;
  EXPECT_EQ(sim.total_ops, threads.total_ops) << context;
  EXPECT_EQ(sim.network_bytes, threads.network_bytes) << context;
  EXPECT_EQ(sim.network_messages, threads.network_messages) << context;
  EXPECT_EQ(sim.visits_per_site, threads.visits_per_site) << context;
  EXPECT_EQ(sim.eq_system_entries, threads.eq_system_entries) << context;
  for (const auto& [name, value] : sim.stats.counters) {
    if (name.rfind("net.", 0) == 0) {
      EXPECT_EQ(value, threads.stats.CounterValue(name))
          << context << " " << name;
    }
  }
}

TEST(BackendDifferentialTest, AllEvaluatorsBitIdenticalAcrossBackends) {
  const std::vector<std::string> names =
      EvaluatorRegistry::Instance().Names();
  ASSERT_FALSE(names.empty());
  size_t trials = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    testutil::RandomScenario scenario =
        testutil::MakeRandomScenario(seed + 900, /*max_elements=*/90,
                                     /*splits=*/6);
    auto sim = Session::Create(
        static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
        SessionOptions{.backend = "sim"});
    ASSERT_TRUE(sim.ok());
    std::vector<std::unique_ptr<Session>> real;
    for (const std::string& backend : RealBackends()) {
      auto session = Session::Create(
          static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
          SessionOptions{.backend = backend});
      ASSERT_TRUE(session.ok()) << backend << ": "
                                << session.status().ToString();
      real.push_back(std::make_unique<Session>(std::move(*session)));
    }

    Rng rng(seed * 31 + 7);
    for (int i = 0; i < 3; ++i) {
      auto ast = testutil::RandomQual(&rng, 3);
      xpath::NormQuery q = xpath::Normalize(*ast);
      auto sim_q = sim->Prepare(&q);
      ASSERT_TRUE(sim_q.ok());
      std::vector<PreparedQuery> real_q;
      for (auto& session : real) {
        auto prepared = session->Prepare(&q);
        ASSERT_TRUE(prepared.ok());
        real_q.push_back(std::move(*prepared));
      }
      for (const std::string& name : names) {
        auto sim_report = sim->Execute(*sim_q, {.evaluator = name});
        ASSERT_TRUE(sim_report.ok()) << sim_report.status().ToString();
        for (size_t b = 0; b < real.size(); ++b) {
          auto real_report =
              real[b]->Execute(real_q[b], {.evaluator = name});
          ASSERT_TRUE(real_report.ok()) << real_report.status().ToString();
          ExpectReportsAgree(*sim_report, *real_report,
                             "seed " + std::to_string(seed) + " backend " +
                                 RealBackends()[b] + " evaluator " + name +
                                 " query " + xpath::ToString(*ast));
          ++trials;
        }
      }
    }
  }
  EXPECT_GE(trials, 6u * 3u * RealBackends().size() * names.size());
}

// ExecuteIncremental across random delta sequences: two identically
// seeded deployments, one per backend, mutated in lockstep; every
// incremental run (full, delta, and clean paths all occur) must agree
// on the comparable report slice — including the "update" traffic tag
// and per-site visits, which prove the thread pool revisits exactly
// the dirty sites the sim does.
TEST(BackendDifferentialTest, IncrementalRunsBitIdenticalAcrossBackends) {
  const int deltas_per_seed = 12 * TrialMultiplier();
  for (const std::string& backend : RealBackends()) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      testutil::RandomScenario for_sim =
          testutil::MakeRandomScenario(seed + 950, 70, 5);
      testutil::RandomScenario for_real =
          testutil::MakeRandomScenario(seed + 950, 70, 5);

      auto sim = Session::Create(&for_sim.set, &for_sim.st,
                                 SessionOptions{.backend = "sim"});
      auto real = Session::Create(&for_real.set, &for_real.st,
                                  SessionOptions{.backend = backend});
      ASSERT_TRUE(sim.ok() && real.ok());
      ASSERT_TRUE(sim->writable() && real->writable());

      Rng rng_sim(seed * 131 + 17);
      Rng rng_real(seed * 131 + 17);
      auto sim_q = sim->Prepare(
          xpath::Normalize(*testutil::RandomQual(&rng_sim, 3)));
      auto real_q = real->Prepare(
          xpath::Normalize(*testutil::RandomQual(&rng_real, 3)));
      ASSERT_TRUE(sim_q.ok() && real_q.ok());

      for (int d = 0; d < deltas_per_seed; ++d) {
        // Identical RNG streams over identical documents pick identical
        // deltas; apply one to each deployment.
        frag::Delta delta_sim =
            testutil::RandomDelta(&for_sim.set, &rng_sim);
        frag::Delta delta_real =
            testutil::RandomDelta(&for_real.set, &rng_real);
        ASSERT_EQ(delta_sim.kind, delta_real.kind);
        ASSERT_TRUE(sim->Apply(delta_sim).ok());
        ASSERT_TRUE(real->Apply(delta_real).ok());

        auto sim_report = sim->ExecuteIncremental(*sim_q);
        auto real_report = real->ExecuteIncremental(*real_q);
        ASSERT_TRUE(sim_report.ok()) << sim_report.status().ToString();
        ASSERT_TRUE(real_report.ok()) << real_report.status().ToString();
        ExpectReportsAgree(*sim_report, *real_report,
                           backend + " seed " + std::to_string(seed) +
                               " delta " + std::to_string(d));

        // Every other delta, also compare the clean path (a re-run with
        // nothing dirty).
        if (d % 2 == 1) {
          auto sim_clean = sim->ExecuteIncremental(*sim_q);
          auto real_clean = real->ExecuteIncremental(*real_q);
          ASSERT_TRUE(sim_clean.ok() && real_clean.ok());
          EXPECT_EQ(sim_clean->algorithm, "IncrementalParBoX[clean]");
          ExpectReportsAgree(*sim_clean, *real_clean,
                             backend + " clean after seed " +
                                 std::to_string(seed) + " delta " +
                                 std::to_string(d));
        }
      }
    }
  }
}

TEST(BackendDifferentialTest, ServiceAnswerStreamsAgreeAcrossBackends) {
  testutil::RandomScenario scenario =
      testutil::MakeRandomScenario(1234, 120, 6);
  auto workload =
      service::Workload::Make({.distinct_queries = 8, .min_qlist_size = 2});
  ASSERT_TRUE(workload.ok());

  auto serve = [&](const std::string& backend) {
    service::ServiceOptions options;
    options.backend = backend;
    service::QueryService svc(
        static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
        options);
    std::vector<service::QueryOutcome> outcomes;
    auto report = service::RunOpenLoop(
        &svc, *workload, {.num_queries = 64, .seed = 99}, &outcomes);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(svc.status().ok()) << svc.status().ToString();
    // Answers by submission id (completion order may differ).
    std::vector<std::pair<uint64_t, bool>> answers;
    for (const service::QueryOutcome& outcome : outcomes) {
      answers.emplace_back(outcome.query_id, outcome.answer);
    }
    std::sort(answers.begin(), answers.end());
    return answers;
  };

  auto sim_answers = serve("sim");
  ASSERT_EQ(sim_answers.size(), 64u);
  for (const std::string& backend : RealBackends()) {
    EXPECT_EQ(sim_answers, serve(backend)) << backend;
  }
}

// Fused rounds: multi-query fusion and cache subsumption are pure
// evaluation-cost optimizations. A fused multi-lane round must answer
// exactly like one-query rounds (each a one-lane walk), and all
// backends must agree with the sim on the whole comparable slice,
// ops included.
TEST(BackendDifferentialTest, FusedRoundsBitIdenticalAcrossBackends) {
  auto workload = service::Workload::Make({.distinct_queries = 12,
                                           .family_variants = 4,
                                           .family_chain_steps = 3});
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  struct ServedSlice {
    std::vector<std::pair<uint64_t, bool>> answers;
    std::vector<uint64_t> visits;
    uint64_t bytes = 0;
    uint64_t messages = 0;
    uint64_t ops = 0;
    uint64_t fused_walks = 0;
    uint64_t subsumption_hits = 0;
  };
  auto serve = [&](const std::string& backend, size_t max_batch_queries) {
    testutil::RandomScenario scenario =
        testutil::MakeRandomScenario(4321, 120, 6);
    service::ServiceOptions options;
    options.backend = backend;
    options.max_batch_queries = max_batch_queries;
    service::QueryService svc(
        static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
        options);
    // One burst: every family round is a fused multi-lane batch, and
    // zipf re-draws of a family's base exercise subsumption.
    std::vector<service::QueryOutcome> outcomes;
    auto report = service::RunOpenLoop(
        &svc, *workload, {.num_queries = 48, .seed = 7}, &outcomes);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    ServedSlice s;
    for (const service::QueryOutcome& outcome : outcomes) {
      s.answers.emplace_back(outcome.query_id, outcome.answer);
    }
    std::sort(s.answers.begin(), s.answers.end());
    s.visits = svc.backend().visits();
    s.bytes = svc.backend().traffic().total_bytes();
    s.messages = svc.backend().traffic().total_messages();
    s.ops = report->total_ops;
    s.fused_walks = report->fused_walks;
    s.subsumption_hits = report->subsumption_hits;
    return s;
  };

  const size_t kFused = service::ServiceOptions{}.max_batch_queries;
  const ServedSlice oracle = serve("sim", kFused);
  ASSERT_EQ(oracle.answers.size(), 48u);
  EXPECT_GT(oracle.fused_walks, 0u);

  // One-query rounds on the oracle backend: the same answers.
  const ServedSlice solo = serve("sim", 1);
  EXPECT_EQ(oracle.answers, solo.answers);

  for (const std::string& backend : RealBackends()) {
    // Real backends: full comparable slice matches the sim.
    const ServedSlice fused = serve(backend, kFused);
    EXPECT_EQ(oracle.answers, fused.answers) << backend;
    EXPECT_EQ(oracle.visits, fused.visits) << backend;
    EXPECT_EQ(oracle.bytes, fused.bytes) << backend;
    EXPECT_EQ(oracle.messages, fused.messages) << backend;
    EXPECT_EQ(oracle.ops, fused.ops) << backend;
    EXPECT_EQ(oracle.fused_walks, fused.fused_walks) << backend;
    EXPECT_EQ(oracle.subsumption_hits, fused.subsumption_hits) << backend;
  }
}

// Fair-share admission is a pure scheduling policy: it reorders when
// batch rounds dispatch, never what they compute. Replaying one
// pre-drawn cross-document plan with the scheduler on and off must
// yield bit-identical per-document answer streams — on the sim oracle
// and on every real backend.
TEST(BackendDifferentialTest, FairShareSchedulerBitIdenticalAcrossBackends) {
  auto workload = service::Workload::Make({.distinct_queries = 6,
                                           .min_qlist_size = 2,
                                           .hot_multiplier = 8.0});
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const std::vector<std::string> docs = {"hot", "cold1", "cold2"};
  const service::CrossDocPlan plan = service::MakeCrossDocPlan(
      *workload, docs.size(),
      {.num_queries = 42, .arrival_rate_qps = 3000.0, .seed = 61});

  auto serve = [&](const std::string& backend, bool fair) {
    catalog::CatalogOptions cat_options;
    cat_options.backend = backend;
    auto cat = catalog::Catalog::Create(cat_options);
    EXPECT_TRUE(cat.ok()) << cat.status().ToString();
    for (size_t di = 0; di < docs.size(); ++di) {
      Rng rng(300 + di);
      xml::Document doc =
          xmark::GenerateRandomSmallDocument(120, &rng);
      auto set = frag::FragmentSet::FromDocument(std::move(doc));
      EXPECT_TRUE(set.ok());
      EXPECT_TRUE(frag::RandomSplits(&*set, 5, &rng).ok());
      auto placement = frag::Placement::Create(
          *set, frag::AssignOneSitePerFragment(*set));
      EXPECT_TRUE(placement.ok());
      EXPECT_TRUE(
          (*cat)
              ->Open(docs[di], std::move(*set), std::move(*placement))
              .ok());
    }
    service::ServiceOptions options;
    options.enable_fair_share = fair;
    options.fair_share.max_in_flight = 2;  // tight: rounds must queue
    auto svc = service::CatalogService::Create(cat->get(), options);
    EXPECT_TRUE(svc.ok()) << svc.status().ToString();
    if (fair) {
      // Skewed weights and a per-tenant cap, so the policy reorders
      // dispatches as hard as it can.
      EXPECT_TRUE((*svc)
                      ->ConfigureTenant(
                          "hot", service::TenantConfig{.weight = 4.0})
                      .ok());
      EXPECT_TRUE((*svc)
                      ->ConfigureTenant("cold1",
                                        service::TenantConfig{
                                            .weight = 1.0,
                                            .max_in_flight = 1})
                      .ok());
    }
    std::vector<std::vector<service::QueryOutcome>> outcomes;
    auto report = service::RunCrossDocOpenLoop(svc->get(), *workload,
                                               docs, plan, &outcomes);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::map<std::string, std::vector<std::pair<uint64_t, bool>>> answers;
    for (size_t di = 0; di < docs.size(); ++di) {
      const std::string& d = docs[di];
      EXPECT_NE((*svc)->document_service(d), nullptr);
      auto& a = answers[d];
      for (const service::QueryOutcome& o : outcomes[di]) {
        a.emplace_back(o.query_id, o.answer);
      }
      std::sort(a.begin(), a.end());
    }
    return answers;
  };

  const auto oracle = serve("sim", /*fair=*/true);
  size_t total = 0;
  for (const auto& [doc, answers] : oracle) total += answers.size();
  ASSERT_EQ(total, 42u);

  // Ablation on the oracle backend: policy off, same answers.
  EXPECT_EQ(oracle, serve("sim", /*fair=*/false));

  for (const std::string& backend : RealBackends()) {
    EXPECT_EQ(oracle, serve(backend, /*fair=*/true)) << backend;
    EXPECT_EQ(oracle, serve(backend, /*fair=*/false)) << backend;
  }
}

// AddNamespace is the only way sites come into being, and every
// registered backend keeps the one contract: the same bad inputs fail,
// namespaces get contiguous bases, each coordinator composes into its
// own namespace's factory, and a host's views count their own visits.
TEST(BackendDifferentialTest, AddNamespaceContractOnEveryBackend) {
  bexpr::ExprFactory first;
  bexpr::ExprFactory second;
  for (const std::string& spec : {std::string("sim"), RealBackends()[0],
                                  RealBackends()[1]}) {
    SCOPED_TRACE(spec);
    auto created = exec::ExecBackendRegistry::Instance().CreateOrError(spec);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    exec::ExecBackend& backend = **created;
    EXPECT_EQ(backend.num_sites(), 0);
    for (const auto& [sites, coordinator, factory] :
         {std::tuple<int, exec::SiteId, bexpr::ExprFactory*>{0, 0, &first},
          {3, 3, &first}, {3, -1, &first}, {3, 0, nullptr}}) {
      EXPECT_EQ(
          backend.AddNamespace(sites, coordinator, factory).status().code(),
          StatusCode::kInvalidArgument)
          << sites << " sites, coordinator " << coordinator;
    }
    EXPECT_EQ(backend.num_sites(), 0);
    auto a = backend.AddNamespace(3, 1, &first);
    auto b = backend.AddNamespace(2, 0, &second);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, 0);
    EXPECT_EQ(*b, 3);
    EXPECT_EQ(backend.num_sites(), 5);
    EXPECT_EQ(backend.coordinator(), 1);
    EXPECT_EQ(&backend.site_factory(1), &first);
    EXPECT_EQ(&backend.site_factory(3), &second);

    auto host = exec::BackendHost::Create(spec);
    ASSERT_TRUE(host.ok()) << host.status().ToString();
    auto view_a = (*host)->OpenNamespace(3, 1, &first);
    auto view_b = (*host)->OpenNamespace(2, 0, &second);
    ASSERT_TRUE(view_a.ok() && view_b.ok());
    (*view_a)->RecordVisit(2);
    (*view_b)->RecordVisit(0);
    (*view_b)->RecordVisit(0);
    EXPECT_EQ((*view_a)->visits(), (std::vector<uint64_t>{0, 0, 1}));
    EXPECT_EQ((*view_b)->visits(), (std::vector<uint64_t>{2, 0}));
    (*view_a)->Reset();
    EXPECT_EQ((*view_a)->visits(), (std::vector<uint64_t>{0, 0, 0}));
    EXPECT_EQ((*view_b)->visits(), (std::vector<uint64_t>{2, 0}));
    EXPECT_EQ((*host)->backend().visits(),
              (std::vector<uint64_t>{0, 0, 1, 2, 0}));
  }
}

TEST(BackendDifferentialTest, UnknownBackendErrorsListRegistered) {
  testutil::RandomScenario scenario = testutil::MakeRandomScenario(7, 40, 2);
  auto session = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "quantum"});
  ASSERT_FALSE(session.ok());
  const std::string message = session.status().ToString();
  EXPECT_NE(message.find("quantum"), std::string::npos) << message;
  EXPECT_NE(message.find("sim"), std::string::npos) << message;
  EXPECT_NE(message.find("threads"), std::string::npos) << message;
  EXPECT_NE(message.find("proc"), std::string::npos) << message;

  auto bad_arg = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "threads:zero"});
  ASSERT_FALSE(bad_arg.ok());

  // The proc spec grammar rejects junk with the grammar in the
  // message, and the registry can report it (parboxq --list).
  auto bad_proc = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "proc:zero"});
  ASSERT_FALSE(bad_proc.ok());
  EXPECT_NE(bad_proc.status().ToString().find("proc[:N[,tcp]]"),
            std::string::npos)
      << bad_proc.status().ToString();
  EXPECT_EQ(exec::ExecBackendRegistry::Instance().Grammar("proc"),
            "proc[:N[,tcp]]");

  auto counted = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "threads:3"});
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->backend().name(), "threads");

  // QueryService::Create validates the same spec at construction
  // time, with the same grammar in the error.
  service::ServiceOptions bad_options;
  bad_options.backend = "proc:zero";
  auto bad_svc = service::QueryService::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      bad_options);
  ASSERT_FALSE(bad_svc.ok());
  EXPECT_NE(bad_svc.status().ToString().find("proc[:N[,tcp]]"),
            std::string::npos)
      << bad_svc.status().ToString();
}

}  // namespace
}  // namespace parbox::core
