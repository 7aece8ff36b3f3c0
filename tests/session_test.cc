// Session / PreparedQuery / EvaluatorRegistry tests: the compile-once /
// execute-many API (core/session.h) must be indistinguishable, run for
// run, from the legacy one-shot Run* entry points — and prepared
// handles must stay valid across arbitrary interleavings.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/session.h"
#include "testutil.h"
#include "xmark/portfolio.h"
#include "xmark/queries.h"
#include "xpath/normalize.h"

namespace parbox::core {
namespace {

using frag::FragmentSet;
using frag::SourceTree;

struct Portfolio {
  FragmentSet set;
  SourceTree st;
};

Portfolio MakePortfolio() {
  auto set = xmark::BuildPortfolioFragments();
  EXPECT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  EXPECT_TRUE(st.ok());
  return Portfolio{std::move(*set), std::move(*st)};
}

xpath::NormQuery Compile(std::string_view text) {
  auto q = xpath::CompileQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

/// Everything a run measures except session-lifetime statistics
/// (formula.interned_nodes reflects the shared factory by design).
void ExpectReportsIdentical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_DOUBLE_EQ(a.total_compute_seconds, b.total_compute_seconds);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.network_messages, b.network_messages);
  EXPECT_EQ(a.visits_per_site, b.visits_per_site);
  EXPECT_EQ(a.eq_system_entries, b.eq_system_entries);
  EXPECT_EQ(a.stats.CounterValue("exec.sim.events"),
            b.stats.CounterValue("exec.sim.events"));
}

// ---------- Registry ----------

TEST(EvaluatorRegistryTest, AllSixAlgorithmsRegisteredInCanonicalOrder) {
  const std::vector<std::string> names =
      EvaluatorRegistry::Instance().Names();
  const std::vector<std::string> expected = {
      "central", "distributed", "parbox", "hybrid", "fulldist", "lazy"};
  EXPECT_EQ(names, expected);
}

TEST(EvaluatorRegistryTest, CreateReturnsWorkingEvaluator) {
  auto parbox = EvaluatorRegistry::Instance().Create("parbox");
  ASSERT_NE(parbox, nullptr);
  EXPECT_EQ(parbox->name(), "parbox");
  EXPECT_EQ(parbox->display_name(), "ParBoX");
  EXPECT_EQ(EvaluatorRegistry::Instance().Create("nope"), nullptr);
}

TEST(EvaluatorRegistryTest, UnknownNameErrorListsRegisteredNames) {
  auto result = EvaluatorRegistry::Instance().CreateOrError("warp-drive");
  ASSERT_FALSE(result.ok());
  const std::string& message = result.status().message();
  EXPECT_NE(message.find("warp-drive"), std::string::npos);
  for (const std::string& name : EvaluatorRegistry::Instance().Names()) {
    EXPECT_NE(message.find(name), std::string::npos) << name;
  }
}

// ---------- Prepare-once / execute-many == fresh Run* ----------

TEST(SessionTest, ExecuteManyIsBitIdenticalToFreshRunsAllEvaluators) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "virtual-clock property; sim backend only";
  }
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);

  auto session = Session::Create(&p.set, &p.st);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // One-shot references: a fresh session, one Execute per evaluator.
  auto reference = testutil::EvaluateAll(p.set, p.st, q);
  ASSERT_TRUE(reference.ok());

  const std::vector<std::string> names =
      EvaluatorRegistry::Instance().Names();
  ASSERT_EQ(names.size(), reference->size());
  // Execute each evaluator several times on one long-lived session:
  // every repetition must reproduce the fresh run exactly.
  for (int repetition = 0; repetition < 3; ++repetition) {
    for (size_t i = 0; i < names.size(); ++i) {
      auto report = session->Execute(*prepared, {.evaluator = names[i]});
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ExpectReportsIdentical((*reference)[i], *report);
    }
  }
}

TEST(SessionTest, RandomScenariosMatchOneShotRuns) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "virtual-clock property; sim backend only";
  }
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    testutil::RandomScenario scenario =
        testutil::MakeRandomScenario(seed, /*max_elements=*/60,
                                     /*splits=*/5);
    Rng rng(seed * 977);
    xpath::NormQuery q =
        xpath::Normalize(*testutil::RandomQual(&rng, 3));

    auto one_shot = testutil::Evaluate(scenario.set, scenario.st, q);
    ASSERT_TRUE(one_shot.ok());

    auto session = Session::Create(&scenario.set, &scenario.st);
    ASSERT_TRUE(session.ok());
    auto prepared = session->Prepare(&q);
    ASSERT_TRUE(prepared.ok());
    for (int repetition = 0; repetition < 2; ++repetition) {
      auto report = session->Execute(*prepared);
      ASSERT_TRUE(report.ok());
      ExpectReportsIdentical(*one_shot, *report);
    }
  }
}

// ---------- PreparedQuery lifetime across interleavings ----------

TEST(SessionTest, PreparedQueryStaysValidAcrossInterleavedExecutions) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "virtual-clock property; sim backend only";
  }
  Portfolio p = MakePortfolio();
  auto session = Session::Create(&p.set, &p.st);
  ASSERT_TRUE(session.ok());

  auto first = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto baseline = session->Execute(*first);
  ASSERT_TRUE(baseline.ok());

  // Interleave executions of other queries — across several evaluators
  // — between uses of `first`. The old handle must keep producing the
  // identical report.
  const char* others[] = {xmark::kGoogSellQuery, xmark::kMerillQuery,
                          "[//market[name = \"NASDAQ\"]]",
                          "[not(//stock[code = \"MSFT\"])]"};
  std::vector<PreparedQuery> other_handles;
  for (const char* text : others) {
    auto prepared = session->Prepare(text);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    other_handles.push_back(std::move(*prepared));
  }
  for (const std::string& name : EvaluatorRegistry::Instance().Names()) {
    for (const PreparedQuery& other : other_handles) {
      auto report = session->Execute(other, {.evaluator = name});
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    auto again = session->Execute(*first);
    ASSERT_TRUE(again.ok());
    ExpectReportsIdentical(*baseline, *again);
  }
}

TEST(SessionTest, PreparedTextAndFingerprintExposed) {
  Portfolio p = MakePortfolio();
  auto session = Session::Create(&p.set, &p.st);
  ASSERT_TRUE(session.ok());
  auto prepared = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->valid());
  EXPECT_EQ(prepared->text(), xmark::kYhooQuery);
  EXPECT_GT(prepared->query_bytes(), 0u);
  // Same normal form => same fingerprint, from text or from a QList.
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  auto prepared2 = session->Prepare(std::move(q));
  ASSERT_TRUE(prepared2.ok());
  EXPECT_EQ(prepared->fingerprint(), prepared2->fingerprint());
}

// ---------- Cross-session and error handling ----------

TEST(SessionTest, RejectsHandlesFromOtherSessions) {
  Portfolio p = MakePortfolio();
  auto session_a = Session::Create(&p.set, &p.st);
  auto session_b = Session::Create(&p.set, &p.st);
  ASSERT_TRUE(session_a.ok());
  ASSERT_TRUE(session_b.ok());
  auto prepared = session_a->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(prepared.ok());
  auto cross = session_b->Execute(*prepared);
  ASSERT_FALSE(cross.ok());
  EXPECT_NE(cross.status().message().find("different Session"),
            std::string::npos);
  // An empty handle is rejected too.
  EXPECT_FALSE(session_a->Execute(PreparedQuery()).ok());
}

TEST(SessionTest, ExecuteUnknownEvaluatorListsNames) {
  Portfolio p = MakePortfolio();
  auto session = Session::Create(&p.set, &p.st);
  ASSERT_TRUE(session.ok());
  auto prepared = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(prepared.ok());
  auto report = session->Execute(*prepared, {.evaluator = "bogus"});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("parbox"), std::string::npos);
}

TEST(SessionTest, ParseErrorsCarryQueryTextAndByteOffset) {
  Portfolio p = MakePortfolio();
  auto session = Session::Create(&p.set, &p.st);
  ASSERT_TRUE(session.ok());
  auto prepared = session->Prepare("[//stock[code = ]]");
  ASSERT_FALSE(prepared.ok());
  const std::string& message = prepared.status().message();
  // The offending query and the failing byte are both named.
  EXPECT_NE(message.find("[//stock[code = ]]"), std::string::npos)
      << message;
  EXPECT_NE(message.find("byte"), std::string::npos) << message;
  EXPECT_NE(message.find("offset"), std::string::npos) << message;
}

TEST(SessionTest, OwningSessionKeepsDeploymentAlive) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  ASSERT_TRUE(st.ok());
  auto session = Session::Create(std::move(*set), std::move(*st));
  ASSERT_TRUE(session.ok());
  // The session owns set/st now; handles reference session state only.
  auto prepared = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(prepared.ok());
  auto report = session->Execute(*prepared);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->answer);
}

TEST(SessionTest, PlanIsShared) {
  Portfolio p = MakePortfolio();
  auto session = Session::Create(&p.set, &p.st);
  ASSERT_TRUE(session.ok());
  auto plan_a = session->plan();
  auto plan_b = session->plan();
  EXPECT_EQ(plan_a.get(), plan_b.get());  // cached
  EXPECT_FALSE(plan_a->site_fragments.empty());
}

}  // namespace
}  // namespace parbox::core
