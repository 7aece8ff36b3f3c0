// The incremental update pipeline (fragment/delta.h + Session::Apply /
// ExecuteIncremental) checked against a differential oracle: after any
// sequence of random deltas, the incremental answer must be
// bit-identical to a from-scratch run of *every* registered evaluator
// on the updated document. Also: locality (a delta run visits only
// dirty sites, metered under the "update" traffic tag) and writability
// rules.
//
// Randomized suites run with fixed seeds by default; set
// PARBOX_TEST_TRIALS=<k> to multiply the delta count per seed (the
// `ctest -L extended` jobs do).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/session.h"
#include "core/view.h"
#include "fragment/delta.h"
#include "service/query_service.h"
#include "testutil.h"
#include "xml/parser.h"
#include "xpath/normalize.h"

namespace parbox::core {
namespace {

using frag::Delta;
using frag::FragmentId;
using frag::FragmentSet;
using frag::SourceTree;

using testutil::TrialMultiplier;

// ---- The differential oracle -------------------------------------------

// Apply N random deltas per seed; after each, the incremental answer
// (for two long-lived prepared queries) must equal a from-scratch run
// of every registered evaluator on the mutated document. At the
// default multiplier this is 8 seeds x 26 deltas = 208 >= 200 seeded
// trials per evaluator. The other two holders of a retained system
// ride along on twin documents fed the same delta stream (twin RNGs
// over identical scenarios draw identical deltas): materialized views
// (Apply + Refresh) and a QueryService result cache (ApplyDelta +
// resubmit). Their answers must equal the oracle's too.
TEST(IncrementalUpdateTest, DifferentialOracleAcrossAllEvaluators) {
  const std::vector<std::string> names =
      EvaluatorRegistry::Instance().Names();
  ASSERT_FALSE(names.empty());
  const int deltas_per_seed = 26 * TrialMultiplier();
  size_t trials = 0;

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto make_scenario = [seed] {
      return testutil::MakeRandomScenario(seed + 500, /*max_elements=*/70,
                                          /*splits=*/5);
    };
    testutil::RandomScenario scenario = make_scenario();
    testutil::RandomScenario view_twin = make_scenario();
    testutil::RandomScenario service_twin = make_scenario();
    Rng rng(seed * 7919 + 1);

    auto session = Session::Create(&scenario.set, &scenario.st);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session->writable());

    std::vector<std::unique_ptr<xpath::QualExpr>> asts;
    std::vector<PreparedQuery> prepared;
    for (int i = 0; i < 2; ++i) {
      asts.push_back(testutil::RandomQual(&rng, 3));
      auto p = session->Prepare(xpath::Normalize(*asts.back()));
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      prepared.push_back(std::move(*p));
    }
    Rng view_rng = rng;
    Rng service_rng = rng;

    std::vector<MaterializedView> views;
    for (const PreparedQuery& p : prepared) {
      auto view = MaterializedView::Create(
          &view_twin.set, testutil::SitesOf(view_twin), &p.query());
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      views.push_back(std::move(*view));
    }
    service::QueryService svc(&service_twin.set, &service_twin.st);

    for (int d = 0; d < deltas_per_seed; ++d) {
      Delta delta = testutil::RandomDelta(&scenario.set, &rng);
      auto applied = session->Apply(delta);
      ASSERT_TRUE(applied.ok())
          << "seed " << seed << " delta " << d << " ("
          << frag::DeltaKindName(delta.kind)
          << "): " << applied.status().ToString();
      ASSERT_TRUE(scenario.set.Validate().ok());

      // Both views maintain the one view twin: the delta lands once,
      // and each view refreshes the touched fragment.
      auto view_applied =
          views[0].Apply(testutil::RandomDelta(&view_twin.set, &view_rng));
      ASSERT_TRUE(view_applied.ok()) << view_applied.status().ToString();
      ASSERT_EQ(view_applied->fragment, applied->fragment);
      for (MaterializedView& view : views) {
        ASSERT_TRUE(view.Refresh(view_applied->fragment).ok());
      }
      auto service_applied = svc.ApplyDelta(
          testutil::RandomDelta(&service_twin.set, &service_rng));
      ASSERT_TRUE(service_applied.ok())
          << service_applied.status().ToString();
      ASSERT_EQ(service_applied->fragment, applied->fragment);
      std::vector<service::QueryOutcome> outcomes(asts.size());
      size_t served = 0;
      for (size_t qi = 0; qi < asts.size(); ++qi) {
        auto record = [&outcomes, &served,
                       qi](const service::QueryOutcome& o) {
          outcomes[qi] = o;
          ++served;
        };
        ASSERT_TRUE(
            svc.Submit(xpath::Normalize(*asts[qi]), svc.now(), record).ok());
      }
      svc.Run();
      ASSERT_TRUE(svc.status().ok()) << svc.status().ToString();
      ASSERT_EQ(served, asts.size());

      for (size_t qi = 0; qi < prepared.size(); ++qi) {
        const PreparedQuery& p = prepared[qi];
        auto incremental = session->ExecuteIncremental(p);
        ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
        const service::QueryOutcome& outcome = outcomes[qi];

        // From-scratch oracle: a fresh read-only session over the
        // mutated deployment, every registered evaluator.
        auto oracle = Session::Create(
            static_cast<const FragmentSet*>(&scenario.set), &scenario.st);
        ASSERT_TRUE(oracle.ok());
        auto oracle_q = oracle->Prepare(&p.query());
        ASSERT_TRUE(oracle_q.ok());
        for (const std::string& name : names) {
          auto reference =
              oracle->Execute(*oracle_q, {.evaluator = name});
          ASSERT_TRUE(reference.ok()) << reference.status().ToString();
          ASSERT_EQ(incremental->answer, reference->answer)
              << "seed " << seed << " delta " << d << " ("
              << frag::DeltaKindName(delta.kind) << ") evaluator " << name
              << " incremental " << incremental->algorithm;
          ASSERT_EQ(views[qi].answer(), reference->answer)
              << "seed " << seed << " delta " << d << " view";
          ASSERT_EQ(outcome.answer, reference->answer)
              << "seed " << seed << " delta " << d << " service"
              << (outcome.cache_hit ? " (cache hit)" : "");
        }
      }
      ++trials;
    }
  }
  EXPECT_GE(trials, 200u * static_cast<size_t>(TrialMultiplier()));
}

// ---- Locality and traffic accounting -----------------------------------

TEST(IncrementalUpdateTest, DeltaRunVisitsOnlyDirtySites) {
  auto doc = xml::ParseXml(
      "<r><s><a>t0</a><b/></s><t><c>t1</c></t><u><d/></u></r>");
  ASSERT_TRUE(doc.ok());
  auto set_result = FragmentSet::FromDocument(std::move(*doc));
  FragmentSet set = std::move(*set_result);
  // Three sub-fragments on three distinct sites.
  xml::Node* s_node = xml::FindFirstElement(set.fragment(0).root, "s");
  xml::Node* t_node = xml::FindFirstElement(set.fragment(0).root, "t");
  xml::Node* u_node = xml::FindFirstElement(set.fragment(0).root, "u");
  auto f_s = set.Split(0, s_node);
  auto f_t = set.Split(0, t_node);
  auto f_u = set.Split(0, u_node);
  ASSERT_TRUE(f_s.ok() && f_t.ok() && f_u.ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());

  auto session = Session::Create(&set, &*st);
  ASSERT_TRUE(session.ok());
  auto prepared = session->Prepare("[//a or //zzz]");
  ASSERT_TRUE(prepared.ok());

  // Seed pass: a full ParBoX-shaped run, every site visited once.
  auto seeded = session->ExecuteIncremental(*prepared);
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(seeded->algorithm, "IncrementalParBoX[full]");
  EXPECT_TRUE(seeded->answer);
  EXPECT_EQ(seeded->total_visits(), 4u);

  // One delta in fragment f_t: only f_t's site may be revisited, and
  // the update crosses the wire under the "update" tag.
  auto applied = session->Apply(
      Delta::InsertSubtree(*f_t, set.fragment(*f_t).root, "zzz"));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(session->DirtyFragments(*prepared),
            std::vector<FragmentId>{*f_t});

  auto delta_run = session->ExecuteIncremental(*prepared);
  ASSERT_TRUE(delta_run.ok());
  EXPECT_EQ(delta_run->algorithm, "IncrementalParBoX[delta]");
  EXPECT_TRUE(delta_run->answer);
  EXPECT_EQ(delta_run->total_visits(), 1u);
  EXPECT_EQ(session->backend().visits_at(st->site_of(*f_t)), 1u);
  const sim::TrafficStats& traffic = session->backend().traffic();
  EXPECT_EQ(traffic.messages_with_tag("update"), 1u);
  EXPECT_EQ(traffic.messages_with_tag("triplet"), 1u);
  EXPECT_EQ(traffic.messages_with_tag("query"), 0u);
  EXPECT_GE(traffic.bytes_with_tag("update"), applied->wire_bytes);

  // Nothing dirty now: a clean re-execute answers at the coordinator
  // with zero visits and zero traffic.
  auto clean = session->ExecuteIncremental(*prepared);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->algorithm, "IncrementalParBoX[clean]");
  EXPECT_TRUE(clean->answer);
  EXPECT_EQ(clean->total_visits(), 0u);
  EXPECT_EQ(clean->network_messages, 0u);
}

// The far-behind rule: once an Apply finds more than 4 x table-size
// dirty records pending for a query, its next run is a full re-seed
// instead of a delta pass.
TEST(IncrementalUpdateTest, FarBehindQueryReseeds) {
  testutil::RandomScenario scenario = testutil::MakeRandomScenario(11, 60, 3);
  auto session = Session::Create(&scenario.set, &scenario.st);
  ASSERT_TRUE(session.ok());
  auto prepared = session->Prepare("[//a[b] or //c]");
  ASSERT_TRUE(prepared.ok());
  auto seeded = session->ExecuteIncremental(*prepared);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  EXPECT_EQ(seeded->algorithm, "IncrementalParBoX[full]");

  Rng rng(13);
  const size_t limit = 4 * scenario.set.table_size();
  for (const auto& [deltas, algorithm] :
       {std::pair<size_t, std::string>{limit, "IncrementalParBoX[delta]"},
        {limit + 1, "IncrementalParBoX[full]"}}) {
    for (size_t i = 0; i < deltas; ++i) {
      ASSERT_TRUE(
          session->Apply(testutil::RandomDelta(&scenario.set, &rng)).ok());
    }
    auto run = session->ExecuteIncremental(*prepared);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->algorithm, algorithm) << deltas << " deltas";
    auto oracle =
        testutil::Evaluate(scenario.set, scenario.st, prepared->query());
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(run->answer, oracle->answer) << deltas << " deltas";
  }
}

// ---- Targeted semantic flips -------------------------------------------

TEST(IncrementalUpdateTest, EveryDeltaKindFlipsAnswersCorrectly) {
  auto doc = xml::ParseXml("<r><s><a>cold</a></s></r>");
  ASSERT_TRUE(doc.ok());
  auto set_result = FragmentSet::FromDocument(std::move(*doc));
  FragmentSet set = std::move(*set_result);
  xml::Node* s_node = xml::FindFirstElement(set.fragment(0).root, "s");
  auto f = set.Split(0, s_node);
  ASSERT_TRUE(f.ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());

  auto session = Session::Create(&set, &*st);
  ASSERT_TRUE(session.ok());
  auto hot = session->Prepare("[//a/text() = \"hot\"]");
  auto renamed = session->Prepare("[//e]");
  ASSERT_TRUE(hot.ok() && renamed.ok());

  // Every step checks the incremental answer against fresh ParBoX.
  auto check = [&](const PreparedQuery& q, bool expected) {
    auto inc = session->ExecuteIncremental(q);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_EQ(inc->answer, expected);
    auto fresh = testutil::Evaluate(set, *st, q.query());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh->answer, inc->answer);
  };

  check(*hot, false);
  xml::Node* a_node = xml::FindFirstElement(set.fragment(*f).root, "a");
  ASSERT_NE(a_node, nullptr);

  // retext: "cold" -> "hot".
  ASSERT_TRUE(session->Apply(Delta::Retext(*f, a_node, "hot")).ok());
  check(*hot, true);

  // rename-label: <a> -> <e>; [//a/text()="hot"] off, [//e] on.
  check(*renamed, false);
  ASSERT_TRUE(session->Apply(Delta::RenameLabel(*f, a_node, "e")).ok());
  check(*hot, false);
  check(*renamed, true);

  // insert-subtree: a fresh <a>hot</a> satisfies the text query again.
  auto inserted = session->Apply(
      Delta::InsertSubtree(*f, set.fragment(*f).root, "a", "hot"));
  ASSERT_TRUE(inserted.ok());
  check(*hot, true);

  // delete-subtree: removing it flips the answer back off.
  ASSERT_TRUE(
      session->Apply(Delta::DeleteSubtree(*f, inserted->node)).ok());
  check(*hot, false);
  check(*renamed, true);
}

// ---- Writability and state hygiene -------------------------------------

TEST(IncrementalUpdateTest, ReadOnlySessionRejectsApply) {
  auto doc = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  auto set_result = FragmentSet::FromDocument(std::move(*doc));
  FragmentSet set = std::move(*set_result);
  auto st = SourceTree::Create(set, frag::AssignAllToOneSite(set));
  ASSERT_TRUE(st.ok());

  const FragmentSet* read_only = &set;
  auto session = Session::Create(read_only, &*st);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->writable());
  auto applied = session->Apply(
      Delta::Retext(0, set.fragment(0).root, "x"));
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IncrementalUpdateTest, FailedDeltaLeavesDocumentAndStateUntouched) {
  testutil::RandomScenario scenario = testutil::MakeRandomScenario(7, 60, 3);
  auto session = Session::Create(&scenario.set, &scenario.st);
  ASSERT_TRUE(session.ok());
  auto prepared = session->Prepare("[//a]");
  ASSERT_TRUE(prepared.ok());
  auto before = session->ExecuteIncremental(*prepared);
  ASSERT_TRUE(before.ok());

  // Target a node of fragment 0 but claim another fragment: rejected.
  FragmentId other = scenario.set.live_ids().back();
  ASSERT_NE(other, scenario.set.root_fragment());
  auto bad = session->Apply(Delta::Retext(
      other, scenario.set.fragment(scenario.set.root_fragment()).root,
      "t0"));
  ASSERT_FALSE(bad.ok());

  // Nothing went dirty; the next run is a clean coordinator lookup.
  auto after = session->ExecuteIncremental(*prepared);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->algorithm, "IncrementalParBoX[clean]");
  EXPECT_EQ(after->answer, before->answer);
}

}  // namespace
}  // namespace parbox::core
