// The correctness theorem behind ParBoX, checked as a property: for
// every fragment F_j, the formula triplet produced by partial
// evaluation, *evaluated under the resolved values of F_j's
// sub-fragments*, must equal the truth-value triplet produced by
// direct Boolean evaluation of F_j with those sub-fragment values
// plugged in. (I.e., partial evaluation commutes with resolution.)

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "boolexpr/expr.h"
#include "boolexpr/solver.h"
#include "core/partial_eval.h"
#include "core/session.h"
#include "fragment/delta.h"
#include "testutil.h"
#include "xpath/fingerprint.h"
#include "xpath/normalize.h"

namespace parbox::core {
namespace {

using frag::FragmentId;

class PartialEvalPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PartialEvalPropertyTest, PartialEvalCommutesWithResolution) {
  Rng rng(GetParam() * 977 + 3);
  auto scenario = testutil::MakeRandomScenario(GetParam() + 2000, 90, 5);
  const auto& set = scenario.set;
  auto children_table = set.ChildrenTable();

  for (int trial = 0; trial < 6; ++trial) {
    auto ast = testutil::RandomQual(&rng, 3);
    xpath::NormQuery q = xpath::Normalize(*ast);
    const size_t n = q.size();

    // Formula route: partial-evaluate everything, solve the system.
    bexpr::ExprFactory factory;
    std::vector<bexpr::FragmentEquations> equations(set.table_size());
    for (FragmentId f : set.live_ids()) {
      equations[f] = PartialEvalFragment(&factory, q, set, f, nullptr);
    }
    auto assignment = bexpr::SolveBottomUp(
        &factory, equations, children_table, set.root_fragment());
    ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();

    // Boolean route: bottom-up with resolved children, per fragment.
    std::vector<ResolvedVectors> resolved(set.table_size());
    std::vector<std::pair<FragmentId, bool>> stack{
        {set.root_fragment(), false}};
    while (!stack.empty()) {
      auto [f, expanded] = stack.back();
      stack.pop_back();
      if (expanded) {
        resolved[f] = BoolEvalFragment(
            q, set, f,
            [&](FragmentId child) -> const ResolvedVectors& {
              return resolved[child];
            },
            nullptr);
        continue;
      }
      stack.emplace_back(f, true);
      for (int32_t c : children_table[f]) stack.emplace_back(c, false);
    }

    // The two routes must agree entry-by-entry on V and DV of every
    // fragment root.
    for (FragmentId f : set.live_ids()) {
      for (size_t i = 0; i < n; ++i) {
        auto v = assignment->Get(
            {f, bexpr::VectorKind::kV, static_cast<int32_t>(i)});
        auto dv = assignment->Get(
            {f, bexpr::VectorKind::kDV, static_cast<int32_t>(i)});
        ASSERT_TRUE(v.has_value() && dv.has_value());
        EXPECT_EQ(*v, static_cast<bool>(resolved[f].v[i]))
            << "V_F" << f << "[" << i << "] seed " << GetParam()
            << " query " << xpath::ToString(*ast);
        EXPECT_EQ(*dv, static_cast<bool>(resolved[f].dv[i]))
            << "DV_F" << f << "[" << i << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartialEvalPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// The invariants the incremental update pipeline rests on, as a
// property over random scenarios and deltas:
//   * a query's canonical fingerprint is a pure function of its normal
//     form — untouched by backend Reset, executions, or document
//     deltas (so per-fingerprint caches stay keyed correctly), and
//   * within one hash-consing factory, re-running partial evaluation
//     on an *unchanged* fragment yields bit-identical ExprIds — which
//     is exactly why ExecuteIncremental may reuse a clean fragment's
//     retained triplet without re-checking it.
// Scaled by PARBOX_TEST_TRIALS like the other randomized suites.
TEST(IncrementalStabilityTest,
     FingerprintsAndFormulaIdsStableAcrossResetAndDeltas) {
  const uint64_t seeds =
      6 * static_cast<uint64_t>(testutil::TrialMultiplier());

  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    testutil::RandomScenario scenario =
        testutil::MakeRandomScenario(seed + 3000, 80, 5);
    Rng rng(seed * 131 + 7);
    xpath::NormQuery q = xpath::Normalize(*testutil::RandomQual(&rng, 3));

    auto session = core::Session::Create(&scenario.set, &scenario.st);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto prepared = session->Prepare(&q);
    ASSERT_TRUE(prepared.ok());
    const xpath::QueryFingerprint fp_before = prepared->fingerprint();

    // Baseline triplets of every fragment, in the session's factory.
    std::map<FragmentId, bexpr::FragmentEquations> baseline;
    for (FragmentId f : scenario.set.live_ids()) {
      baseline[f] = PartialEvalFragment(&session->factory(), q,
                                        scenario.set, f, nullptr);
    }

    // Perturb the session every way short of changing clean content:
    // execute, rewind the cluster, apply a delta to one fragment.
    ASSERT_TRUE(session->ExecuteIncremental(*prepared).ok());
    session->backend().Reset();
    auto applied =
        session->Apply(testutil::RandomDelta(&scenario.set, &rng));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    // Fingerprints: stable from the same normal form, prepared again.
    auto prepared_again = session->Prepare(&q);
    ASSERT_TRUE(prepared_again.ok());
    EXPECT_EQ(prepared_again->fingerprint(), fp_before);
    EXPECT_EQ(xpath::FingerprintQuery(q), fp_before);

    // Formula identities: every *clean* fragment re-evaluates to the
    // same ExprIds; the dirty one is exempt (its content moved).
    for (FragmentId f : scenario.set.live_ids()) {
      if (f == applied->fragment) continue;
      bexpr::FragmentEquations again = PartialEvalFragment(
          &session->factory(), q, scenario.set, f, nullptr);
      EXPECT_EQ(again.v, baseline[f].v) << "V ids drifted, F" << f;
      EXPECT_EQ(again.cv, baseline[f].cv) << "CV ids drifted, F" << f;
      EXPECT_EQ(again.dv, baseline[f].dv) << "DV ids drifted, F" << f;
    }
  }
}

// Boundary: queries wider than the variable encoding are rejected
// up front rather than producing corrupt VarIds.
TEST(PartialEvalBoundaryTest, OverlyWideQueryRejected) {
  // A descendant chain of k steps has 3k+1 QList entries; k = 1366
  // crosses the 4096 limit.
  std::string text = "[//s0";
  for (int i = 1; i < 1366; ++i) text += "/s" + std::to_string(i);
  text += "]";
  auto q = xpath::CompileQuery(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_GT(q->size(), 4096u);

  auto scenario = testutil::MakeRandomScenario(1, 20, 1);
  auto report = testutil::Evaluate(scenario.set, scenario.st, *q);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// Boundary: the widest allowed query still works end to end.
TEST(PartialEvalBoundaryTest, WidthJustUnderTheLimitWorks) {
  std::string text = "[//s0";
  for (int i = 1; i < 1300; ++i) text += "/s" + std::to_string(i);
  text += "]";
  auto q = xpath::CompileQuery(text);
  ASSERT_TRUE(q.ok());
  ASSERT_LE(q->size(), 4096u);
  auto scenario = testutil::MakeRandomScenario(2, 20, 1);
  auto report = testutil::Evaluate(scenario.set, scenario.st, *q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->answer);  // labels s0..s1299 don't exist
}

}  // namespace
}  // namespace parbox::core
