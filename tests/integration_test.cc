// Cross-cutting integration tests: algorithm x placement-strategy
// sweeps, adversarial fragmentation shapes, negation across fragment
// boundaries, and the fine-grained stats surface.

#include <gtest/gtest.h>

#include "core/session.h"
#include "testutil.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/parser.h"
#include "xpath/eval.h"
#include "xpath/normalize.h"

namespace parbox::core {
namespace {

using frag::FragmentId;
using frag::FragmentSet;
using frag::SourceTree;
using testutil::Evaluate;
using testutil::EvaluateAll;

xpath::NormQuery Compile(std::string_view text) {
  auto q = xpath::CompileQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

FragmentSet SetFrom(std::string_view xml_text) {
  auto doc = xml::ParseXml(xml_text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  auto set = FragmentSet::FromDocument(std::move(*doc));
  EXPECT_TRUE(set.ok());
  return std::move(*set);
}

bool Oracle(const FragmentSet& set, const xpath::NormQuery& q) {
  auto whole = set.Reassemble();
  EXPECT_TRUE(whole.ok());
  auto result = xpath::EvalBoolean(*whole->root(), q);
  EXPECT_TRUE(result.ok());
  return *result;
}

// ---------- Placement strategies x algorithms ----------

enum class Placement { kOnePerFragment, kRoundRobin2, kRoundRobin3,
                       kAllOnOne };

std::vector<frag::SiteId> Place(const FragmentSet& set, Placement p) {
  switch (p) {
    case Placement::kOnePerFragment:
      return frag::AssignOneSitePerFragment(set);
    case Placement::kRoundRobin2:
      return frag::AssignRoundRobin(set, 2);
    case Placement::kRoundRobin3:
      return frag::AssignRoundRobin(set, 3);
    case Placement::kAllOnOne:
      return frag::AssignAllToOneSite(set);
  }
  return {};
}

class PlacementSweepTest
    : public ::testing::TestWithParam<std::tuple<Placement, uint64_t>> {};

TEST_P(PlacementSweepTest, AllAlgorithmsCorrectUnderEveryPlacement) {
  auto [placement, seed] = GetParam();
  Rng rng(seed + 41);
  xml::Document doc = xmark::GenerateRandomSmallDocument(120, &rng);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::RandomSplits(&set, 5, &rng).ok());
  auto st = SourceTree::Create(set, Place(set, placement));
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  for (int i = 0; i < 4; ++i) {
    auto ast = testutil::RandomQual(&rng, 3);
    xpath::NormQuery q = xpath::Normalize(*ast);
    bool expected = Oracle(set, q);
    auto reports = EvaluateAll(set, *st, q);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    for (const RunReport& r : *reports) {
      EXPECT_EQ(r.answer, expected)
          << r.algorithm << " under placement "
          << static_cast<int>(placement) << " seed " << seed << " query "
          << xpath::ToString(*ast);
    }
    // The thread-pool backend must agree through the unified path.
    auto threaded_session = Session::Create(
        static_cast<const FragmentSet*>(&set), &*st,
        core::SessionOptions{.backend = "threads"});
    ASSERT_TRUE(threaded_session.ok());
    auto threaded_q = threaded_session->Prepare(&q);
    ASSERT_TRUE(threaded_q.ok());
    auto threaded = threaded_session->Execute(*threaded_q);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    EXPECT_EQ(threaded->answer, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementSweepTest,
    ::testing::Combine(::testing::Values(Placement::kOnePerFragment,
                                         Placement::kRoundRobin2,
                                         Placement::kRoundRobin3,
                                         Placement::kAllOnOne),
                       ::testing::Range<uint64_t>(0, 6)));

// ---------- Adversarial fragmentation shapes ----------

TEST(ShapeTest, FiftyFragmentChain) {
  // A pathological 50-deep fragment chain: every algorithm must still
  // agree, and ParBoX must still visit every site exactly once.
  xml::Document doc;
  xml::Node* cur = doc.NewElement("n");
  doc.set_root(cur);
  for (int i = 0; i < 50; ++i) {
    xml::Node* next = doc.NewElement("n");
    doc.AppendChild(cur, next);
    doc.AppendChild(cur, doc.NewElement("pad"));
    cur = next;
  }
  doc.AppendChild(cur, doc.NewElement("needle"));
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  // Split at every nested <n>: a 51-fragment chain.
  xml::Node* walk = set.fragment(0).root->first_child;
  FragmentId owner = 0;
  while (walk != nullptr) {
    if (walk->is_element() && walk->label() == "n") {
      auto id = set.Split(owner, walk);
      ASSERT_TRUE(id.ok());
      owner = *id;
      walk = set.fragment(owner).root->first_child;
    } else {
      walk = walk->next_sibling;
    }
  }
  ASSERT_EQ(set.live_count(), 51u);
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->max_depth(), 50);

  xpath::NormQuery q = Compile("[//needle]");
  bool expected = Oracle(set, q);
  EXPECT_TRUE(expected);
  auto reports = EvaluateAll(set, *st, q);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  for (const RunReport& r : *reports) {
    EXPECT_EQ(r.answer, expected) << r.algorithm;
  }
  auto parbox = Evaluate(set, *st, q);
  ASSERT_TRUE(parbox.ok());
  EXPECT_EQ(parbox->max_visits_per_site(), 1u);
}

TEST(ShapeTest, WideStarOfFortyFragments) {
  xml::Document doc = xmark::GenerateStarDocument(40, 600, 3);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::SplitAtAllLabeled(&set, "site").ok());
  ASSERT_EQ(set.live_count(), 41u);
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  auto q = xmark::MakeMarkerQuery("m39");
  ASSERT_TRUE(q.ok());
  auto parbox = Evaluate(set, *st, *q);
  ASSERT_TRUE(parbox.ok());
  EXPECT_TRUE(parbox->answer);
  EXPECT_EQ(parbox->total_visits(), 41u);
  EXPECT_EQ(parbox->max_visits_per_site(), 1u);
}

TEST(ShapeTest, FragmentRootIsQueryTarget) {
  // The split point itself (fragment root) satisfies the step: the
  // virtual-node handoff must not lose the match.
  FragmentSet set = SetFrom("<r><a><b/></a></r>");
  auto f1 = set.Split(0, xml::FindFirstElement(set.fragment(0).root, "a"));
  ASSERT_TRUE(f1.ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  for (const char* text : {"[a]", "[//a]", "[a/b]", "[//b]", "[*]"}) {
    xpath::NormQuery q = Compile(text);
    auto report = Evaluate(set, *st, q);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->answer) << text;
  }
}

// ---------- Negation across fragment boundaries ----------

TEST(NegationTest, NotOverRemoteEvidence) {
  // not(//needle) where the needle sits two fragments deep: the
  // formula ¬(dv...) must resolve correctly through unification.
  FragmentSet set = SetFrom("<r><a><b><needle/></b></a></r>");
  auto f1 = set.Split(0, xml::FindFirstElement(set.fragment(0).root, "a"));
  ASSERT_TRUE(f1.ok());
  auto f2 =
      set.Split(*f1, xml::FindFirstElement(set.fragment(*f1).root, "b"));
  ASSERT_TRUE(f2.ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());

  xpath::NormQuery positive = Compile("[//needle]");
  xpath::NormQuery negative = Compile("[not(//needle)]");
  xpath::NormQuery double_neg = Compile("[not(not(//needle))]");
  EXPECT_TRUE(Evaluate(set, *st, positive)->answer);
  EXPECT_FALSE(Evaluate(set, *st, negative)->answer);
  EXPECT_TRUE(Evaluate(set, *st, double_neg)->answer);
}

TEST(NegationTest, MixedPolarityAcrossFragments) {
  FragmentSet set =
      SetFrom("<r><left><x/></left><right><y/></right></r>");
  ASSERT_TRUE(
      set.Split(0, xml::FindFirstElement(set.fragment(0).root, "left"))
          .ok());
  ASSERT_TRUE(
      set.Split(0, xml::FindFirstElement(set.fragment(0).root, "right"))
          .ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(Evaluate(set, *st, Compile("[//x and not(//z)]"))->answer);
  EXPECT_FALSE(Evaluate(set, *st, Compile("[//x and not(//y)]"))->answer);
  EXPECT_TRUE(
      Evaluate(set, *st, Compile("[not(//x) or not(//z)]"))->answer);
}

// ---------- Stats surface ----------

TEST(StatsTest, ReportBreaksTrafficDownByKind) {
  auto scenario = testutil::MakeRandomScenario(4, 100, 4);
  xpath::NormQuery q = Compile("[//a]");
  auto parbox = Evaluate(scenario.set, scenario.st, q);
  ASSERT_TRUE(parbox.ok());
  EXPECT_GT(parbox->stats.CounterValue("net.query.bytes"), 0u);
  EXPECT_GT(parbox->stats.CounterValue("net.triplet.bytes"), 0u);
  EXPECT_EQ(parbox->stats.CounterValue("net.query.bytes") +
                parbox->stats.CounterValue("net.triplet.bytes"),
            parbox->network_bytes);
  // The backend-specific event counter: simulator events, or executed
  // tasks on the thread pool.
  EXPECT_GT(parbox->stats.CounterValue("exec.sim.events") +
                parbox->stats.CounterValue("exec.tasks"),
            0u);

  auto central = Evaluate(scenario.set, scenario.st, q, "central");
  ASSERT_TRUE(central.ok());
  EXPECT_GT(central->stats.CounterValue("net.data.bytes"), 0u);
}

// ---------- Unicode and odd content ----------

TEST(ContentTest, UnicodeTextMatches) {
  FragmentSet set = SetFrom(
      "<r><name>S\xC3\xB8ren</name><city>M\xC3\xBCnchen</city></r>");
  auto st = SourceTree::Create(set, frag::AssignAllToOneSite(set));
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(
      Evaluate(set, *st, Compile("[name = \"S\xC3\xB8ren\"]"))->answer);
  EXPECT_FALSE(
      Evaluate(set, *st, Compile("[name = \"Soren\"]"))->answer);
}

TEST(ContentTest, EmptyAndWhitespaceText) {
  FragmentSet set = SetFrom("<r><a></a><b>  </b></r>");
  auto st = SourceTree::Create(set, frag::AssignAllToOneSite(set));
  ASSERT_TRUE(st.ok());
  // Whitespace-only text is skipped by the parser, so both are empty.
  EXPECT_TRUE(Evaluate(set, *st, Compile("[a/text() = \"\"]"))->answer);
  EXPECT_TRUE(Evaluate(set, *st, Compile("[b/text() = \"\"]"))->answer);
}

}  // namespace
}  // namespace parbox::core
