#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "fragment/fragment.h"
#include "fragment/placement.h"
#include "fragment/source_tree.h"
#include "fragment/strategies.h"
#include "xmark/generator.h"
#include "xmark/portfolio.h"
#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace parbox::frag {
namespace {

FragmentSet SetFrom(std::string_view xml_text) {
  auto doc = xml::ParseXml(xml_text);
  EXPECT_TRUE(doc.ok());
  auto set = FragmentSet::FromDocument(std::move(*doc));
  EXPECT_TRUE(set.ok());
  return std::move(*set);
}

TEST(FragmentTest, SingleFragmentFromDocument) {
  FragmentSet set = SetFrom("<r><a/><b/></r>");
  EXPECT_EQ(set.live_count(), 1u);
  EXPECT_EQ(set.root_fragment(), 0);
  EXPECT_EQ(set.fragment(0).parent, kNoFragment);
  EXPECT_TRUE(set.Validate().ok());
}

TEST(FragmentTest, RejectsEmptyDocument) {
  xml::Document doc;
  EXPECT_FALSE(FragmentSet::FromDocument(std::move(doc)).ok());
}

TEST(FragmentTest, SplitCreatesVirtualNode) {
  FragmentSet set = SetFrom("<r><a><c/></a><b/></r>");
  xml::Node* a = xml::FindFirstElement(set.fragment(0).root, "a");
  auto id = set.Split(0, a);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 1);
  EXPECT_EQ(set.live_count(), 2u);
  EXPECT_EQ(set.fragment(1).parent, 0);
  EXPECT_EQ(set.fragment(0).children, std::vector<FragmentId>{1});
  // The placeholder sits where <a> was.
  xml::Node* first = set.fragment(0).root->first_child;
  EXPECT_TRUE(first->is_virtual());
  EXPECT_EQ(first->fragment_ref, 1);
  EXPECT_TRUE(set.Validate().ok());
}

TEST(FragmentTest, SplitErrors) {
  FragmentSet set = SetFrom("<r><a/></r>");
  // Not the root of the fragment.
  EXPECT_FALSE(set.Split(0, set.fragment(0).root).ok());
  // Null / non-element.
  EXPECT_FALSE(set.Split(0, nullptr).ok());
  // Dead fragment id.
  xml::Node* a = xml::FindFirstElement(set.fragment(0).root, "a");
  EXPECT_FALSE(set.Split(7, a).ok());
}

TEST(FragmentTest, SplitNodeFromWrongFragmentRejected) {
  FragmentSet set = SetFrom("<r><a><c/></a></r>");
  xml::Node* a = xml::FindFirstElement(set.fragment(0).root, "a");
  ASSERT_TRUE(set.Split(0, a).ok());
  // <c> now lives in fragment 1, not 0.
  xml::Node* c = xml::FindFirstElement(set.fragment(1).root, "c");
  EXPECT_FALSE(set.Split(0, c).ok());
  EXPECT_TRUE(set.Split(1, c).ok());
}

TEST(FragmentTest, NestedSplitReparentsSubFragments) {
  // Split <a>, then split <outer> (which contains the virtual node for
  // <a>'s fragment): the sub-fragment must re-parent.
  FragmentSet set = SetFrom("<r><outer><a><c/></a><d/></outer></r>");
  xml::Node* a = xml::FindFirstElement(set.fragment(0).root, "a");
  ASSERT_TRUE(set.Split(0, a).ok());  // F1 = <a>
  xml::Node* outer = xml::FindFirstElement(set.fragment(0).root, "outer");
  auto f2 = set.Split(0, outer);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(set.fragment(1).parent, *f2);
  EXPECT_EQ(set.fragment(*f2).children, std::vector<FragmentId>{1});
  EXPECT_TRUE(set.fragment(0).children == std::vector<FragmentId>{*f2});
  EXPECT_TRUE(set.Validate().ok());
}

TEST(FragmentTest, ReassembleRestoresOriginal) {
  auto original = xml::ParseXml("<r><a><c>t</c></a><b><d/></b></r>");
  ASSERT_TRUE(original.ok());
  xml::Document copy;
  copy.set_root(copy.DeepCopy(original->root()));

  auto set_result = FragmentSet::FromDocument(std::move(*original));
  ASSERT_TRUE(set_result.ok());
  FragmentSet set = std::move(*set_result);
  set.Split(0, xml::FindFirstElement(set.fragment(0).root, "a")).value();
  set.Split(0, xml::FindFirstElement(set.fragment(0).root, "b")).value();
  set.Split(1, xml::FindFirstElement(set.fragment(1).root, "c")).value();

  auto whole = set.Reassemble();
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(xml::TreeEquals(copy.root(), whole->root()));
}

TEST(FragmentTest, MergeInversesSplit) {
  auto original = xml::ParseXml("<r><a><c/></a><b/></r>");
  ASSERT_TRUE(original.ok());
  xml::Document copy;
  copy.set_root(copy.DeepCopy(original->root()));

  auto set_result = FragmentSet::FromDocument(std::move(*original));
  FragmentSet set = std::move(*set_result);
  auto f1 = set.Split(0, xml::FindFirstElement(set.fragment(0).root, "a"));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(set.Merge(*f1).ok());
  EXPECT_EQ(set.live_count(), 1u);
  EXPECT_FALSE(set.is_live(*f1));
  EXPECT_TRUE(set.Validate().ok());
  EXPECT_TRUE(xml::TreeEquals(copy.root(), set.fragment(0).root));
}

TEST(FragmentTest, MergePromotesGrandchildren) {
  FragmentSet set = SetFrom("<r><a><c><e/></c></a></r>");
  auto f1 = set.Split(0, xml::FindFirstElement(set.fragment(0).root, "a"));
  auto f2 = set.Split(*f1, xml::FindFirstElement(set.fragment(*f1).root, "c"));
  ASSERT_TRUE(f2.ok());
  // Merge the middle fragment: F2 becomes a child of F0.
  ASSERT_TRUE(set.Merge(*f1).ok());
  EXPECT_EQ(set.fragment(*f2).parent, 0);
  EXPECT_EQ(set.fragment(0).children, std::vector<FragmentId>{*f2});
  EXPECT_TRUE(set.Validate().ok());
}

TEST(FragmentTest, MergeRootRejected) {
  FragmentSet set = SetFrom("<r><a/></r>");
  EXPECT_FALSE(set.Merge(0).ok());
}

TEST(FragmentTest, SizesAndBytes) {
  FragmentSet set = SetFrom("<r><a><c/><d/></a><b/></r>");
  size_t total_before = set.TotalElements();
  EXPECT_EQ(total_before, 5u);
  auto f1 = set.Split(0, xml::FindFirstElement(set.fragment(0).root, "a"));
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(set.FragmentElements(0), 2u);  // r, b
  EXPECT_EQ(set.FragmentElements(*f1), 3u);
  EXPECT_EQ(set.TotalElements(), total_before);  // splits are disjoint
  EXPECT_GT(set.FragmentSerializedBytes(0), 0u);
}

TEST(FragmentTest, FindVirtualRef) {
  FragmentSet set = SetFrom("<r><a/></r>");
  auto f1 = set.Split(0, xml::FindFirstElement(set.fragment(0).root, "a"));
  xml::Node* v = FindVirtualRef(set, 0, *f1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->fragment_ref, *f1);
  EXPECT_EQ(FindVirtualRef(set, 0, 99), nullptr);
}

// ---------- Portfolio fragmentation (the paper's Fig. 2) ----------

TEST(PortfolioTest, FourFragmentsAsInFig2) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->live_count(), 4u);
  // Fragment tree: F1 and F3 are children of F0; F2 is a child of F1.
  EXPECT_EQ(set->fragment(1).parent, 0);
  EXPECT_EQ(set->fragment(2).parent, 1);
  EXPECT_EQ(set->fragment(3).parent, 0);
  // F2 and F3 are leaf fragments.
  EXPECT_TRUE(set->fragment(2).children.empty());
  EXPECT_TRUE(set->fragment(3).children.empty());
}

TEST(PortfolioTest, ReassemblesToOriginalDocument) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto whole = set->Reassemble();
  ASSERT_TRUE(whole.ok());
  xml::Document original = xmark::BuildPortfolioDocument();
  EXPECT_TRUE(xml::TreeEquals(original.root(), whole->root()));
}

TEST(PortfolioTest, FragmentContentsMatchPaper) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  // F1 is Merill Lynch's broker; its market subtree (F2) is virtual.
  EXPECT_EQ(set->fragment(1).root->label(), "broker");
  EXPECT_NE(xml::FindFirstElement(set->fragment(1).root, "name"), nullptr);
  EXPECT_EQ(xml::FindFirstElement(set->fragment(1).root, "market"), nullptr);
  // F2 holds GOOG and YHOO; F3 holds AAPL and GOOG.
  EXPECT_NE(xml::FindFirstElement(set->fragment(2).root, "code"), nullptr);
  EXPECT_EQ(xml::CountVirtuals(set->fragment(2).root), 0u);
  EXPECT_EQ(set->fragment(3).root->label(), "market");
}

// ---------- Source tree ----------

TEST(SourceTreeTest, PaperAssignment) {
  // Fig. 2(b): F0 -> S0, F1 -> S1, F2 -> S2, F3 -> S2.
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st->num_sites(), 3);
  EXPECT_EQ(st->site_of(3), 2);
  EXPECT_EQ(st->fragments_at(2), (std::vector<FragmentId>{2, 3}));
  EXPECT_EQ(st->depth_of(0), 0);
  EXPECT_EQ(st->depth_of(1), 1);
  EXPECT_EQ(st->depth_of(2), 2);
  EXPECT_EQ(st->depth_of(3), 1);
  EXPECT_EQ(st->max_depth(), 2);
  EXPECT_EQ(st->fragments_at_depth(1), (std::vector<FragmentId>{1, 3}));
  EXPECT_EQ(st->parent_of(2), 1);
}

TEST(SourceTreeTest, MissingSiteRejected) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(SourceTree::Create(*set, {0, 1, -1, 2}).ok());
  EXPECT_FALSE(SourceTree::Create(*set, {0}).ok());
}

// ---------- Strategies ----------

TEST(StrategiesTest, SplitAtAllLabeled) {
  xml::Document doc = xmark::GenerateStarDocument(4, 4000, 7);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  auto created = SplitAtAllLabeled(&set, "site");
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->size(), 4u);
  EXPECT_EQ(set.live_count(), 5u);
  for (FragmentId f : *created) {
    EXPECT_EQ(set.fragment(f).root->label(), "site");
    EXPECT_EQ(set.fragment(f).parent, 0);
  }
  EXPECT_TRUE(set.Validate().ok());
}

TEST(StrategiesTest, SplitAtAllLabeledChainNests) {
  xml::Document doc = xmark::GenerateChainDocument(4, 3000, 7);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  // The root itself is a <site>; the three nested ones split out,
  // forming a chain F0 <- F1 <- F2 <- F3.
  auto created = SplitAtAllLabeled(&set, "site");
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(set.live_count(), 4u);
  auto st = SourceTree::Create(set, AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->max_depth(), 3);
}

TEST(StrategiesTest, RandomSplitsRespectBudget) {
  Rng rng(3);
  xml::Document doc = xmark::GenerateRandomSmallDocument(200, &rng);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  auto created = RandomSplits(&set, 6, &rng);
  ASSERT_TRUE(created.ok());
  EXPECT_LE(created->size(), 6u);
  EXPECT_TRUE(set.Validate().ok());
  auto whole = set.Reassemble();
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(xml::CountElements(whole->root()), set.TotalElements());
}

TEST(StrategiesTest, Assignments) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto per_fragment = AssignOneSitePerFragment(*set);
  EXPECT_EQ(per_fragment, (std::vector<SiteId>{0, 1, 2, 3}));
  auto one_site = AssignAllToOneSite(*set);
  EXPECT_EQ(one_site, (std::vector<SiteId>{0, 0, 0, 0}));
  auto rr = AssignRoundRobin(*set, 3);
  EXPECT_EQ(rr[set->root_fragment()], 0);
  for (FragmentId f : set->live_ids()) {
    EXPECT_GE(rr[f], 0);
    EXPECT_LT(rr[f], 3);
  }
}

// ---- Placement: the mutable h -----------------------------------------

TEST(PlacementTest, CreateValidatesLikeSourceTree) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  // Too-short table rejected.
  EXPECT_FALSE(Placement::Create(*set, {0, 1}).ok());
  // Live fragment without a site rejected.
  EXPECT_FALSE(Placement::Create(*set, {0, -1, 1, 2}).ok());
  // Assignment naming a site beyond num_sites rejected.
  EXPECT_FALSE(Placement::Create(*set, {0, 1, 2, 3}, 3).ok());

  auto p = Placement::Create(*set, {0, 1, 2, 3});
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->num_sites(), 4);
  EXPECT_EQ(p->epoch(), 0u);
  // Extra idle sites are allowed (room to migrate into).
  auto roomy = Placement::Create(*set, {0, 1, 2, 3}, 6);
  ASSERT_TRUE(roomy.ok());
  EXPECT_EQ(roomy->num_sites(), 6);
}

TEST(PlacementTest, MoveValidatesAndBumpsEpoch) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto p = Placement::Create(*set, {0, 1, 2, 3});
  ASSERT_TRUE(p.ok());

  // The root fragment is pinned to the coordinator.
  EXPECT_FALSE(p->Move(*set, set->root_fragment(), 1).ok());
  // Dead fragment / out-of-range site rejected.
  EXPECT_FALSE(p->Move(*set, 99, 1).ok());
  EXPECT_FALSE(p->Move(*set, 1, 4).ok());
  EXPECT_FALSE(p->Move(*set, 1, -1).ok());
  EXPECT_EQ(p->epoch(), 0u);

  // A no-op move is OK but bumps nothing.
  ASSERT_TRUE(p->Move(*set, 1, 1).ok());
  EXPECT_EQ(p->epoch(), 0u);

  ASSERT_TRUE(p->Move(*set, 1, 3).ok());
  EXPECT_EQ(p->epoch(), 1u);
  EXPECT_EQ(p->site_of(1), 3);
  ASSERT_TRUE(p->Move(*set, 2, 3).ok());
  EXPECT_EQ(p->epoch(), 2u);
}

TEST(PlacementTest, SnapshotStampsEpochAndKeepsSiteCount) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto p = Placement::Create(*set, {0, 1, 2, 3});
  ASSERT_TRUE(p.ok());

  auto st0 = p->Snapshot(*set);
  ASSERT_TRUE(st0.ok());
  EXPECT_EQ(st0->placement_epoch(), 0u);
  EXPECT_EQ(st0->num_sites(), 4);

  // Moving fragment 3 onto site 0 empties site 3; the snapshot must
  // keep the placement's 4 sites anyway (the substrate was sized for
  // them), and carry the new epoch.
  ASSERT_TRUE(p->Move(*set, 3, 0).ok());
  auto st1 = p->Snapshot(*set);
  ASSERT_TRUE(st1.ok());
  EXPECT_EQ(st1->placement_epoch(), 1u);
  EXPECT_EQ(st1->num_sites(), 4);
  EXPECT_EQ(st1->site_of(3), 0);
  EXPECT_TRUE(st1->fragments_at(3).empty());
  // The older snapshot is untouched (immutable view semantics).
  EXPECT_EQ(st0->site_of(3), 3);
}

TEST(PlacementTest, SnapshotFailsForSplitOffFragmentWithoutSite) {
  FragmentSet set = SetFrom("<r><a><b><c/></b></a></r>");
  auto p = Placement::Create(set, {0}, 2);
  ASSERT_TRUE(p.ok());
  xml::Node* b = xml::FindFirstElement(set.fragment(0).root, "b");
  auto f = set.Split(0, b);
  ASSERT_TRUE(f.ok());
  // The split-off fragment has no site in the placement.
  EXPECT_FALSE(p->Snapshot(set).ok());
}

// ---- Load-aware rebalance ----------------------------------------------

TEST(PlacementTest, ProposeRebalanceShiftsLoadOffHotSite) {
  // 1 + 6 fragments; the root alone on site 0, everything else piled
  // onto site 1 of a 4-site placement.
  Rng rng(17);
  xml::Document doc = xmark::GenerateRandomSmallDocument(300, &rng);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(RandomSplits(&set, 6, &rng).ok());
  std::vector<SiteId> site_of(set.table_size(), 1);
  site_of[set.root_fragment()] = 0;
  auto p = Placement::Create(set, std::move(site_of), 4);
  ASSERT_TRUE(p.ok());

  // Observed load: site 1 got all the visits and bytes.
  std::vector<uint64_t> visits = {1, 60, 0, 0};
  std::vector<uint64_t> bytes = {512, 1 << 20, 0, 0};
  const std::vector<ProposedMove> moves =
      ProposeRebalance(set, *p, visits, bytes, {});
  ASSERT_FALSE(moves.empty());
  for (const ProposedMove& m : moves) {
    EXPECT_NE(m.fragment, set.root_fragment());
    EXPECT_EQ(m.from, 1);
    EXPECT_NE(m.to, 1);
    EXPECT_GE(m.to, 0);
    EXPECT_LT(m.to, 4);
  }
  // Deterministic: the same inputs propose the same plan.
  const std::vector<ProposedMove> again =
      ProposeRebalance(set, *p, visits, bytes, {});
  ASSERT_EQ(moves.size(), again.size());
  for (size_t i = 0; i < moves.size(); ++i) {
    EXPECT_EQ(moves[i].fragment, again[i].fragment);
    EXPECT_EQ(moves[i].to, again[i].to);
  }
  // max_moves is honored.
  EXPECT_LE(ProposeRebalance(set, *p, visits, bytes, {.max_moves = 1})
                .size(),
            1u);
  // Balanced load proposes nothing.
  EXPECT_TRUE(ProposeRebalance(set, *p, {5, 5, 5, 5}, {0, 0, 0, 0}, {})
                  .empty());
}

TEST(PlacementTest, FeedPublishesEpochsAndDedupsMoves) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto p = Placement::Create(*set, {0, 1, 2, 3});
  ASSERT_TRUE(p.ok());
  PlacementFeed feed;
  auto snap = [&] {
    auto st = p->Snapshot(*set);
    EXPECT_TRUE(st.ok());
    return std::make_shared<const SourceTree>(std::move(*st));
  };
  feed.Publish(snap(), {});
  EXPECT_EQ(feed.epoch(), 1u);
  const uint64_t seen = feed.epoch();

  ASSERT_TRUE(p->Move(*set, 1, 3).ok());
  feed.Publish(snap(), {1});
  ASSERT_TRUE(p->Move(*set, 2, 3).ok());
  feed.Publish(snap(), {2});
  ASSERT_TRUE(p->Move(*set, 1, 2).ok());
  feed.Publish(snap(), {1});

  EXPECT_EQ(feed.epoch(), 4u);
  EXPECT_EQ(feed.MovedSince(seen), (std::vector<FragmentId>{1, 2}));
  EXPECT_EQ(feed.MovedSince(3), (std::vector<FragmentId>{1}));
  EXPECT_TRUE(feed.MovedSince(4).empty());
  EXPECT_EQ(feed.snapshot()->site_of(1), 2);
}

// Satellite of the scale work: an integer-width guard. Splitting a
// 10'000-site star document yields virtual refs across the whole id
// range in one serialized fragment; writing and reparsing must round-
// trip every id exactly — this is the scale where a narrow counter or
// length field in the writer/parser path would first fold ids onto
// each other.
TEST(FragmentScaleTest, TenThousandFragmentDocumentRoundTripsIds) {
  xml::Document doc = xmark::GenerateScaledStarDocument(
      /*num_sites=*/10050, /*nodes_per_site=*/4, /*seed=*/11);
  auto set = FragmentSet::FromDocument(std::move(doc));
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(SplitAtAllLabeled(&*set, "site").ok());
  ASSERT_GE(set->live_count(), 10000u);
  ASSERT_TRUE(set->Validate().ok());

  // In-order virtual refs of a subtree, iteratively (10k-wide tree).
  auto refs_of = [](const xml::Node* root) {
    std::vector<xml::FragmentId> refs;
    std::vector<const xml::Node*> stack{root};
    while (!stack.empty()) {
      const xml::Node* n = stack.back();
      stack.pop_back();
      if (n->is_virtual()) refs.push_back(n->fragment_ref);
      for (const xml::Node* c = n->last_child; c != nullptr;
           c = c->prev_sibling) {
        stack.push_back(c);
      }
    }
    return refs;
  };

  const xml::Node* root = set->fragment(set->root_fragment()).root;
  const std::string text = xml::WriteXml(root);
  auto reparsed = xml::ParseXml(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const std::vector<xml::FragmentId> before = refs_of(root);
  const std::vector<xml::FragmentId> after = refs_of(reparsed->root());
  ASSERT_EQ(before.size(), set->live_count() - 1);
  EXPECT_EQ(before, after);

  // And the top of FragmentId's range survives verbatim.
  xml::Document tiny;
  xml::Node* r = tiny.NewElement("r");
  tiny.set_root(r);
  tiny.AppendChild(
      r, tiny.NewVirtual(std::numeric_limits<xml::FragmentId>::max()));
  auto round = xml::ParseXml(xml::WriteXml(r));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->root()->first_child->fragment_ref,
            std::numeric_limits<xml::FragmentId>::max());
}

}  // namespace
}  // namespace parbox::frag
