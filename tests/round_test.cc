// One request and one reply per site for every caller of core::Round.
//
// The deployment is the paper's portfolio placed {0, 1, 2, 2}: the
// coordinator (site 0) holds F0, site 1 holds F1, and site 2 holds
// both F2 and F3. A round visits each participating site once and
// gets exactly one "triplet" message back from each non-coordinator
// site — one for site 2, not one per fragment. LazyParBoX's first
// step covers F0 and the depth-1 fragments, so it is checked on
// {0, 2, 1, 2}, where site 2 holds two fragments of that step. The
// suite runs on the session-default backend and is re-run whole under
// threads and proc:2 (`ctest -L backends`); the view always meters on
// its own sim.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/path_selection.h"
#include "core/selection.h"
#include "core/session.h"
#include "core/view.h"
#include "fragment/delta.h"
#include "fragment/source_tree.h"
#include "service/query_service.h"
#include "xmark/portfolio.h"
#include "xpath/normalize.h"

namespace parbox {
namespace {

using core::Session;
using frag::Delta;

const std::vector<frag::SiteId> kSites = {0, 1, 2, 2};

struct Deployment {
  frag::FragmentSet set;
  frag::SourceTree st;
};

Deployment MakeDeployment(
    const std::vector<frag::SiteId>& sites = kSites) {
  auto set = xmark::BuildPortfolioFragments();
  EXPECT_TRUE(set.ok());
  auto st = frag::SourceTree::Create(*set, sites);
  EXPECT_TRUE(st.ok());
  return Deployment{std::move(*set), std::move(*st)};
}

xpath::NormQuery Compile(const char* text) {
  auto q = xpath::CompileQuery(text);
  EXPECT_TRUE(q.ok()) << text;
  return std::move(*q);
}

/// Every site of `visited` was visited once, the others never, and
/// each visited non-coordinator site (all but site 0) got one
/// `request_tag` message and sent one "triplet" reply.
void ExpectOneReplyPerSite(const exec::ExecBackend& backend,
                           const std::vector<uint64_t>& visited,
                           const char* request_tag) {
  EXPECT_EQ(backend.visits(), visited);
  uint64_t remote = 0;
  for (size_t s = 1; s < visited.size(); ++s) remote += visited[s];
  EXPECT_EQ(backend.traffic().messages_with_tag(request_tag), remote);
  EXPECT_EQ(backend.traffic().messages_with_tag("triplet"), remote);
}

TEST(RoundTest, ParBoXEvaluatorRepliesOncePerSite) {
  Deployment d = MakeDeployment();
  auto session = Session::Create(&d.set, &d.st);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto q = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(q.ok());
  auto report = session->Execute(*q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->answer);
  ExpectOneReplyPerSite(session->backend(), {1, 1, 1}, "query");
  EXPECT_EQ(report->stats.CounterValue("net.triplet.messages"), 2u);
}

TEST(RoundTest, LazyStepRepliesOncePerSite) {
  // F1 and F3 both sit at depth 1 on site 2: the first step (F0 plus
  // depth 1) visits site 2 once and gets one reply for both; the
  // second step reaches F2 on site 1.
  Deployment d = MakeDeployment({0, 2, 1, 2});
  auto session = Session::Create(&d.set, &d.st);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto q = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(q.ok());
  auto report = session->Execute(*q, {.evaluator = "lazy"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->answer);
  ExpectOneReplyPerSite(session->backend(), {1, 1, 1}, "query");
  EXPECT_EQ(report->network_messages, 4u);
}

TEST(RoundTest, SelectionFirstPassRepliesOncePerSite) {
  Deployment d = MakeDeployment();
  auto session = Session::Create(&d.set, &d.st);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto q = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(q.ok());
  auto result = core::RunSelectionParBoX(*session, *q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Pass 1 and pass 2: two visits per site, never more.
  EXPECT_EQ(result->report.visits_per_site,
            (std::vector<uint64_t>{2, 2, 2}));
  EXPECT_EQ(result->report.stats.CounterValue("net.query.messages"), 2u);
  EXPECT_EQ(result->report.stats.CounterValue("net.triplet.messages"), 2u);
  // Plus pass 2's "values" out and "result" back, per remote site.
  EXPECT_EQ(result->report.network_messages, 8u);
}

TEST(RoundTest, PathSelectionUpPassRepliesOncePerSite) {
  Deployment d = MakeDeployment();
  auto selection = xpath::CompileSelection("//stock");
  ASSERT_TRUE(selection.ok());
  auto session = Session::Create(&d.set, &d.st);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto result = core::RunPathSelection(*session, *selection);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->total_selected, 0u);
  // Up pass and down pass: two visits per site, never more.
  EXPECT_EQ(result->report.visits_per_site,
            (std::vector<uint64_t>{2, 2, 2}));
  EXPECT_EQ(result->report.stats.CounterValue("net.query.messages"), 2u);
  EXPECT_EQ(result->report.stats.CounterValue("net.triplet.messages"), 2u);
}

TEST(RoundTest, IncrementalFullAndDeltaPassesReplyOncePerSite) {
  Deployment d = MakeDeployment();
  auto session = Session::Create(std::move(d.set), std::move(d.st));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto q = session->Prepare("[//zzz]");
  ASSERT_TRUE(q.ok());

  auto full = session->ExecuteIncremental(*q);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->algorithm, "IncrementalParBoX[full]");
  EXPECT_FALSE(full->answer);
  ExpectOneReplyPerSite(session->backend(), {1, 1, 1}, "query");

  // Two dirty fragments on one site: one "update" there, one reply.
  for (frag::FragmentId f : {2, 3}) {
    auto applied = session->Apply(
        Delta::InsertSubtree(f, session->set().fragment(f).root, "zzz"));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
  EXPECT_EQ(session->DirtyFragments(*q),
            (std::vector<frag::FragmentId>{2, 3}));
  auto delta = session->ExecuteIncremental(*q);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->algorithm, "IncrementalParBoX[delta]");
  EXPECT_TRUE(delta->answer);
  ExpectOneReplyPerSite(session->backend(), {0, 0, 1}, "update");
  EXPECT_EQ(session->backend().traffic().messages_with_tag("query"), 0u);

  auto fresh = session->Execute(*q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->answer, delta->answer);
}

TEST(RoundTest, ServiceRoundRepliesOncePerSite) {
  Deployment d = MakeDeployment();
  service::QueryService svc(&d.set, &d.st);
  ASSERT_TRUE(svc.status().ok()) << svc.status().ToString();
  for (const char* text : {xmark::kYhooQuery, xmark::kGoogSellQuery,
                           xmark::kMerillQuery}) {
    ASSERT_TRUE(svc.Submit(Compile(text), 0.0).ok());
  }
  svc.Run();
  ASSERT_TRUE(svc.status().ok()) << svc.status().ToString();
  const service::ServiceReport report = svc.BuildReport();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.rounds, 1u);
  EXPECT_EQ(report.unique_evaluations, 3u);
  ExpectOneReplyPerSite(svc.backend(), {1, 1, 1}, "query");
}

TEST(RoundTest, ViewRefreshRepliesOnce) {
  Deployment d = MakeDeployment();
  xpath::NormQuery q = Compile("[//stock[code = \"MSFT\"]]");
  auto view = core::MaterializedView::Create(&d.set, kSites, &q);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view->answer());

  // F3 lives at site 2: one request there, one triplet back.
  auto stock = view->Apply(
      Delta::InsertSubtree(3, d.set.fragment(3).root, "stock"));
  ASSERT_TRUE(stock.ok());
  ASSERT_TRUE(view->Apply(Delta::InsertSubtree(3, stock->node, "code",
                                               "MSFT"))
                  .ok());
  auto remote = view->Refresh(3);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->algorithm, "ViewRefresh[changed]");
  EXPECT_TRUE(view->answer());
  EXPECT_EQ(remote->visits_per_site, (std::vector<uint64_t>{0, 0, 1}));
  EXPECT_EQ(remote->network_messages, 2u);  // request + triplet

  // F0 is the view site's own: visited, but nothing crosses the wire.
  auto local = view->Refresh(0);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(local->algorithm, "ViewRefresh[unchanged]");
  EXPECT_EQ(local->visits_per_site, (std::vector<uint64_t>{1, 0, 0}));
  EXPECT_EQ(local->network_messages, 0u);
}

}  // namespace
}  // namespace parbox
