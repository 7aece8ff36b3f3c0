// The paper's running example, end to end: the stock portfolio of
// Fig. 1(b), fragmented as in Fig. 2 (F0 on the desktop, F1 at Merill
// Lynch, F2 and F3 at the NASDAQ site), queried with the queries from
// Secs. 1-4, and maintained incrementally as in Example 5.1.
//
// Run it to watch the partial answers (Boolean formulas over the
// sub-fragment variables of Example 3.2) and the unification of
// Example 3.3 happen for real.

#include <cstdio>
#include <cstdlib>

#include "boolexpr/expr.h"
#include "core/partial_eval.h"
#include "core/session.h"
#include "core/view.h"
#include "fragment/source_tree.h"
#include "xmark/portfolio.h"
#include "xml/writer.h"
#include "xpath/normalize.h"

namespace {

void Check(const parbox::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace parbox;

  auto set = xmark::BuildPortfolioFragments();
  Check(set.status());
  std::printf("== The portfolio of Fig. 1(b), fragmented as in Fig. 2 ==\n");
  for (auto f : set->live_ids()) {
    std::printf("\nFragment F%d (at %s):\n%s\n", f,
                f == 0   ? "the desktop, S0"
                : f == 1 ? "Merill Lynch, S1"
                         : "the NASDAQ site, S2",
                xml::WriteXml(set->fragment(f).root, {.indent = true})
                    .c_str());
  }

  // Fig. 2(b): h(F0)=S0, h(F1)=S1, h(F2)=h(F3)=S2. One session serves
  // every query below against this deployment.
  auto st = frag::SourceTree::Create(*set, {0, 1, 2, 2});
  Check(st.status());
  auto session = core::Session::Create(&*set, &*st);
  Check(session.status());

  // --- Example 2.1: normalize //stock[code/text() = "YHOO"] ---
  auto yhoo = session->Prepare(xmark::kYhooQuery);
  Check(yhoo.status());
  std::printf("== QList(q) for %s (Example 2.1) ==\n%s\n",
              xmark::kYhooQuery, yhoo->query().ToString().c_str());

  // --- Example 3.2: the partial answers each site computes ---
  std::printf("== Partial evaluation per fragment (Example 3.2) ==\n");
  const xpath::NormQuery& yhoo_q = yhoo->query();
  bexpr::ExprFactory& factory = session->factory();
  for (auto f : set->live_ids()) {
    auto eq = core::PartialEvalFragment(&factory, yhoo_q, *set, f, nullptr);
    std::printf("V_F%d[answer] = %s\n", f,
                factory.ToString(eq.v[yhoo_q.root()]).c_str());
    std::printf("DV_F%d[answer] = %s\n", f,
                factory.ToString(eq.dv[yhoo_q.root()]).c_str());
  }

  // --- Example 3.3: ParBoX solves the equation system ---
  auto report = session->Execute(*yhoo);
  Check(report.status());
  std::printf("\n== ParBoX (Example 3.3) ==\n%s\n",
              report->Detailed().c_str());

  // --- Sec. 1's query: does GOOG reach a sell price of 376? ---
  auto goog = session->Prepare(xmark::kGoogSellQuery);
  Check(goog.status());
  auto goog_report = session->Execute(*goog);
  Check(goog_report.status());
  std::printf("\n%s\n  -> %s (the best sell in the tree is 373)\n",
              xmark::kGoogSellQuery,
              goog_report->answer ? "true" : "false");

  // --- Sec. 4: the lazy algorithm stops at depth 0 for this one ---
  auto merill = session->Prepare(xmark::kMerillQuery);
  Check(merill.status());
  auto lazy = session->Execute(*merill, {.evaluator = "lazy"});
  Check(lazy.status());
  std::printf("\n%s via LazyParBoX:\n  %s\n  (total visits: %llu — the "
              "NASDAQ site was never bothered)\n",
              xmark::kMerillQuery, lazy->ToString().c_str(),
              static_cast<unsigned long long>(lazy->total_visits()));

  // --- Sec. 5 / Example 5.1: incremental view maintenance ---
  std::printf("\n== Materialized view + updates (Example 5.1) ==\n");
  auto hpq_query = xpath::CompileQuery("[//stock[code = \"HPQ\"]]");
  Check(hpq_query.status());
  auto view_result =
      core::MaterializedView::Create(&*set, {0, 1, 2, 2}, &*hpq_query);
  Check(view_result.status());
  core::MaterializedView view = std::move(*view_result);
  std::printf("view [//stock[code = \"HPQ\"]] = %s\n",
              view.answer() ? "true" : "false");

  // Insert a new HPQ stock into F0's NYSE market (insNode x5).
  xml::Node* nyse = xml::FindFirstElement(set->fragment(0).root, "market");
  auto stock = view.Apply(frag::Delta::InsertSubtree(0, nyse, "stock"));
  Check(stock.status());
  xml::Node* hpq = stock->node;
  Check(view.Apply(frag::Delta::InsertSubtree(0, hpq, "code", "HPQ")).status());
  Check(view.Apply(frag::Delta::InsertSubtree(0, hpq, "buy", "30")).status());
  Check(view.Apply(frag::Delta::InsertSubtree(0, hpq, "sell", "33")).status());
  auto refresh = view.Refresh(0);
  Check(refresh.status());
  std::printf("after inserting the HPQ stock: view = %s  (%s)\n",
              view.answer() ? "true" : "false",
              refresh->ToString().c_str());

  // splitFragments(market): carve the NYSE market out as F4 at a new
  // site S3 — the answer is untouched.
  auto f4 = view.SplitFragments(0, nyse, /*new_site=*/3);
  Check(f4.status());
  std::printf("after splitFragments(market) -> F%d at S3: view = %s, "
              "card(F) = %zu\n",
              *f4, view.answer() ? "true" : "false", set->live_count());
  return 0;
}
