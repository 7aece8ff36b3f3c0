// Version-history chains (the paper's FT2 scenario, Experiment 2):
// "in a temporal database each fragment can represent an XMark site at
// a point in time; FT2 represents the version history of this site."
//
// This example builds a 6-version chain, compares ParBoX /
// FullDistParBoX / LazyParBoX on queries satisfied at different
// depths, and demonstrates the selection extension (Sec. 8): find the
// *nodes* matching a predicate across all versions with at most two
// visits per site.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/selection.h"
#include "core/session.h"
#include "fragment/source_tree.h"
#include "fragment/strategies.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/dom.h"
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

  constexpr int kVersions = 6;
  xml::Document doc =
      xmark::GenerateChainDocument(kVersions, /*bytes_per_site=*/40000,
                                   /*seed=*/7);
  auto set = frag::FragmentSet::FromDocument(std::move(doc));
  Check(set.status());
  Check(frag::SplitAtAllLabeled(&*set, "site").status());
  auto st =
      frag::SourceTree::Create(*set, frag::AssignOneSitePerFragment(*set));
  Check(st.status());
  std::printf(
      "version chain: %zu fragments (depth %d), %zu elements total\n\n",
      set->live_count(), st->max_depth(), set->TotalElements());

  // Queries satisfied at the newest (v0, the root), a middle, and the
  // oldest version — the workloads of Figs. 9-11. One session, one
  // Prepare per version, three evaluators per prepared query.
  auto session = core::Session::Create(&*set, &*st);
  Check(session.status());
  for (int version : {0, kVersions / 2, kVersions - 1}) {
    std::string marker = "v";
    marker += std::to_string(version);
    auto query = xmark::MakeMarkerQuery(marker);
    Check(query.status());
    auto prepared = session->Prepare(std::move(*query));
    Check(prepared.status());
    std::printf("== query satisfied at version %d: %s ==\n", version,
                xmark::MarkerQueryText(marker).c_str());
    for (const char* evaluator : {"parbox", "fulldist", "lazy"}) {
      auto report = session->Execute(*prepared, {.evaluator = evaluator});
      Check(report.status());
      std::printf("  %s\n", report->ToString().c_str());
    }
    std::printf("\n");
  }

  // Selection across all versions: every <item> that accepts credit
  // cards, anywhere in the history.
  auto predicate =
      session->Prepare("[label() = item and payment = \"Creditcard\"]");
  Check(predicate.status());
  auto selection = core::RunSelectionParBoX(*session, *predicate);
  Check(selection.status());
  std::printf("== selection: items with credit-card payment ==\n");
  for (auto f : set->live_ids()) {
    std::printf("  version %d contributes %zu items\n", f,
                selection->selected_by_fragment[f].size());
  }
  std::printf("  total %zu items; max visits per site = %llu (<= 2, the "
              "Sec. 8 guarantee)\n",
              selection->total_selected,
              static_cast<unsigned long long>(
                  selection->report.max_visits_per_site()));
  return 0;
}
