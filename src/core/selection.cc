#include "core/selection.h"

#include <mutex>

#include "boolexpr/solver.h"
#include "core/engine.h"
#include "core/retained.h"

namespace parbox::core {

std::vector<const xml::Node*> SelectionResult::AllSelected() const {
  std::vector<const xml::Node*> out;
  for (const auto& group : selected_by_fragment) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

namespace {

/// Per-fragment retained state: each element's selection formula (ids
/// into the owning site's factory; built and evaluated only in that
/// site's context).
struct RetainedFormulas {
  std::vector<std::pair<const xml::Node*, bexpr::ExprId>> per_node;
};

/// Both passes of the selection on `eng`; the selected nodes and the
/// report land in `*result`.
Status RunPasses(Engine& eng, SelectionResult* result) {
  const frag::FragmentSet& set = eng.set();
  const frag::SourceTree& st = eng.st();
  const xpath::NormQuery& q = eng.q();
  exec::ExecBackend& backend = eng.backend();
  const sim::SiteId coord = eng.coordinator();
  const size_t n = q.size();

  RetainedSystem up;
  std::vector<RetainedFormulas> retained(set.table_size());
  result->selected_by_fragment.resize(set.table_size());
  // Written once at the coordinator before pass 2's sends, read-only
  // in every site context afterwards (ordered by the deliveries).
  bexpr::Assignment assignment;
  // The up pass sets `failure` at the coordinator before pass 2
  // starts; pass-2 sites can fail concurrently, under the mutex.
  std::mutex failure_mutex;
  Status failure = Status::OK();

  // ---- Pass 2: ship resolved variable values, collect selections ----
  auto downward = [&]() {
    for (sim::SiteId s = 0; s < st.num_sites(); ++s) {
      if (st.fragments_at(s).empty()) continue;
      backend.RecordVisit(s);  // second (and last) visit of this site
      // Resolved values for the variables this site's fragments used:
      // 2 bits per (child fragment, entry).
      uint64_t child_entries = 0;
      for (frag::FragmentId f : st.fragments_at(s)) {
        child_entries += st.children_of(f).size() * n;
      }
      const uint64_t bytes = 16 + (2 * child_entries + 7) / 8;
      backend.Send(coord, s, exec::Parcel::OfSize(bytes), "values",
                   [&, s](exec::Parcel) {
        const double start = backend.now();
        uint64_t ops = 0;
        uint64_t selected_here = 0;
        for (frag::FragmentId f : st.fragments_at(s)) {
          for (auto& [node, formula] : retained[f].per_node) {
            ++ops;
            bexpr::Tri value = backend.site_factory(s).EvalPartial(
                formula, assignment);
            if (value == bexpr::Tri::kUnknown) {
              std::lock_guard<std::mutex> lock(failure_mutex);
              if (failure.ok()) {
                failure = Status::Internal(
                    "selection formula unresolved after pass 2");
              }
              return;
            }
            if (value == bexpr::Tri::kTrue) {
              result->selected_by_fragment[f].push_back(node);
              ++selected_here;
            }
          }
        }
        eng.ChargeSiteWork(s, start, ops, [&, s, selected_here]() {
          // The selected node ids are the query result; 8 bytes each.
          backend.Send(s, coord,
                       exec::Parcel::OfSize(8 + 8 * selected_here),
                       "result", [](exec::Parcel) {});
        });
      });
    }
  };

  // ---- Pass 1: the ParBoX round over the plan, each walk retaining
  // every element's selection formula at its site; then solve at the
  // coordinator and start pass 2 ----
  eng.StartUpPass(
      &up, &failure,
      [&](bexpr::Assignment solved) {
        assignment = std::move(solved);
        downward();
      },
      [&](frag::FragmentId f, const xml::Node& node,
          const std::vector<bexpr::ExprId>& vv) {
        retained[f].per_node.emplace_back(&node, vv[q.root()]);
      });
  return eng.FinishSelection("SelectionParBoX", failure, result);
}

}  // namespace

Result<SelectionResult> RunSelectionParBoX(Session& session,
                                           const PreparedQuery& query) {
  SelectionResult result;
  PARBOX_RETURN_IF_ERROR(session.ExecuteWith(
      query, "selection",
      [&](Engine& eng) { return RunPasses(eng, &result); }));
  return result;
}

}  // namespace parbox::core
