#include "core/selection.h"

#include <memory>
#include <mutex>

#include "boolexpr/solver.h"
#include "core/engine.h"
#include "core/partial_eval.h"
#include "exec/codec.h"
#include "xpath/eval.h"

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

}  // namespace

Result<SelectionResult> RunSelectionParBoX(const frag::FragmentSet& set,
                                           const frag::SourceTree& st,
                                           const xpath::NormQuery& q,
                                           const EngineOptions& options) {
  PARBOX_ASSIGN_OR_RETURN(
      Session session,
      Session::Create(&set, &st, SessionOptions{options.network}));
  PARBOX_ASSIGN_OR_RETURN(PreparedQuery prepared, session.Prepare(&q));
  Engine eng(&session, q, prepared.query_bytes(), session.plan());
  exec::ExecBackend& backend = session.backend();
  const sim::SiteId coord = eng.coordinator();
  const size_t n = q.size();

  std::vector<bexpr::FragmentEquations> equations(set.table_size());
  std::vector<RetainedFormulas> retained(set.table_size());
  SelectionResult result;
  result.selected_by_fragment.resize(set.table_size());
  size_t pending_up = set.live_count();
  size_t pending_down = 0;
  // Written once at the coordinator before pass 2's sends, read-only
  // in every site context afterwards (ordered by the deliveries).
  bexpr::Assignment assignment;
  std::mutex failure_mutex;  // pass-2 sites can fail concurrently
  Status failure = Status::OK();

  // ---- Pass 2: ship resolved variable values, collect selections ----
  auto downward = [&]() {
    for (sim::SiteId s = 0; s < st.num_sites(); ++s) {
      if (st.fragments_at(s).empty()) continue;
      ++pending_down;
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
              result.selected_by_fragment[f].push_back(node);
              ++selected_here;
            }
          }
        }
        eng.AddOps(ops);
        backend.Compute(s, ops, [&, s, selected_here]() {
          // The selected node ids are the query result; 8 bytes each.
          backend.Send(s, coord,
                       exec::Parcel::OfSize(8 + 8 * selected_here),
                       "result", [&](exec::Parcel) { --pending_down; });
        });
      });
    }
  };

  // ---- Solve at the coordinator, then start pass 2 ----
  auto compose = [&]() {
    const uint64_t solve_ops = n * set.live_count();
    eng.AddOps(solve_ops);
    backend.Compute(coord, solve_ops, [&]() {
      Result<bexpr::Assignment> solved =
          bexpr::SolveBottomUp(&eng.factory(), equations,
                               eng.plan().children, set.root_fragment());
      if (!solved.ok()) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        if (failure.ok()) failure = solved.status();
        return;
      }
      assignment = std::move(*solved);
      downward();
    });
  };

  // ---- Pass 1: ParBoX partial evaluation + per-node retention ----
  for (sim::SiteId s = 0; s < st.num_sites(); ++s) {
    if (st.fragments_at(s).empty()) continue;
    backend.RecordVisit(s);  // first visit
    backend.Send(coord, s, exec::Parcel::OfSize(eng.query_bytes()),
                 "query", [&, s](exec::Parcel) {
      for (frag::FragmentId f : st.fragments_at(s)) {
        bexpr::ExprFactory& site_factory = backend.site_factory(s);
        xpath::EvalCounters counters;
        auto vectors = xpath::BottomUpEval(
            &site_factory, q, *set.fragment(f).root,
            FreshVarResolver{&site_factory, n}, &counters,
            [&](const xml::Node& node,
                const std::vector<bexpr::ExprId>& vv) {
              retained[f].per_node.emplace_back(&node, vv[q.root()]);
            });
        eng.AddOps(counters.ops);
        auto reply = std::make_shared<exec::TripletBatch>();
        exec::TripletBatch::Item& item = reply->items.emplace_back();
        item.slot = f;
        item.eq.fragment = f;
        item.eq.v = std::move(vectors.v);
        item.eq.cv = std::move(vectors.cv);
        item.eq.dv = std::move(vectors.dv);
        exec::Parcel parcel =
            exec::MakeTripletBatchParcel(site_factory, std::move(reply));
        backend.Compute(s, counters.ops,
                        [&, f, s, parcel = std::move(parcel)]() mutable {
          backend.Send(s, coord, std::move(parcel), "triplet",
                       [&, f](exec::Parcel delivered) {
            Result<exec::TripletBatch> got = exec::TakeTripletBatch(
                std::move(delivered), &eng.factory());
            if (!got.ok() || got->items.size() != 1) {
              std::lock_guard<std::mutex> lock(failure_mutex);
              if (failure.ok()) {
                failure = got.ok()
                              ? Status::Internal("malformed selection reply")
                              : got.status();
              }
              return;
            }
            equations[f] = std::move(got->items[0].eq);
            if (--pending_up == 0) compose();
          });
        });
      }
    });
  }

  backend.Drain();
  PARBOX_RETURN_IF_ERROR(failure);
  for (const auto& group : result.selected_by_fragment) {
    result.total_selected += group.size();
  }
  result.report = eng.Finish("SelectionParBoX", result.total_selected > 0,
                             3 * n * set.live_count());
  return result;
}

}  // namespace parbox::core
