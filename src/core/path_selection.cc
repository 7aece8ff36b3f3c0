#include "core/path_selection.h"

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>

#include "boolexpr/solver.h"
#include "core/engine.h"
#include "core/retained.h"
#include "xpath/eval.h"

namespace parbox::core {

namespace {

using frag::FragmentId;
using xpath::NormKind;
using xpath::NormQuery;
using xpath::SubQueryId;

/// Output of the downward pass over one fragment.
struct DownOutput {
  std::vector<const xml::Node*> selected;
  /// Root context bits for each sub-fragment a match crosses into.
  std::unordered_map<FragmentId, std::vector<char>> child_ctx;
  uint64_t ops = 0;
};

/// Propagate match contexts through fragment `f`, starting from
/// `root_ctx` (bit i = "a partial match arrives at the fragment root
/// needing sub-query i"). `values` resolves the (V, DV) vectors of
/// f's sub-fragments (from the upward pass).
DownOutput PropagateDown(const NormQuery& q,
                         const frag::FragmentSet& set, FragmentId f,
                         const std::vector<char>& root_ctx,
                         const bexpr::Assignment& values) {
  const size_t n = q.size();
  DownOutput out;

  // Re-derive every element's V vector as truth values (the second
  // visit's recomputation; sub-fragment values come from `values`).
  // Nothing resolves to a formula, so the walk never writes `factory`.
  std::unordered_map<const xml::Node*, std::vector<char>> v_of;
  xpath::EvalCounters counters;
  bexpr::ExprFactory factory;
  auto resolved = [&](const xml::Node& vnode, bexpr::VectorKind kind,
                      size_t i) {
    return factory.FromBool(
        values.Get({vnode.fragment_ref, kind, static_cast<int32_t>(i)})
            .value_or(false));
  };
  xpath::BottomUpEval(
      &factory, q, *set.fragment(f).root,
      [&](const xml::Node& vnode, std::vector<bexpr::ExprId>* v,
          std::vector<bexpr::ExprId>* dv) {
        for (size_t i = 0; i < n; ++i) {
          (*v)[i] = resolved(vnode, bexpr::VectorKind::kV, i);
          (*dv)[i] = resolved(vnode, bexpr::VectorKind::kDV, i);
        }
      },
      &counters,
      [&](const xml::Node& node, const std::vector<bexpr::ExprId>& vv) {
        std::vector<char> bits(n);
        for (size_t i = 0; i < n; ++i) bits[i] = vv[i] == bexpr::kTrueExpr;
        v_of.emplace(&node, std::move(bits));
      });
  out.ops = counters.ops;

  // Context worklist. A (node, i) bit is processed at most once.
  std::unordered_map<const xml::Node*, std::vector<char>> ctx;
  std::vector<std::pair<const xml::Node*, SubQueryId>> work;
  auto push = [&](const xml::Node* node, SubQueryId i) {
    std::vector<char>& bits = ctx[node];
    if (bits.empty()) bits.assign(n, 0);
    if (bits[i]) return;
    bits[i] = 1;
    work.emplace_back(node, i);
  };
  auto push_child_ctx = [&](FragmentId child, SubQueryId i) {
    std::vector<char>& bits = out.child_ctx[child];
    if (bits.empty()) bits.assign(n, 0);
    bits[i] = 1;
  };

  const xml::Node* froot = set.fragment(f).root;
  for (size_t i = 0; i < root_ctx.size(); ++i) {
    if (root_ctx[i]) push(froot, static_cast<SubQueryId>(i));
  }

  while (!work.empty()) {
    auto [v, i] = work.back();
    work.pop_back();
    ++out.ops;
    const NormQuery::SubQuery& sq = q.at(i);
    const std::vector<char>& vbits = v_of.at(v);
    switch (sq.kind) {
      case NormKind::kMark:
        out.selected.push_back(v);  // the ctx bit dedups
        break;
      case NormKind::kSeq:
        // ǫ[q_a]/q_b: the qualifier must hold here for the match to
        // continue along the spine.
        if (vbits[sq.a]) push(v, sq.b);
        break;
      case NormKind::kChild:
        for (const xml::Node* w = v->first_child; w != nullptr;
             w = w->next_sibling) {
          if (w->is_element()) {
            if (v_of.at(w)[sq.a]) push(w, sq.a);
          } else if (w->is_virtual()) {
            if (values
                    .Get({w->fragment_ref, bexpr::VectorKind::kV, sq.a})
                    .value_or(false)) {
              push_child_ctx(w->fragment_ref, sq.a);
            }
          }
        }
        break;
      case NormKind::kDesc:
        // Matches may land here or anywhere below: consume at this
        // node if the operand holds, and flood the Desc bit downward
        // (into sub-fragments only where the upward pass proved a
        // match exists).
        if (vbits[sq.a]) push(v, sq.a);
        for (const xml::Node* w = v->first_child; w != nullptr;
             w = w->next_sibling) {
          if (w->is_element()) {
            push(w, i);
          } else if (w->is_virtual()) {
            if (values
                    .Get({w->fragment_ref, bexpr::VectorKind::kDV, sq.a})
                    .value_or(false)) {
              push_child_ctx(w->fragment_ref, i);
            }
          }
        }
        break;
      default:
        // Boolean leaves/connectives carry no spine continuation.
        break;
    }
  }
  return out;
}

/// Both passes of the path selection on `eng`; the selected nodes and
/// the report land in `*result`.
Status RunPasses(Engine& eng, SelectionResult* result) {
  const frag::FragmentSet& set = eng.set();
  const frag::SourceTree& st = eng.st();
  const NormQuery& q = eng.q();
  exec::ExecBackend& backend = eng.backend();
  const sim::SiteId coord = eng.coordinator();
  const size_t n = q.size();

  RetainedSystem up;
  result->selected_by_fragment.resize(set.table_size());
  // Written once at the coordinator, read-only in every site context
  // of the down pass (ordered by the context deliveries).
  bexpr::Assignment values;
  // The down pass fans out over independent branches, which may run
  // concurrently on a parallel backend: the per-site second-visit gate
  // must be atomic.
  std::vector<std::atomic<char>> down_visited(
      static_cast<size_t>(st.num_sites()));
  Status failure = Status::OK();  // written in coordinator context only

  // ---- Down pass: context arrives at fragment f ----
  std::function<void(FragmentId, std::shared_ptr<std::vector<char>>)>
      deliver_ctx = [&](FragmentId f,
                        std::shared_ptr<std::vector<char>> ctx_bits) {
        const sim::SiteId s = st.site_of(f);
        if (down_visited[static_cast<size_t>(s)].exchange(1) == 0) {
          backend.RecordVisit(s);  // the site's second (and last) visit
        }
        const double start = backend.now();
        DownOutput down =
            PropagateDown(q, set, f, *ctx_bits, values);
        result->selected_by_fragment[f] = std::move(down.selected);
        const auto child_ctx =
            std::make_shared<std::unordered_map<FragmentId,
                                                std::vector<char>>>(
                std::move(down.child_ctx));
        eng.ChargeSiteWork(s, start, down.ops, [&, s, f, child_ctx]() {
          // Result ids go back to the coordinator (8 bytes per node).
          backend.Send(
              s, coord,
              exec::Parcel::OfSize(
                  8 + 8 * result->selected_by_fragment[f].size()),
              "result", [](exec::Parcel) {});
          // Contexts continue to the sub-fragments a match crosses.
          for (auto& [child, bits] : *child_ctx) {
            auto boxed =
                std::make_shared<std::vector<char>>(std::move(bits));
            const uint64_t bytes = 8 + (n + 7) / 8;
            backend.Send(s, st.site_of(child),
                         exec::Parcel::OfSize(bytes), "context",
                         [&, child, boxed](exec::Parcel) {
                           deliver_ctx(child, boxed);
                         });
          }
        });
      };

  // ---- Up pass: plain ParBoX, one round over the plan and a solve;
  // then kick off the down pass at the root fragment ----
  eng.StartUpPass(&up, &failure, [&](bexpr::Assignment solved) {
    values = std::move(solved);
    auto root_ctx = std::make_shared<std::vector<char>>(n, 0);
    (*root_ctx)[q.root()] = 1;
    const uint64_t bytes = 8 + (n + 7) / 8;
    backend.Send(coord, st.site_of(set.root_fragment()),
                 exec::Parcel::OfSize(bytes), "context",
                 [&, root_ctx](exec::Parcel) {
                   deliver_ctx(set.root_fragment(), root_ctx);
                 });
  });
  return eng.FinishSelection("PathSelectionParBoX", failure, result);
}

}  // namespace

Result<SelectionResult> RunPathSelection(
    Session& session, const xpath::SelectionQuery& selection) {
  PARBOX_ASSIGN_OR_RETURN(PreparedQuery prepared,
                          session.Prepare(&selection.query));
  SelectionResult result;
  PARBOX_RETURN_IF_ERROR(session.ExecuteWith(
      prepared, "path_selection",
      [&](Engine& eng) { return RunPasses(eng, &result); }));
  return result;
}

}  // namespace parbox::core
