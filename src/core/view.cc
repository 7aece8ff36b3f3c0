#include "core/view.h"

#include "core/partial_eval.h"
#include "core/round.h"
#include "exec/sim_backend.h"
#include "xpath/eval.h"

namespace parbox::core {

Result<MaterializedView> MaterializedView::Create(
    frag::FragmentSet* set, std::vector<frag::SiteId> site_of_fragment,
    const xpath::NormQuery* q, const sim::NetworkParams& network) {
  if (set == nullptr || q == nullptr) {
    return Status::InvalidArgument("set and query must be non-null");
  }
  if (!q->IsWellFormed()) {
    return Status::InvalidArgument("query QList is not well-formed");
  }
  MaterializedView view(set, q, network);
  view.site_of_ = std::move(site_of_fragment);
  PARBOX_RETURN_IF_ERROR(view.RebuildSourceTree());
  view.system_.Reset(set->table_size());
  for (frag::FragmentId f : set->live_ids()) view.RecomputeTriplet(f);
  PARBOX_RETURN_IF_ERROR(view.Resolve());
  return view;
}

Status MaterializedView::RebuildSourceTree() {
  site_of_.resize(set_->table_size(), -1);
  PARBOX_ASSIGN_OR_RETURN(frag::SourceTree st,
                          frag::SourceTree::Create(*set_, site_of_));
  st_ = std::move(st);
  return Status::OK();
}

void MaterializedView::RecomputeTriplet(frag::FragmentId f) {
  system_.Splice(PartialEvalFragment(&factory_, *q_, *set_, f, nullptr));
}

Status MaterializedView::Resolve() {
  return system_
      .Resolve(&factory_, set_->ChildrenTable(), set_->root_fragment(),
               q_->root())
      .status();
}

Result<frag::AppliedDelta> MaterializedView::Apply(const frag::Delta& delta) {
  return frag::ApplyDelta(set_, delta);
}

Result<RunReport> MaterializedView::Refresh(frag::FragmentId f) {
  if (!set_->is_live(f)) return Status::NotFound("no such fragment");
  const sim::SiteId view_site = st_.site_of(st_.root_fragment());
  // Maintenance is metered on a throwaway deterministic cluster, as
  // one round over {f}: only the site storing F_j is visited, and it
  // re-evaluates F_j alone.
  exec::SimBackend backend(network_);
  PARBOX_RETURN_IF_ERROR(
      backend.AddNamespace(st_.num_sites(), view_site, &factory_).status());
  const xpath::EvalBatch batch = xpath::MakeEvalBatch({q_});
  uint64_t total_ops = 0;
  bool changed = false;
  Status failure = Status::OK();
  StartRound({.backend = &backend,
              .coordinator = view_site,
              .factory = &factory_,
              .set = set_,
              .batch = &batch,
              .systems = {&system_},
              .tag = "request",
              .work = {{st_.site_of(f), {f}, 64}}},
             [&](RoundResult result) {
    total_ops += result.ops;
    changed = result.changed[0];
    failure = result.status;
    if (!failure.ok() || !changed) return;  // identical triplet: answer stands
    const uint64_t solve_ops = q_->size() * set_->live_count();
    total_ops += solve_ops;
    backend.Compute(view_site, solve_ops, [&]() { failure = Resolve(); });
  });
  backend.Drain();
  PARBOX_RETURN_IF_ERROR(failure);

  RunReport report;
  report.algorithm = changed ? "ViewRefresh[changed]"
                             : "ViewRefresh[unchanged]";
  report.answer = system_.answer();
  report.makespan_seconds = backend.now();
  report.total_compute_seconds = backend.total_busy_seconds();
  report.total_ops = total_ops;
  report.network_bytes = backend.traffic().total_bytes();
  report.network_messages = backend.traffic().total_messages();
  report.visits_per_site = backend.visits();
  report.eq_system_entries = 3 * q_->size();
  return report;
}

Result<frag::FragmentId> MaterializedView::SplitFragments(
    frag::FragmentId f, xml::Node* at, frag::SiteId new_site) {
  if (new_site < 0) return Status::InvalidArgument("bad site id");
  PARBOX_ASSIGN_OR_RETURN(frag::FragmentId new_id, set_->Split(f, at));
  site_of_.resize(set_->table_size(), -1);
  site_of_[new_id] = new_site;
  PARBOX_RETURN_IF_ERROR(RebuildSourceTree());
  system_.Resize(set_->table_size());
  // Only the split fragment's site computes: two fresh triplets, one
  // for the shrunken F_j and one for the carved-out fragment. The
  // answer provably does not change; re-solving is skipped.
  RecomputeTriplet(f);
  RecomputeTriplet(new_id);
  return new_id;
}

Status MaterializedView::MergeFragments(frag::FragmentId child) {
  if (!set_->is_live(child)) return Status::NotFound("no such fragment");
  const frag::FragmentId parent = set_->fragment(child).parent;
  PARBOX_RETURN_IF_ERROR(set_->Merge(child));
  PARBOX_RETURN_IF_ERROR(RebuildSourceTree());
  // The merged-away child's slot is never read again: the solver walks
  // the children table, and fragment ids are never reused.
  RecomputeTriplet(parent);
  return Status::OK();
}

Result<bool> MaterializedView::RecomputeFromScratch() {
  for (frag::FragmentId f : set_->live_ids()) RecomputeTriplet(f);
  PARBOX_RETURN_IF_ERROR(Resolve());
  return system_.answer();
}

}  // namespace parbox::core
