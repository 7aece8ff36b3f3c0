// Incremental maintenance of Boolean XPath views (Sec. 5).
//
// A materialized view M(q, T) caches (S_T, ans) — the source tree and
// the query's answer — augmented (as the paper's algorithm requires)
// with the per-fragment vector triplets: one core::RetainedSystem. On
// updates:
//
//   * insNode/delNode (and the other typed frag::Delta kinds) change
//     only fragment F_j's contents. Apply validates and applies the
//     delta; Refresh(F_j) re-runs bottomUp on F_j alone, at F_j's
//     site — one core::Round over {F_j}, metered on a SimBackend. If
//     the returned triplet is unchanged the answer stands,
//     otherwise one local evalST pass recomputes it. No other site or
//     fragment is touched, and the traffic (one triplet) depends on
//     neither |T| nor the update size.
//   * splitFragments/mergeFragments change the fragmentation but never
//     the answer; only the source tree and the triplets of the
//     affected fragments are refreshed.
//
// Every maintenance operation returns a RunReport so benchmarks and
// tests can verify the locality claims empirically.

#ifndef PARBOX_CORE_VIEW_H_
#define PARBOX_CORE_VIEW_H_

#include <vector>

#include "boolexpr/expr.h"
#include "core/report.h"
#include "core/retained.h"
#include "fragment/delta.h"
#include "fragment/fragment.h"
#include "fragment/source_tree.h"
#include "sim/network.h"

namespace parbox::core {

class MaterializedView {
 public:
  /// Materialize the view: evaluates `q` over `*set` (ParBoX-style) and
  /// caches the state. `set` and `q` must outlive the view; the view
  /// becomes the owner of all fragmentation changes to `*set`.
  /// Refreshes are metered under `network`.
  static Result<MaterializedView> Create(
      frag::FragmentSet* set, std::vector<frag::SiteId> site_of_fragment,
      const xpath::NormQuery* q, const sim::NetworkParams& network = {});

  MaterializedView(MaterializedView&&) = default;
  MaterializedView& operator=(MaterializedView&&) = default;

  bool answer() const { return system_.answer(); }
  const frag::SourceTree& source_tree() const { return st_; }

  // ---- Content updates ----

  /// Validate and apply a typed content delta (frag::ApplyDelta: the
  /// node must belong to the named fragment, and no delta may cross a
  /// fragment boundary; on failure nothing changed). The view is stale
  /// until Refresh(applied.fragment) is called.
  Result<frag::AppliedDelta> Apply(const frag::Delta& delta);

  /// Re-establish the view after a batch of content updates localized
  /// in fragment `f`: re-evaluates only F_j, compares triplets, and
  /// re-solves the cached system only when they differ.
  Result<RunReport> Refresh(frag::FragmentId f);

  // ---- Fragmentation updates ----

  /// splitFragments(v): carve the subtree at `at` out of fragment `f`
  /// into a new fragment stored at `new_site`. The answer is unchanged;
  /// the source tree and the two affected triplets are refreshed.
  Result<frag::FragmentId> SplitFragments(frag::FragmentId f, xml::Node* at,
                                          frag::SiteId new_site);

  /// mergeFragments: splice sub-fragment `child` back into its parent
  /// and refresh the parent's triplet.
  Status MergeFragments(frag::FragmentId child);

  /// Recompute the answer from scratch (testing aid; what incremental
  /// maintenance avoids).
  Result<bool> RecomputeFromScratch();

 private:
  MaterializedView(frag::FragmentSet* set, const xpath::NormQuery* q,
                   const sim::NetworkParams& network)
      : set_(set), q_(q), network_(network) {}

  Status RebuildSourceTree();
  /// Partially evaluate fragment `f` locally, unmetered, and splice
  /// its triplet into the retained system.
  void RecomputeTriplet(frag::FragmentId f);
  /// Re-solve the retained system.
  Status Resolve();

  frag::FragmentSet* set_;
  const xpath::NormQuery* q_;
  sim::NetworkParams network_;
  std::vector<frag::SiteId> site_of_;
  frag::SourceTree st_;
  bexpr::ExprFactory factory_;
  RetainedSystem system_;
};

}  // namespace parbox::core

#endif  // PARBOX_CORE_VIEW_H_
