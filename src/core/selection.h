// Data-selection queries (the Sec. 8 extension).
//
// The conclusions sketch an extension of ParBoX "capable of processing
// data selection XPath queries with the performance guarantee that
// each site is visited at most twice". This module implements that
// two-pass scheme for node-predicate selections — "return every
// element where the Boolean qualifier q holds":
//
//   Pass 1 (upward):   identical to ParBoX — the same core::Round
//       over the plan (core/round.h) — except each walk's node hook
//       also *retains locally* a per-element formula sel(v) = V_v(q)
//       at the site. Only the usual O(|q|) triplets travel, one batch
//       per site.
//   Solve:             the coordinator solves the equation system,
//       yielding truth values for every (fragment, V/DV, entry)
//       variable.
//   Pass 2 (downward): the coordinator ships each site the resolved
//       values of the variables its fragments used (O(|q|·card(F_j))
//       bits); sites substitute into the retained formulas and report
//       their selected nodes.
//
// Per-site visits: 1 (query) + 1 (resolved values) = 2. Traffic beyond
// the unavoidable result ids stays independent of |T|. The passes run
// on the caller's Session (Session::ExecuteWith): its backend, tracer
// and factory.

#ifndef PARBOX_CORE_SELECTION_H_
#define PARBOX_CORE_SELECTION_H_

#include <vector>

#include "common/status.h"
#include "core/prepared.h"
#include "core/report.h"
#include "core/session.h"
#include "xml/dom.h"

namespace parbox::core {

/// What RunSelectionParBoX and RunPathSelection return.
struct SelectionResult {
  /// Selected elements, grouped by fragment id (table-indexed).
  std::vector<std::vector<const xml::Node*>> selected_by_fragment;
  size_t total_selected = 0;
  RunReport report;

  /// Flattened list of all selected nodes.
  std::vector<const xml::Node*> AllSelected() const;
};

/// Evaluate the node predicate `query` (an XBL qualifier interpreted
/// at every element, prepared by `session`) over the session's
/// fragmented tree and return all elements where it holds.
Result<SelectionResult> RunSelectionParBoX(Session& session,
                                           const PreparedQuery& query);

}  // namespace parbox::core

#endif  // PARBOX_CORE_SELECTION_H_
