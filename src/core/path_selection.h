// Distributed data-selection XPath (the full Sec. 8 extension).
//
// RunSelectionParBoX (selection.h) answers "which nodes satisfy this
// predicate". This module answers the more general question the
// paper's conclusions sketch: given a *path* p, return every node
// reachable from the root via p — where a single match may thread
// through several fragments — with each site visited at most twice.
//
// Two passes:
//
//   Up   — ordinary ParBoX: every site partially evaluates the
//          path-compiled QList (whose endpoint is a kMark) over its
//          fragments, ships triplets, and the coordinator solves the
//          Boolean system, yielding V/DV truth values for every
//          fragment root. During this pass each site retains, locally,
//          the per-element V vectors of its fragments.
//   Down — match contexts flow root-to-leaves along the fragment tree:
//          a context bit (node, q_i) means "a partial match from the
//          document root arrives here needing sub-query q_i". Contexts
//          propagate through a fragment using the retained V vectors
//          (Seq consumes a satisfied qualifier, Child steps to
//          children, Desc floods downward); reaching the kMark selects
//          the node. Bits crossing a virtual node become the child
//          fragment's root context, shipped to its site.
//
// Each site is activated once per pass. Traffic: the usual ParBoX
// triplets upward, O(|q|) context bits per fragment edge downward,
// plus the unavoidable result ids. Both passes run on the caller's
// Session (Session::ExecuteWith): its backend, tracer and factory.

#ifndef PARBOX_CORE_PATH_SELECTION_H_
#define PARBOX_CORE_PATH_SELECTION_H_

#include "common/status.h"
#include "core/selection.h"
#include "core/session.h"
#include "xpath/normalize.h"

namespace parbox::core {

/// Select all nodes reachable from the root of the session's
/// fragmented tree via the compiled selection path (from
/// xpath::CompileSelection); `selection` must outlive the call.
Result<SelectionResult> RunPathSelection(
    Session& session, const xpath::SelectionQuery& selection);

}  // namespace parbox::core

#endif  // PARBOX_CORE_PATH_SELECTION_H_
