// The Boolean-equation-system solving behind `evalST` (Sec. 3.1,
// "Composition of partial answers").
//
// Each fragment F_j contributes equations: the entries of its V and DV
// vectors are formulas whose variables refer exclusively to F_j's
// direct sub-fragments. Solving proceeds bottom-up over the fragment
// tree — leaves have constant vectors; substituting resolved children
// turns every parent entry into a constant — in time linear in the
// total size of the system, as the paper's analysis requires.

#ifndef PARBOX_BOOLEXPR_SOLVER_H_
#define PARBOX_BOOLEXPR_SOLVER_H_

#include <cstdint>
#include <vector>

#include "boolexpr/expr.h"
#include "common/status.h"

namespace parbox::bexpr {

/// The partial answer a fragment reports: formula vectors at its root.
/// (CV is carried for fidelity with Fig. 3's triplets but is never
/// consumed by a parent; see DESIGN.md.)
struct FragmentEquations {
  int32_t fragment = -1;
  std::vector<ExprId> v;
  std::vector<ExprId> cv;
  std::vector<ExprId> dv;
};

/// Solve the equation system bottom-up.
///
/// `equations[f]` must be the triplet for fragment id `f`;
/// `children_of[f]` lists f's direct sub-fragments. On success the
/// returned Assignment resolves every (fragment, V/DV, index) variable.
/// Fails with Unresolved if some entry references a variable outside
/// its fragment's children (a malformed system).
Result<Assignment> SolveBottomUp(
    ExprFactory* factory, const std::vector<FragmentEquations>& equations,
    const std::vector<std::vector<int32_t>>& children_of, int32_t root);

/// Convenience: solve and return the value of entry `query_index` of
/// the root fragment's V vector — the query answer per Sec. 3.1.
Result<bool> SolveForAnswer(
    ExprFactory* factory, const std::vector<FragmentEquations>& equations,
    const std::vector<std::vector<int32_t>>& children_of, int32_t root,
    int32_t query_index);

/// Three-valued variant used by LazyParBoX: a hole in `equations` (a
/// slot f whose .fragment is not f, i.e. not evaluated yet) contributes
/// Unknown. Returns the Kleene value of the root V entry; kUnknown
/// means "cannot answer at this depth yet".
Tri SolvePartial(ExprFactory* factory,
                 const std::vector<FragmentEquations>& equations,
                 const std::vector<std::vector<int32_t>>& children_of,
                 int32_t root, int32_t query_index);

}  // namespace parbox::bexpr

#endif  // PARBOX_BOOLEXPR_SOLVER_H_
