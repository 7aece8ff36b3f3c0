// RetainedSystem: one query's retained equation system (Sec. 5).
//
// Incremental maintenance keeps, per query, the (V, CV, DV) triplet of
// every fragment — indexed by fragment id — together with the answer
// solved from them. An update to fragment F_j then costs one fresh
// triplet: Splice it in, and re-solve only if it changed. Because a
// QList entry's formulas reference only entries of smaller index, the
// first w entries of every triplet form a closed system on their own:
// TruncateTo(w) is the system of the query's w-entry QList prefix.
//
// Three holders share this one value type: core::MaterializedView (the
// view's answer), the per-fingerprint incremental state of
// core::Session, and each entry of the QueryService result cache. A
// core::Round (core/round.h) splices every site's replies into them.

#ifndef PARBOX_CORE_RETAINED_H_
#define PARBOX_CORE_RETAINED_H_

#include <cstdint>
#include <vector>

#include "boolexpr/expr.h"
#include "boolexpr/solver.h"
#include "common/status.h"
#include "fragment/fragment.h"
#include "xpath/qlist.h"

namespace parbox::core {

class RetainedSystem {
 public:
  /// The answer of the last successful Resolve (false before any).
  bool answer() const { return answer_; }
  /// Slots in the triplet table: one per fragment id.
  size_t table_size() const { return table_.size(); }
  /// The retained triplet of fragment `f` (< table_size()); its
  /// .fragment is -1 while the slot is a hole.
  const bexpr::FragmentEquations& triplet(frag::FragmentId f) const {
    return table_[static_cast<size_t>(f)];
  }
  /// Every slot, indexed by fragment id (what the solver walks).
  const std::vector<bexpr::FragmentEquations>& table() const {
    return table_;
  }

  /// Drop every triplet and the answer, leaving `table_size` holes.
  /// Keeps the table's allocation.
  void Reset(size_t table_size);
  /// Grow (or shrink) the table to `table_size` slots, keeping the
  /// triplets of surviving slots; new slots are holes.
  void Resize(size_t table_size);

  /// Store `fresh` as the triplet of fragment `fresh.fragment` and
  /// return whether it differs from the one retained there. Formulas
  /// are hash-consed in one factory, so this is element-wise id
  /// equality. A fragment outside the table (cut after the table was
  /// sized) cannot be stored; it reports a change, and Covers then
  /// fails on the table shape.
  bool Splice(bexpr::FragmentEquations fresh);

  /// True iff the table has `set`'s current shape and holds a triplet
  /// at least `width` entries wide for every live fragment — the only
  /// systems Resolve can be trusted on. A hole means unknown
  /// provenance.
  bool Covers(const frag::FragmentSet& set, size_t width) const;

  /// The closed system of the first `width` QList entries: every
  /// present triplet truncated to `width` entries. Requires
  /// Covers(set, width).
  RetainedSystem TruncateTo(size_t width) const;

  /// Solve the system over `children` (the fragment-children table)
  /// for entry `root` of fragment `root_fragment`'s V vector, and
  /// store the answer on success.
  Result<bool> Resolve(bexpr::ExprFactory* factory,
                       const std::vector<std::vector<int32_t>>& children,
                       frag::FragmentId root_fragment,
                       xpath::SubQueryId root);

 private:
  std::vector<bexpr::FragmentEquations> table_;
  bool answer_ = false;
};

}  // namespace parbox::core

#endif  // PARBOX_CORE_RETAINED_H_
