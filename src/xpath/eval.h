// Procedure bottomUp (Fig. 3): a single-pass, bottom-up evaluation of
// all QList entries at every element of a tree, in O(|T|·|q|).
//
// The same kernel serves two masters:
//
//   * BoolDomain  — plain truth values. Over an unfragmented tree this
//     *is* the best-known centralized algorithm the paper compares
//     against; over a fragment with already-resolved sub-fragments it
//     is NaiveDistributed's per-fragment step.
//   * ExprDomain  — Boolean formulas (boolexpr). Over a fragment whose
//     virtual nodes yield fresh variables it is ParBoX's partial
//     evaluation, returning the (V, CV, DV) triplet of Fig. 3.
//
// Virtual nodes are delegated to a caller-supplied resolver, which
// decides what a sub-fragment's V/DV vectors look like (variables,
// previously computed truth values, ...). The kernel is iterative — an
// explicit post-order stack — so chain-shaped trees cannot overflow
// the C++ stack; memory is O(depth · Σ|q|).
//
// There is ONE kernel, and it is fused: a single walk of a tree carries
// a whole *batch* of queries (BottomUpEvalBatch), so the per-node costs
// — traversal, label dispatch, frame management — are paid once per
// batch instead of once per (tree, query). A solo walk (BottomUpEval)
// is a one-lane batch with no donor.
//
// Cross-query CSE rides on two facts:
//
//   * Variables are *lane-local*: the resolver mints the same VarId
//     {fragment, kind, i} for entry i of every lane (each query's
//     equation system is solved independently, so reusing the ids is
//     sound — and it is exactly what per-query evaluation in a shared
//     factory produces).
//   * QLists are consed deterministically, so queries derived from a
//     shared template agree entry-for-entry on a QList *prefix*. A
//     lane whose prefix equals an earlier lane's (its "donor") copies
//     the donor's already-computed values for those entries at every
//     node — each copied value IS the shared interned formula — and
//     evaluates only its divergent suffix.
//
// The fused results are bit-identical (same ExprIds, same wire bytes)
// to K one-lane walks in the same factory: suffix entries evaluate
// exactly as a one-lane walk would, and prefix entries copy values that
// induction makes equal to what the lane would have computed itself.
// Verified in tests/fused_eval_test.cc.

#ifndef PARBOX_XPATH_EVAL_H_
#define PARBOX_XPATH_EVAL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "boolexpr/expr.h"
#include "common/status.h"
#include "xml/dom.h"
#include "xpath/qlist.h"

namespace parbox::xpath {

/// Truth-value domain: the centralized / fully-resolved case.
struct BoolDomain {
  using Value = bool;
  /// Pairwise Or-folding of child contributions is a single bitwise op
  /// here — no reason to batch.
  static constexpr bool kBatchFold = false;
  bool False() const { return false; }
  bool FromBool(bool b) const { return b; }
  bool And(bool a, bool b) const { return a && b; }
  bool Or(bool a, bool b) const { return a || b; }
  bool Not(bool a) const { return !a; }
};

/// Formula domain: partial evaluation. Wraps an ExprFactory; the
/// factory's smart constructors implement compFm's folding.
struct ExprDomain {
  using Value = bexpr::ExprId;
  /// Folding k child contributions pairwise would intern a chain of k
  /// intermediate n-ary nodes (each hashing all its children — O(k²)
  /// work and O(k) dead nodes per QList entry at fragment roots with
  /// many sub-fragments). Batch mode gathers the operands and interns
  /// only the final node, which is structurally identical to what the
  /// pairwise chain flattens to.
  static constexpr bool kBatchFold = true;
  bexpr::ExprFactory* factory;

  Value False() const { return factory->False(); }
  Value FromBool(bool b) const { return factory->FromBool(b); }
  Value And(Value a, Value b) const { return factory->And(a, b); }
  Value Or(Value a, Value b) const { return factory->Or(a, b); }
  Value Not(Value a) const { return factory->Not(a); }
  Value OrN(std::span<const Value> operands) const {
    return factory->OrN(operands);
  }
};

/// The (V, CV, DV) triplet of Fig. 3, at one node.
template <typename Domain>
struct EvalVectors {
  std::vector<typename Domain::Value> v;   ///< holds *here*
  std::vector<typename Domain::Value> cv;  ///< holds at some child
  std::vector<typename Domain::Value> dv;  ///< holds here or below
};

/// What the kernel charges per element node: one pass over the QList.
/// `ops` below counts element-node × QList-entry steps — the unit in
/// which all computation-cost bounds of the paper are expressed.
struct EvalCounters {
  uint64_t ops = 0;
  uint64_t elements = 0;
};

/// One query's lane in a batch: where its entries live in the
/// concatenated entry space and how much of its QList prefix it can
/// copy from an earlier lane instead of evaluating.
struct BatchLane {
  const NormQuery* query = nullptr;
  uint32_t offset = 0;  ///< first concatenated index of this lane
  uint32_t width = 0;   ///< |QList| of this lane's query
  int32_t donor = -1;   ///< earlier lane sharing a prefix, or -1
  uint32_t shared = 0;  ///< leading entries identical to the donor's
};

/// A batch of queries laid out for one walk. Build once per batch (the
/// donor scan is O(K² · |q|)), then walk any number of trees/fragments
/// with BottomUpEvalBatch.
struct EvalBatch {
  std::vector<BatchLane> lanes;
  size_t total_width = 0;  ///< Σ lane widths (concatenated space size)
  size_t max_width = 0;    ///< widest lane (resolver vector size)

  size_t size() const { return lanes.size(); }
};

/// Length of the common QList prefix of two queries (entry-wise
/// structural equality; child references are indices, so equal
/// prefixes denote identical sub-query DAGs).
inline size_t CommonQListPrefix(const NormQuery& a, const NormQuery& b) {
  const size_t limit = std::min(a.size(), b.size());
  size_t k = 0;
  while (k < limit && a.at(static_cast<SubQueryId>(k)) ==
                          b.at(static_cast<SubQueryId>(k))) {
    ++k;
  }
  return k;
}

/// Lay out `queries` as lanes and pick each lane's donor: the earlier
/// lane with the longest common prefix (earliest wins ties). Queries
/// must outlive the batch.
inline EvalBatch MakeEvalBatch(
    const std::vector<const NormQuery*>& queries) {
  EvalBatch batch;
  batch.lanes.reserve(queries.size());
  for (const NormQuery* q : queries) {
    BatchLane lane;
    lane.query = q;
    lane.offset = static_cast<uint32_t>(batch.total_width);
    lane.width = static_cast<uint32_t>(q->size());
    for (size_t j = 0; j < batch.lanes.size(); ++j) {
      const size_t common = CommonQListPrefix(*q, *batch.lanes[j].query);
      if (common > lane.shared) {
        lane.shared = static_cast<uint32_t>(common);
        lane.donor = static_cast<int32_t>(j);
      }
    }
    batch.total_width += lane.width;
    batch.max_width = std::max(batch.max_width, q->size());
    batch.lanes.push_back(lane);
  }
  return batch;
}

/// Fused-walk accounting beyond EvalCounters: how much cross-query
/// sharing the donor-copy scheme realized.
struct BatchEvalStats {
  /// (element × entry) slots served by copying a donor lane's value —
  /// each one a per-query evaluation (and its interned subformulas)
  /// that a one-lane walk would have re-derived.
  uint64_t shared_entries = 0;
};

/// The default per-node observer: none.
struct NoNodeHook {
  template <typename Values>
  void operator()(const xml::Node&, const Values&) const {}
};

/// Evaluate every lane of `batch` over the subtree rooted at `root` (an
/// element) in one walk. `resolve_virtual(node, out_v, out_dv)` fills
/// V/DV vectors of size batch.max_width for a virtual child; entry i is
/// shared by every lane (lane-local variable identity — see file
/// comment). Returns one EvalVectors per lane, in lane order.
///
/// `node_hook(node, vv)` observes each element's finished V vectors in
/// the concatenated layout (lane k's entries start at
/// lanes[k].offset) — for a one-lane batch, the query's V vector. The
/// selection extensions use it to retain per-node predicates.
///
/// `counters->ops` charges only the entries actually evaluated
/// (Σ_k width_k − shared_k per element); donor-copied slots land in
/// `stats->shared_entries` instead. `counters->elements` counts each
/// element once per *walk*, not once per lane.
template <typename Domain, typename VirtualFn, typename NodeHook = NoNodeHook>
std::vector<EvalVectors<Domain>> BottomUpEvalBatch(
    Domain dom, const EvalBatch& batch, const xml::Node& root,
    VirtualFn&& resolve_virtual, EvalCounters* counters = nullptr,
    BatchEvalStats* stats = nullptr, NodeHook node_hook = {}) {
  assert(root.is_element());
  using Value = typename Domain::Value;
  const size_t total = batch.total_width;

  struct Frame {
    const xml::Node* node;
    const xml::Node* next_child;
    std::vector<Value> cv;
    std::vector<Value> dv;
    /// Batch-fold mode only (see ExprDomain::kBatchFold): non-constant
    /// child contributions per concatenated entry, folded with one OrN
    /// at Phase 2 instead of interning a chain of intermediates.
    /// Constant contributions short-circuit straight into cv/dv.
    std::vector<std::pair<uint32_t, Value>> cv_ops;
    std::vector<std::pair<uint32_t, Value>> dv_ops;
  };

  const Value kTrueValue = dom.FromBool(true);
  // Fold one child's contribution to entry `i` into base[i] (absorbing
  // on true, neutral on false) or defer it to the operand list.
  auto accumulate = [&](std::vector<Value>& base,
                        std::vector<std::pair<uint32_t, Value>>& ops,
                        size_t i, Value value) {
    if (value == dom.False() || base[i] == kTrueValue) return;
    if (value == kTrueValue) {
      base[i] = kTrueValue;
      return;
    }
    ops.emplace_back(static_cast<uint32_t>(i), value);
  };
  // Phase-2 helper: gather deferred operands per entry, one OrN each.
  std::vector<Value> fold_scratch;
  auto fold_ops = [&](std::vector<std::pair<uint32_t, Value>>& ops,
                      std::vector<Value>& base) {
    std::sort(ops.begin(), ops.end());
    for (size_t a = 0; a < ops.size();) {
      size_t b = a;
      while (b < ops.size() && ops[b].first == ops[a].first) ++b;
      const size_t i = ops[a].first;
      if (base[i] != kTrueValue) {
        if (b - a == 1) {
          base[i] = ops[a].second;
        } else if constexpr (Domain::kBatchFold) {  // only caller
          fold_scratch.clear();
          for (size_t k = a; k < b; ++k) {
            fold_scratch.push_back(ops[k].second);
          }
          base[i] = dom.OrN(fold_scratch);
        }
      }
      a = b;
    }
    ops.clear();
  };

  // Per-element accounting is fixed by the layout.
  uint64_t evaluated_per_element = 0;
  uint64_t copied_per_element = 0;
  for (const BatchLane& lane : batch.lanes) {
    evaluated_per_element += lane.width - lane.shared;
    if (lane.donor >= 0) copied_per_element += lane.shared;
  }

  std::vector<EvalVectors<Domain>> result(batch.lanes.size());
  std::vector<Value> vv(total, dom.False());
  std::vector<Value> virt_v(batch.max_width, dom.False());
  std::vector<Value> virt_dv(batch.max_width, dom.False());

  // The stack only ever grows; popped frames keep their vector
  // capacity and are reused by the next push at that depth, so the
  // per-element allocations disappear after the first descent.
  std::vector<Frame> stack;
  size_t depth = 0;
  const xml::Node* descend = &root;  // element to push next, if any
  while (descend != nullptr || depth > 0) {
    if (descend != nullptr) {
      if (depth == stack.size()) stack.emplace_back();
      Frame& pushed = stack[depth++];
      pushed.node = descend;
      pushed.next_child = descend->first_child;
      pushed.cv.assign(total, dom.False());
      pushed.dv.assign(total, dom.False());
      pushed.cv_ops.clear();
      pushed.dv_ops.clear();
      descend = nullptr;
    }
    Frame& f = stack[depth - 1];

    // Phase 1: fold children (lines 1-5 of bottomUp). Only each lane's
    // *suffix* accumulates — its prefix region is overwritten by the
    // donor copy in Phase 2, so folding into it would be wasted work.
    while (f.next_child != nullptr) {
      const xml::Node* c = f.next_child;
      f.next_child = c->next_sibling;
      if (c->is_text()) continue;  // text leaves carry no vectors
      if (c->is_virtual()) {
        resolve_virtual(*c, &virt_v, &virt_dv);
        assert(virt_v.size() == batch.max_width &&
               virt_dv.size() == batch.max_width);
        for (const BatchLane& lane : batch.lanes) {
          const size_t off = lane.offset;
          const size_t width = lane.width;
          for (size_t i = lane.shared; i < width; ++i) {
            const size_t at = off + i;
            if constexpr (Domain::kBatchFold) {
              accumulate(f.cv, f.cv_ops, at, virt_v[i]);
              accumulate(f.dv, f.dv_ops, at, virt_dv[i]);
            } else {
              f.cv[at] = dom.Or(f.cv[at], virt_v[i]);
              f.dv[at] = dom.Or(f.dv[at], virt_dv[i]);
            }
          }
        }
        continue;
      }
      descend = c;  // the push may grow `stack`: `f` dies here
      break;
    }
    if (descend != nullptr) continue;
    if constexpr (Domain::kBatchFold) {
      fold_ops(f.cv_ops, f.cv);
      fold_ops(f.dv_ops, f.dv);
    }

    // Phase 2: all children folded; compute V at this node (lines
    // 6-17, cases c0-c8), lane by lane in order (donors precede their
    // dependents): copy the donor's finished prefix, then evaluate only
    // the divergent suffix. After this loop every lane's full region of
    // vv / f.cv / f.dv is exactly what a one-lane walk of that lane's
    // query would hold at this node.
    const xml::Node& node = *f.node;
    for (const BatchLane& lane : batch.lanes) {
      const NormQuery& q = *lane.query;
      // Lane views and bounds in locals: the domain calls below are
      // opaque, so anything read through `lane` or the vectors' headers
      // would be reloaded on every entry.
      const auto lv = vv.begin() + lane.offset;
      const auto lcv = f.cv.begin() + lane.offset;
      const auto ldv = f.dv.begin() + lane.offset;
      const size_t shared = lane.shared;
      const size_t width = lane.width;
      if (lane.donor >= 0 && shared > 0) {
        const size_t doff = batch.lanes[lane.donor].offset;
        // The donor's prefix is post-Phase-2 here: vv final, dv with
        // the line-17 "v ∨ dv" update applied, cv as folded. Suffix
        // entries below may reference prefix entries through any of
        // the three vectors, so all three segments copy.
        std::copy_n(vv.begin() + doff, shared, lv);
        std::copy_n(f.cv.begin() + doff, shared, lcv);
        std::copy_n(f.dv.begin() + doff, shared, ldv);
      }
      for (size_t i = shared; i < width; ++i) {
        const NormQuery::SubQuery& sq = q.at(static_cast<SubQueryId>(i));
        Value value;
        switch (sq.kind) {
          case NormKind::kEps:
          case NormKind::kMark:  // as a Boolean, a mark is just ǫ
            value = dom.FromBool(true);
            break;
          case NormKind::kLabelIs:
            value = dom.FromBool(node.label() == sq.str);
            break;
          case NormKind::kTextIs:
            value = dom.FromBool(xml::DirectTextEquals(node, sq.str));
            break;
          case NormKind::kChild:
            value = lcv[sq.a];
            break;
          case NormKind::kSeq:
            value = dom.And(lv[sq.a], lv[sq.b]);
            break;
          case NormKind::kDesc:
            // DV of the operand is already final for this node because
            // the QList is topologically sorted (sq.a < i).
            value = ldv[sq.a];
            break;
          case NormKind::kAnd:
            value = dom.And(lv[sq.a], lv[sq.b]);
            break;
          case NormKind::kOr:
            value = dom.Or(lv[sq.a], lv[sq.b]);
            break;
          case NormKind::kNot:
            value = dom.Not(lv[sq.a]);
            break;
          default:
            value = dom.False();
            break;
        }
        lv[i] = value;
        ldv[i] = dom.Or(value, ldv[i]);  // line 17
      }
    }
    if (counters != nullptr) {
      counters->ops += evaluated_per_element;
      counters->elements += 1;
    }
    if (stats != nullptr) stats->shared_entries += copied_per_element;
    node_hook(node, vv);

    // Phase 3: fold this node's (V, DV) into the parent (or finish) —
    // again only each lane's suffix; the parent's prefix regions come
    // from its donor copy.
    if (depth == 1) {
      for (size_t k = 0; k < batch.lanes.size(); ++k) {
        const BatchLane& lane = batch.lanes[k];
        result[k].v.assign(vv.begin() + lane.offset,
                           vv.begin() + lane.offset + lane.width);
        result[k].cv.assign(f.cv.begin() + lane.offset,
                            f.cv.begin() + lane.offset + lane.width);
        result[k].dv.assign(f.dv.begin() + lane.offset,
                            f.dv.begin() + lane.offset + lane.width);
      }
    } else {
      Frame& parent = stack[depth - 2];
      for (const BatchLane& lane : batch.lanes) {
        const size_t end = lane.offset + lane.width;
        for (size_t at = lane.offset + lane.shared; at < end; ++at) {
          if constexpr (Domain::kBatchFold) {
            accumulate(parent.cv, parent.cv_ops, at, vv[at]);
            accumulate(parent.dv, parent.dv_ops, at, f.dv[at]);
          } else {
            parent.cv[at] = dom.Or(parent.cv[at], vv[at]);
            parent.dv[at] = dom.Or(parent.dv[at], f.dv[at]);
          }
        }
      }
    }
    --depth;
  }
  return result;
}

/// A solo walk: BottomUpEvalBatch over the one-lane batch of `q`.
/// `resolve_virtual` fills vectors of size |q|; `node_hook(node, v)`
/// observes each element's finished V vector.
template <typename Domain, typename VirtualFn, typename NodeHook = NoNodeHook>
EvalVectors<Domain> BottomUpEval(Domain dom, const NormQuery& q,
                                 const xml::Node& root,
                                 VirtualFn&& resolve_virtual,
                                 EvalCounters* counters = nullptr,
                                 NodeHook node_hook = {}) {
  return std::move(
      BottomUpEvalBatch(dom, MakeEvalBatch({&q}), root,
                        std::forward<VirtualFn>(resolve_virtual), counters,
                        /*stats=*/nullptr, std::move(node_hook))
          .front());
}

/// Centralized evaluation of a query over an *unfragmented* tree —
/// the NaiveCentralized kernel and the correctness baseline.
/// Fails with FailedPrecondition if the tree contains virtual nodes.
Result<bool> EvalBoolean(const xml::Node& root, const NormQuery& q,
                         EvalCounters* counters = nullptr);

}  // namespace parbox::xpath

#endif  // PARBOX_XPATH_EVAL_H_
