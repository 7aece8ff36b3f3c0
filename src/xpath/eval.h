// Procedure bottomUp (Fig. 3): a single-pass, bottom-up evaluation of
// all QList entries at every element of a tree, in O(|T|·|q|).
//
// Every (element, QList entry) pair gets a truth value; an entry turns
// into a Boolean formula (boolexpr) only through a virtual node, whose
// sub-fragment's V/DV vectors a caller-supplied resolver supplies
// (fresh variables for ParBoX's partial evaluation, already computed
// truth values for NaiveDistributed, ...). The one kernel,
// BottomUpEvalBatch, keeps truth values as bits:
//
//   * Masks while constant. A frame holds its V/CV/DV entries as 64-bit
//     masks over the batch's concatenated entry space. Children and
//     line 17 fold as word ORs, and each entry evaluates from the
//     batch's program (EvalBatch::steps, absolute indices, built once
//     by MakeEvalBatch) into one bit. detail::StepValue holds the
//     cases of the program once, for bits and for formulas.
//   * Promotion. A frame switches to ExprId vectors only when a
//     non-constant value arrives: a virtual child whose resolver
//     returns variables, or a promoted child with a formula among its
//     values. So formulas live only on the "virtual spine", the
//     elements with a virtual node below them. A promoted frame
//     evaluates through the ExprFactory exactly as a walk on ExprId
//     vectors throughout would; constants never intern, so the
//     formulas, their ExprIds and the factory's node count do not
//     depend on where the masks end.
//   * Truth-value walks are the never-promoted case: their resolvers
//     return constants, and the walk never writes the factory. Over an
//     unfragmented tree (EvalBoolean) this *is* the centralized
//     algorithm the paper compares against; over a fragment with
//     resolved sub-fragments it is NaiveDistributed's per-fragment
//     step; path selection's downward pass is one too.
//
// The kernel is iterative — an explicit post-order stack — so
// chain-shaped trees cannot overflow the C++ stack; memory is
// O(depth · Σ|q|) bits.
//
// It is also fused: a single walk of a tree carries a whole *batch* of
// queries, so the per-node costs — traversal, label dispatch, frame
// management — are paid once per batch instead of once per (tree,
// query). A solo walk (BottomUpEval) is a one-lane batch with no donor.
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
//     the donor's already-computed V values for those entries at every
//     node — a bit-range copy on masks; on a promoted frame each copied
//     value IS the shared interned formula — and evaluates only its
//     divergent suffix.
//
// The fused results are bit-identical (same ExprIds, same wire bytes)
// to K one-lane walks in the same factory: suffix entries evaluate
// exactly as a one-lane walk would, and prefix entries copy values that
// induction makes equal to what the lane would have computed itself.
// Verified in tests/fused_eval_test.cc; tests/kernel_parity_test.cc
// pins formulas, ExprIds and counts.

#ifndef PARBOX_XPATH_EVAL_H_
#define PARBOX_XPATH_EVAL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "boolexpr/expr.h"
#include "common/status.h"
#include "xml/dom.h"
#include "xpath/qlist.h"

namespace parbox::xpath {

/// The (V, CV, DV) triplet of Fig. 3, at one node. Entries are
/// kTrueExpr/kFalseExpr unless a virtual node below made them formulas.
struct EvalVectors {
  std::vector<bexpr::ExprId> v;   ///< holds *here*
  std::vector<bexpr::ExprId> cv;  ///< holds at some child
  std::vector<bexpr::ExprId> dv;  ///< holds here or below
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

/// One instruction of a batch's program: a lane's donor-prefix copy,
/// or the evaluation of one suffix entry (cases c0-c8 of bottomUp).
/// Indices are absolute — into the concatenated entry space — so one
/// pass over the program evaluates every lane at an element.
struct EvalStep {
  enum class Op : uint8_t {
    kCopy,  ///< V entries [a, a + b) copy onto [at, at + b)
    kTrue,  ///< ǫ, and a selection mark read as a Boolean
    kFalse,
    kLabelIs,
    kTextIs,
    kChild,  ///< CV[a]
    kAnd,    ///< V[a] ∧ V[b]; also ǫ[q_a]/q_b
    kOr,
    kDesc,  ///< DV[a], line 17 applied: a holds here or below
    kNot,
  };
  Op op = Op::kFalse;
  uint32_t at = 0;  ///< entry written (kCopy: first destination entry)
  uint32_t a = 0;   ///< first operand entry (kCopy: first source entry)
  uint32_t b = 0;   ///< second operand entry (kCopy: entry count)
  std::string_view str;  ///< kLabelIs / kTextIs operand
};

/// A batch of queries laid out for one walk. Build once per batch (the
/// donor scan is O(K² · |q|)), then walk any number of trees/fragments
/// with BottomUpEvalBatch.
struct EvalBatch {
  std::vector<BatchLane> lanes;
  /// The program: lane by lane, the lane's donor copy (if it has a
  /// donor), then one step per suffix entry in QList order. Donors
  /// precede their dependents, so every copy reads finished values.
  std::vector<EvalStep> steps;
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

/// Lay out `queries` as lanes, pick each lane's donor — the earlier
/// lane with the longest common prefix (earliest wins ties) — and
/// build the program. Queries must outlive the batch: the program's
/// label and text operands point into them.
EvalBatch MakeEvalBatch(const std::vector<const NormQuery*>& queries);

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
  void operator()(const xml::Node&,
                  const std::vector<bexpr::ExprId>&) const {}
};

namespace detail {

inline bool TestBit(const uint64_t* mask, uint32_t i) {
  return ((mask[i >> 6] >> (i & 63)) & 1) != 0;
}

/// OR bits [from, from + n) of `mask` onto [to, to + n). The ranges are
/// disjoint, so the source is never overwritten mid-copy.
inline void CopyBits(uint64_t* mask, size_t from, size_t to, size_t n) {
  for (size_t k = 0; k < n; k += 64) {
    const size_t len = std::min<size_t>(64, n - k);
    const size_t src = from + k;
    const size_t dst = to + k;
    const size_t s = src & 63;
    const size_t d = dst & 63;
    uint64_t bits = mask[src >> 6] >> s;
    if (s != 0 && s + len > 64) bits |= mask[(src >> 6) + 1] << (64 - s);
    if (len < 64) bits &= (uint64_t{1} << len) - 1;
    mask[dst >> 6] |= bits << d;
    if (d != 0 && d + len > 64) mask[(dst >> 6) + 1] |= bits >> (64 - d);
  }
}

/// StepValue's connectives on truth values (mask frames)...
struct BitLogic {
  using Value = bool;
  bool Of(bool b) const { return b; }
  bool And(bool a, bool b) const { return a & b; }
  bool Or(bool a, bool b) const { return a | b; }
  bool Not(bool a) const { return !a; }
};

/// ...and on formulas interned in `factory` (promoted frames).
struct FormulaLogic {
  using Value = bexpr::ExprId;
  bexpr::ExprFactory* factory;
  Value Of(bool b) const { return factory->FromBool(b); }
  Value And(Value a, Value b) const { return factory->And(a, b); }
  Value Or(Value a, Value b) const { return factory->Or(a, b); }
  Value Not(Value a) const { return factory->Not(a); }
};

/// Value of evaluation step `s` (not kCopy) at element `node`, in
/// `logic`. `v(i)` and `cv(i)` read entry i of V and CV; `desc(i)` is
/// whether entry i holds here or below, i.e. its DV with line 17
/// applied. The QList is topologically sorted, so every operand entry
/// precedes s.at and its V is final.
template <typename Logic, typename V, typename CV, typename Desc>
inline typename Logic::Value StepValue(const EvalStep& s,
                                       const xml::Node& node, Logic logic,
                                       V v, CV cv, Desc desc) {
  using Op = EvalStep::Op;
  switch (s.op) {
    case Op::kTrue:
      return logic.Of(true);
    case Op::kLabelIs:
      return logic.Of(node.label() == s.str);
    case Op::kTextIs:
      return logic.Of(xml::DirectTextEquals(node, s.str));
    case Op::kChild:
      return cv(s.a);
    case Op::kAnd:
      return logic.And(v(s.a), v(s.b));
    case Op::kOr:
      return logic.Or(v(s.a), v(s.b));
    case Op::kDesc:
      return desc(s.a);
    case Op::kNot:
      return logic.Not(v(s.a));
    default:
      return logic.Of(false);
  }
}

}  // namespace detail

/// Evaluate every lane of `batch` over the subtree rooted at `root` (an
/// element) in one walk. `resolve_virtual(node, out_v, out_dv)` fills
/// V/DV vectors of size batch.max_width for a virtual child; entry i is
/// shared by every lane (lane-local variable identity — see file
/// comment). Formulas are interned in `factory`; a walk whose resolver
/// returns only constants never writes it. Returns one EvalVectors per
/// lane, in lane order.
///
/// `node_hook(node, vv)` observes each element's finished V vectors in
/// the concatenated layout (lane k's entries start at
/// lanes[k].offset) — for a one-lane batch, the query's V vector. On a
/// mask frame the vector is materialized from the V mask for the hook;
/// the selection extensions use it to retain per-node predicates.
///
/// `counters->ops` charges only the entries actually evaluated
/// (Σ_k width_k − shared_k per element); donor-copied slots land in
/// `stats->shared_entries` instead. `counters->elements` counts each
/// element once per *walk*, not once per lane.
template <typename VirtualFn, typename NodeHook = NoNodeHook>
std::vector<EvalVectors> BottomUpEvalBatch(
    bexpr::ExprFactory* factory, const EvalBatch& batch,
    const xml::Node& root, VirtualFn&& resolve_virtual,
    EvalCounters* counters = nullptr, BatchEvalStats* stats = nullptr,
    NodeHook node_hook = {}) {
  using bexpr::ExprId;
  using bexpr::kFalseExpr;
  using bexpr::kTrueExpr;
  using Op = EvalStep::Op;
  using Ops = std::vector<std::pair<uint32_t, ExprId>>;
  constexpr bool kHooked = !std::is_same_v<NodeHook, NoNodeHook>;
  assert(root.is_element());
  const size_t total = batch.total_width;
  const size_t words = std::max<size_t>(1, (total + 63) / 64);

  struct Frame {
    const xml::Node* node = nullptr;
    const xml::Node* next_child = nullptr;
    /// A non-constant value arrived: Phase 2 runs on ExprIds.
    bool promoted = false;
    /// Promoted frames: the formula contributions per suffix entry,
    /// folded with one OrN each in Phase 2 (constants went to the
    /// masks).
    Ops cv_ops;
    Ops dv_ops;
  };
  // Frame d's CV mask is masks[2d·words, (2d+1)·words), its DV mask the
  // next `words` words. Frames deeper than the current one are stale.
  std::vector<uint64_t> masks;
  std::vector<uint64_t> v_mask(words);
  auto cv_mask = [&](size_t d) { return masks.data() + 2 * d * words; };
  auto dv_mask = [&](size_t d) { return cv_mask(d) + words; };

  // The concatenated ExprId layout, for promoted frames and hooks.
  std::vector<ExprId> vv;
  std::vector<ExprId> cv;
  std::vector<ExprId> dv;
  auto materialize = [total](const uint64_t* mask, std::vector<ExprId>& out) {
    out.resize(total);
    for (size_t at = 0; at < total; ++at) {
      out[at] = detail::TestBit(mask, static_cast<uint32_t>(at)) ? kTrueExpr
                                                                 : kFalseExpr;
    }
  };

  // Fold one value per entry of every lane into frame `f`'s CV or DV
  // (absorbing on true, neutral on false); `value_of(at, i)` is entry i
  // of the lane, at absolute index `at`. A formula promotes the frame
  // and waits for Phase 2, but only on a lane's suffix: the prefix is
  // the donor's copy, and the donor's own entry carries that formula.
  auto fold_lanes = [&](Frame& f, uint64_t* mask, Ops& ops, auto value_of) {
    for (const BatchLane& lane : batch.lanes) {
      for (uint32_t i = 0; i < lane.width; ++i) {
        const uint32_t at = lane.offset + i;
        const ExprId value = value_of(at, i);
        if (value == kTrueExpr) {
          mask[at >> 6] |= uint64_t{1} << (at & 63);
        } else if (value != kFalseExpr && i >= lane.shared) {
          f.promoted = true;
          ops.emplace_back(at, value);
        }
      }
    }
  };
  // Phase 2 of a promoted frame: gather each entry's formula operands
  // and intern one OrN. Folding k operands pairwise would intern k
  // intermediate nodes (O(k²) hashing at a fragment root with many
  // sub-fragments); the final node is what that chain flattens to.
  std::vector<ExprId> fold_scratch;
  auto fold_ops = [&](Ops& ops, std::vector<ExprId>& base) {
    std::sort(ops.begin(), ops.end());
    for (size_t a = 0; a < ops.size();) {
      size_t b = a;
      while (b < ops.size() && ops[b].first == ops[a].first) ++b;
      const size_t i = ops[a].first;
      if (base[i] != kTrueExpr) {
        if (b - a == 1) {
          base[i] = ops[a].second;
        } else {
          fold_scratch.clear();
          for (size_t k = a; k < b; ++k) {
            fold_scratch.push_back(ops[k].second);
          }
          base[i] = factory->OrN(fold_scratch);
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

  std::vector<EvalVectors> result(batch.lanes.size());
  std::vector<ExprId> virt_v(batch.max_width, kFalseExpr);
  std::vector<ExprId> virt_dv(batch.max_width, kFalseExpr);

  // The stack only ever grows; popped frames keep their vector
  // capacity and are reused by the next push at that depth.
  std::vector<Frame> stack;
  size_t depth = 0;
  const xml::Node* descend = &root;  // element to push next, if any
  while (descend != nullptr || depth > 0) {
    if (descend != nullptr) {
      if (depth == stack.size()) {
        stack.emplace_back();
        masks.resize(masks.size() + 2 * words);
      }
      Frame& pushed = stack[depth];
      pushed.node = descend;
      pushed.next_child = descend->first_child;
      pushed.promoted = false;
      pushed.cv_ops.clear();
      pushed.dv_ops.clear();
      std::fill_n(cv_mask(depth), 2 * words, 0);
      ++depth;
      descend = nullptr;
    }
    Frame& f = stack[depth - 1];
    uint64_t* fcv = cv_mask(depth - 1);
    uint64_t* fdv = dv_mask(depth - 1);

    // Phase 1: fold children (lines 1-5 of bottomUp).
    while (f.next_child != nullptr) {
      const xml::Node* c = f.next_child;
      f.next_child = c->next_sibling;
      if (c->is_text()) continue;  // text leaves carry no vectors
      if (c->is_virtual()) {
        resolve_virtual(*c, &virt_v, &virt_dv);
        assert(virt_v.size() == batch.max_width &&
               virt_dv.size() == batch.max_width);
        fold_lanes(f, fcv, f.cv_ops,
                   [&](size_t, size_t i) { return virt_v[i]; });
        fold_lanes(f, fdv, f.dv_ops,
                   [&](size_t, size_t i) { return virt_dv[i]; });
        continue;
      }
      descend = c;  // the push may grow `stack`: `f` dies here
      break;
    }
    if (descend != nullptr) continue;

    // Phase 2: all children folded; compute V at this node (lines
    // 6-17, cases c0-c8) by running the program: lane by lane, the
    // donor's finished prefix copies, then the divergent suffix
    // evaluates. Afterwards every lane's region of V / CV / DV is
    // exactly what a one-lane walk of that lane's query would hold.
    const xml::Node& node = *f.node;
    if (!f.promoted) {
      uint64_t* v = v_mask.data();
      std::fill_n(v, words, 0);
      for (const EvalStep& s : batch.steps) {
        if (s.op == Op::kCopy) {
          detail::CopyBits(v, s.a, s.at, s.b);
          continue;
        }
        // Line 17 waits for the whole program, so here DV holds only
        // the children and "here or below" adds this element's V.
        const bool value = detail::StepValue(
            s, node, detail::BitLogic{},
            [v](uint32_t i) { return detail::TestBit(v, i); },
            [fcv](uint32_t i) { return detail::TestBit(fcv, i); },
            [v, fdv](uint32_t i) {
              return detail::TestBit(fdv, i) || detail::TestBit(v, i);
            });
        v[s.at >> 6] |= uint64_t{value} << (s.at & 63);
      }
      for (size_t w = 0; w < words; ++w) fdv[w] |= v[w];  // line 17
      if constexpr (kHooked) materialize(v, vv);
    } else {
      // The same program on formulas, interning in the order a walk on
      // ExprId vectors throughout would: CV operands, DV operands, then
      // lane by lane.
      materialize(fcv, cv);
      materialize(fdv, dv);
      vv.resize(total);
      fold_ops(f.cv_ops, cv);
      fold_ops(f.dv_ops, dv);
      for (const EvalStep& s : batch.steps) {
        if (s.op == Op::kCopy) {
          // The donor's prefix is post-Phase-2 here: V final, DV with
          // line 17 applied, CV as folded. Suffix entries may read
          // prefix entries through any of the three, so all three copy.
          std::copy_n(vv.begin() + s.a, s.b, vv.begin() + s.at);
          std::copy_n(cv.begin() + s.a, s.b, cv.begin() + s.at);
          std::copy_n(dv.begin() + s.a, s.b, dv.begin() + s.at);
          continue;
        }
        // Line 17 runs per step here, so every dv[i] with i < s.at
        // already holds "here or below".
        const ExprId value = detail::StepValue(
            s, node, detail::FormulaLogic{factory},
            [&](uint32_t i) { return vv[i]; },
            [&](uint32_t i) { return cv[i]; },
            [&](uint32_t i) { return dv[i]; });
        vv[s.at] = value;
        dv[s.at] = factory->Or(value, dv[s.at]);  // line 17
      }
    }
    if (counters != nullptr) {
      counters->ops += evaluated_per_element;
      counters->elements += 1;
    }
    if (stats != nullptr) stats->shared_entries += copied_per_element;
    if constexpr (kHooked) node_hook(node, vv);

    // Phase 3: fold this node's (V, DV) into the parent (or finish).
    if (depth == 1) {
      if (!f.promoted) {
        materialize(v_mask.data(), vv);
        materialize(fcv, cv);
        materialize(fdv, dv);
      }
      for (size_t k = 0; k < batch.lanes.size(); ++k) {
        const BatchLane& lane = batch.lanes[k];
        const auto from = static_cast<std::ptrdiff_t>(lane.offset);
        const auto to = from + static_cast<std::ptrdiff_t>(lane.width);
        result[k].v.assign(vv.begin() + from, vv.begin() + to);
        result[k].cv.assign(cv.begin() + from, cv.begin() + to);
        result[k].dv.assign(dv.begin() + from, dv.begin() + to);
      }
    } else {
      Frame& parent = stack[depth - 2];
      uint64_t* pcv = cv_mask(depth - 2);
      uint64_t* pdv = dv_mask(depth - 2);
      if (!f.promoted) {
        for (size_t w = 0; w < words; ++w) {
          pcv[w] |= v_mask[w];
          pdv[w] |= fdv[w];
        }
      } else {
        fold_lanes(parent, pcv, parent.cv_ops,
                   [&](size_t at, size_t) { return vv[at]; });
        fold_lanes(parent, pdv, parent.dv_ops,
                   [&](size_t at, size_t) { return dv[at]; });
      }
    }
    --depth;
  }
  return result;
}

/// A solo walk: BottomUpEvalBatch over the one-lane batch of `q`.
/// `resolve_virtual` fills vectors of size |q|; `node_hook(node, v)`
/// observes each element's finished V vector.
template <typename VirtualFn, typename NodeHook = NoNodeHook>
EvalVectors BottomUpEval(bexpr::ExprFactory* factory, const NormQuery& q,
                         const xml::Node& root, VirtualFn&& resolve_virtual,
                         EvalCounters* counters = nullptr,
                         NodeHook node_hook = {}) {
  return std::move(
      BottomUpEvalBatch(factory, MakeEvalBatch({&q}), root,
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
