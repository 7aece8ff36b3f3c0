#include "xpath/eval.h"

namespace parbox::xpath {

namespace {

/// The program opcode of a QList case: c0 and a mark are true, c4 is a
/// conjunction.
EvalStep::Op OpOf(NormKind kind) {
  using Op = EvalStep::Op;
  switch (kind) {
    case NormKind::kEps:
    case NormKind::kMark:
      return Op::kTrue;
    case NormKind::kLabelIs:
      return Op::kLabelIs;
    case NormKind::kTextIs:
      return Op::kTextIs;
    case NormKind::kChild:
      return Op::kChild;
    case NormKind::kSeq:
    case NormKind::kAnd:
      return Op::kAnd;
    case NormKind::kOr:
      return Op::kOr;
    case NormKind::kDesc:
      return Op::kDesc;
    case NormKind::kNot:
      return Op::kNot;
  }
  return Op::kFalse;
}

/// Append `lane`'s part of the program: its donor copy, then one step
/// per suffix entry with the QList's indices made absolute.
void AppendLaneSteps(const EvalBatch& batch, const BatchLane& lane,
                     std::vector<EvalStep>* steps) {
  const uint32_t off = lane.offset;
  if (lane.donor >= 0) {
    EvalStep copy;
    copy.op = EvalStep::Op::kCopy;
    copy.at = off;
    copy.a = batch.lanes[static_cast<size_t>(lane.donor)].offset;
    copy.b = lane.shared;
    steps->push_back(copy);
  }
  for (uint32_t i = lane.shared; i < lane.width; ++i) {
    const NormQuery::SubQuery& sq =
        lane.query->at(static_cast<SubQueryId>(i));
    EvalStep s;
    s.op = OpOf(sq.kind);
    s.at = off + i;
    if (sq.a >= 0) s.a = off + static_cast<uint32_t>(sq.a);
    if (sq.b >= 0) s.b = off + static_cast<uint32_t>(sq.b);
    s.str = sq.str;  // the label or text of c1/c2; empty otherwise
    steps->push_back(s);
  }
}

}  // namespace

EvalBatch MakeEvalBatch(const std::vector<const NormQuery*>& queries) {
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
    AppendLaneSteps(batch, lane, &batch.steps);
    batch.lanes.push_back(lane);
  }
  return batch;
}

Result<bool> EvalBoolean(const xml::Node& root, const NormQuery& q,
                         EvalCounters* counters) {
  if (!root.is_element()) {
    return Status::InvalidArgument("evaluation root must be an element");
  }
  if (!q.IsWellFormed()) {
    return Status::InvalidArgument("query QList is not well-formed");
  }
  bool saw_virtual = false;
  // A truth-value walk: nothing resolves to a formula, so the walk
  // never promotes and never writes `factory`.
  bexpr::ExprFactory factory;
  EvalVectors vectors = BottomUpEval(
      &factory, q, root,
      [&](const xml::Node&, std::vector<bexpr::ExprId>* v,
          std::vector<bexpr::ExprId>* dv) {
        saw_virtual = true;
        v->assign(q.size(), bexpr::kFalseExpr);
        dv->assign(q.size(), bexpr::kFalseExpr);
      },
      counters);
  if (saw_virtual) {
    return Status::FailedPrecondition(
        "centralized evaluation over a tree with virtual nodes");
  }
  return vectors.v[q.root()] == bexpr::kTrueExpr;
}

}  // namespace parbox::xpath
