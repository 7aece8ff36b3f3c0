#include "exec/codec.h"

#include "boolexpr/serialize.h"
#include "common/bytes.h"

namespace parbox::exec {

namespace {

/// key (8) + slot (4) + fragment (4) + payload size (4).
constexpr size_t kItemHeaderBytes = 20;

std::vector<bexpr::ExprId> TripletRoots(const bexpr::FragmentEquations& eq) {
  std::vector<bexpr::ExprId> roots;
  roots.reserve(eq.v.size() + eq.cv.size() + eq.dv.size());
  roots.insert(roots.end(), eq.v.begin(), eq.v.end());
  roots.insert(roots.end(), eq.cv.begin(), eq.cv.end());
  roots.insert(roots.end(), eq.dv.begin(), eq.dv.end());
  return roots;
}

/// Roots (3n of them, possibly none) back into a triplet.
Status SplitRoots(std::vector<bexpr::ExprId> roots, int32_t fragment,
                  bexpr::FragmentEquations* eq) {
  if (roots.size() % 3 != 0) {
    return Status::Internal("triplet with unexpected arity");
  }
  const size_t n = roots.size() / 3;
  eq->fragment = fragment;
  eq->v.assign(roots.begin(), roots.begin() + n);
  eq->cv.assign(roots.begin() + n, roots.begin() + 2 * n);
  eq->dv.assign(roots.begin() + 2 * n, roots.end());
  return Status::OK();
}

}  // namespace

Parcel MakeTripletBatchParcel(const bexpr::ExprFactory& factory,
                              std::shared_ptr<TripletBatch> batch) {
  uint64_t bytes = 0;
  for (const TripletBatch::Item& item : batch->items) {
    bytes += bexpr::SerializedExprsSize(factory, TripletRoots(item.eq));
  }
  const bexpr::ExprFactory* f = &factory;
  std::shared_ptr<TripletBatch> held = batch;
  return Parcel::Coded(std::move(batch), bytes, [f, held]() {
    std::string wire;
    PutU32(&wire, static_cast<uint32_t>(held->items.size()));
    for (const TripletBatch::Item& item : held->items) {
      PutU64(&wire, item.key);
      PutU32(&wire, static_cast<uint32_t>(item.slot));
      PutU32(&wire, static_cast<uint32_t>(item.eq.fragment));
      const std::string payload =
          bexpr::SerializeExprs(*f, TripletRoots(item.eq));
      PutU32(&wire, static_cast<uint32_t>(payload.size()));
      wire += payload;
    }
    return wire;
  });
}

Result<TripletBatch> DecodeTripletBatch(std::string_view wire,
                                        bexpr::ExprFactory* factory) {
  ByteReader r(wire);
  const uint32_t count = r.U32();
  // Every item carries at least its header: a count the remaining
  // bytes cannot hold is malformed, not an allocation.
  if (!r.ok() || count > r.remaining() / kItemHeaderBytes) {
    return Status::Internal("truncated triplet batch wire");
  }
  TripletBatch batch;
  batch.items.resize(count);
  for (TripletBatch::Item& item : batch.items) {
    item.key = r.U64();
    item.slot = static_cast<int32_t>(r.U32());
    const auto fragment = static_cast<int32_t>(r.U32());
    const std::string_view payload = r.Bytes(r.U32());
    if (!r.ok()) return Status::Internal("truncated triplet batch wire");
    PARBOX_ASSIGN_OR_RETURN(std::vector<bexpr::ExprId> roots,
                            bexpr::DeserializeExprs(factory, payload));
    PARBOX_RETURN_IF_ERROR(SplitRoots(std::move(roots), fragment, &item.eq));
  }
  if (r.remaining() != 0) {
    return Status::Internal("trailing bytes after triplet batch wire");
  }
  return batch;
}

Result<TripletBatch> TakeTripletBatch(Parcel parcel,
                                      bexpr::ExprFactory* factory) {
  if (parcel.has_local()) {
    return std::move(*parcel.local<TripletBatch>());
  }
  if (!parcel.has_wire()) {
    return Status::Internal("batch parcel carries neither value nor wire");
  }
  return DecodeTripletBatch(parcel.wire(), factory);
}

}  // namespace parbox::exec
