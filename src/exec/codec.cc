#include "exec/codec.h"

#include <cstring>

#include "boolexpr/serialize.h"

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

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetU32(std::string_view* data, uint32_t* v) {
  if (data->size() < 4) return false;
  std::memcpy(v, data->data(), 4);
  data->remove_prefix(4);
  return true;
}

bool GetU64(std::string_view* data, uint64_t* v) {
  if (data->size() < 8) return false;
  std::memcpy(v, data->data(), 8);
  data->remove_prefix(8);
  return true;
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

Result<TripletBatch> TakeTripletBatch(Parcel parcel,
                                      bexpr::ExprFactory* factory) {
  if (parcel.has_local()) {
    return std::move(*parcel.local<TripletBatch>());
  }
  if (!parcel.has_wire()) {
    return Status::Internal("batch parcel carries neither value nor wire");
  }
  std::string_view data = parcel.wire();
  uint32_t count = 0;
  if (!GetU32(&data, &count)) {
    return Status::Internal("truncated triplet batch parcel");
  }
  // Every item carries at least its header: a count the remaining
  // bytes cannot hold is malformed, not an allocation.
  if (count > data.size() / kItemHeaderBytes) {
    return Status::Internal("truncated triplet batch parcel");
  }
  TripletBatch batch;
  batch.items.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    TripletBatch::Item& item = batch.items[i];
    uint32_t slot = 0;
    uint32_t fragment = 0;
    uint32_t payload_size = 0;
    if (!GetU64(&data, &item.key) || !GetU32(&data, &slot) ||
        !GetU32(&data, &fragment) || !GetU32(&data, &payload_size) ||
        data.size() < payload_size) {
      return Status::Internal("truncated triplet batch parcel");
    }
    item.slot = static_cast<int32_t>(slot);
    PARBOX_ASSIGN_OR_RETURN(
        std::vector<bexpr::ExprId> roots,
        bexpr::DeserializeExprs(factory, data.substr(0, payload_size)));
    data.remove_prefix(payload_size);
    PARBOX_RETURN_IF_ERROR(SplitRoots(std::move(roots),
                                      static_cast<int32_t>(fragment),
                                      &item.eq));
  }
  return batch;
}

}  // namespace parbox::exec
