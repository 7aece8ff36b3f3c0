// The triplet-batch codec (exec/codec.h) on wire bytes, as a reply
// arriving from another process is decoded: through Parcel::FromWire.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "boolexpr/expr.h"
#include "exec/backend.h"
#include "exec/codec.h"

namespace parbox::exec {
namespace {

using bexpr::ExprFactory;
using bexpr::VarId;
using bexpr::VectorKind;

/// A two-item batch out of `f`: a formula-carrying triplet and an empty
/// one (a fragment merged away), under different keys and slots.
std::shared_ptr<TripletBatch> MakeBatch(ExprFactory* f) {
  auto batch = std::make_shared<TripletBatch>();
  TripletBatch::Item& full = batch->items.emplace_back();
  full.key = 7;
  full.slot = 2;
  full.eq.fragment = 2;
  const bexpr::ExprId v = f->Var(VarId{3, VectorKind::kV, 0});
  const bexpr::ExprId dv = f->Var(VarId{3, VectorKind::kDV, 1});
  full.eq.v = {f->Or(v, dv), f->True()};
  full.eq.cv = {f->False(), v};
  full.eq.dv = {f->And(v, f->Not(dv)), f->True()};
  TripletBatch::Item& empty = batch->items.emplace_back();
  empty.key = 1;
  empty.slot = 5;
  return batch;
}

std::string Wire(const ExprFactory& f, std::shared_ptr<TripletBatch> batch) {
  Parcel parcel = MakeTripletBatchParcel(f, std::move(batch));
  parcel.Encode();
  EXPECT_TRUE(parcel.has_wire());
  return parcel.wire();
}

TEST(TripletBatchCodecTest, RoundTripsIntoAnotherFactory) {
  ExprFactory sender;
  std::shared_ptr<TripletBatch> batch = MakeBatch(&sender);
  const uint64_t bytes =
      MakeTripletBatchParcel(sender, batch).wire_bytes();
  const std::string wire = Wire(sender, batch);

  ExprFactory receiver;
  receiver.Var(VarId{9, VectorKind::kV, 4});  // shift the receiver's ids
  Result<TripletBatch> got =
      TakeTripletBatch(Parcel::FromWire(wire, bytes), &receiver);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->items.size(), 2u);
  EXPECT_EQ(got->items[0].key, 7u);
  EXPECT_EQ(got->items[0].slot, 2);
  EXPECT_EQ(got->items[0].eq.fragment, 2);
  EXPECT_EQ(got->items[0].eq.v.size(), 2u);
  EXPECT_EQ(got->items[1].key, 1u);
  EXPECT_EQ(got->items[1].slot, 5);
  EXPECT_EQ(got->items[1].eq.fragment, -1);
  EXPECT_TRUE(got->items[1].eq.v.empty());
  // Structurally identical: the receiver meters the same size, and
  // its encoding decodes back into the sender's hash-consing factory
  // as the very ids the sender started from.
  auto again = std::make_shared<TripletBatch>(std::move(*got));
  EXPECT_EQ(MakeTripletBatchParcel(receiver, again).wire_bytes(), bytes);
  Result<TripletBatch> back = TakeTripletBatch(
      Parcel::FromWire(Wire(receiver, again), bytes), &sender);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->items.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back->items[i].eq.v, batch->items[i].eq.v);
    EXPECT_EQ(back->items[i].eq.cv, batch->items[i].eq.cv);
    EXPECT_EQ(back->items[i].eq.dv, batch->items[i].eq.dv);
  }
}

TEST(TripletBatchCodecTest, EveryTruncationRejected) {
  ExprFactory sender;
  const std::string wire = Wire(sender, MakeBatch(&sender));
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    ExprFactory receiver;
    EXPECT_FALSE(
        TakeTripletBatch(Parcel::FromWire(wire.substr(0, cut), 0), &receiver)
            .ok())
        << "prefix of length " << cut << " accepted";
  }
}

TEST(TripletBatchCodecTest, TrailingBytesRejected) {
  ExprFactory sender;
  const std::string wire = Wire(sender, MakeBatch(&sender));
  ExprFactory receiver;
  ASSERT_TRUE(DecodeTripletBatch(wire, &receiver).ok());
  EXPECT_FALSE(
      TakeTripletBatch(Parcel::FromWire(wire + '\0', 0), &receiver).ok());
}

TEST(TripletBatchCodecTest, HugeItemCountRejected) {
  ExprFactory receiver;
  std::string wire = "\xff\xff\xff\xff";  // 2^32 - 1 items
  EXPECT_FALSE(TakeTripletBatch(Parcel::FromWire(wire, 0), &receiver).ok());
  // Followed by one well-formed item's worth of bytes: still far short.
  wire += std::string(20, '\0');
  EXPECT_FALSE(TakeTripletBatch(Parcel::FromWire(wire, 0), &receiver).ok());
}

}  // namespace
}  // namespace parbox::exec
