// Parcel codecs for the payloads that hold factory-relative ids.
//
// Triplets — the (V, CV, DV) formula vectors a site ships back — are
// ExprIds into the *site's* factory. On a backend whose sites share
// one factory (SimBackend) the typed value passes through; when the
// message crosses factory domains (ThreadPoolBackend worker ->
// coordinator) the parcel's encoder runs bexpr::SerializeExprs in the
// sender's context and the receiver decodes into its own factory —
// exactly what distinct processes would do.
//
// Every triplet reply is a TripletBatch, one per site per round;
// core::Round (core/round.h) alone builds and reads them.
//
// Metering: a batch's wire size is the sum over its items of
// SerializedExprsSize of the item's 3·|q| roots (the quantity every
// figure charges); keys, slots, fragment ids and the batch framing
// ride the message envelope, uncounted, like tags.

#ifndef PARBOX_EXEC_CODEC_H_
#define PARBOX_EXEC_CODEC_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "boolexpr/expr.h"
#include "boolexpr/solver.h"
#include "common/status.h"
#include "exec/backend.h"

namespace parbox::exec {

/// A round's worth of triplets from one site: one item per
/// (lane, fragment) pair. `key` is caller-defined routing (the lane of
/// a core::Round); the fragment id rides in eq.fragment. Items may be
/// empty triplets (a fragment that died between plan snapshot and
/// evaluation) — they cross and decode as such.
struct TripletBatch {
  struct Item {
    uint64_t key = 0;
    /// Slot the receiver stores the triplet in (eq.fragment is -1 for
    /// an empty triplet, so the slot travels separately).
    int32_t slot = -1;
    bexpr::FragmentEquations eq;
  };
  std::vector<Item> items;
};

/// Parcel carrying a site's whole batch out of `factory` (the sending
/// context's); wire size = the sum of the per-item triplet sizes
/// (identical to shipping them singly).
Parcel MakeTripletBatchParcel(const bexpr::ExprFactory& factory,
                              std::shared_ptr<TripletBatch> batch);

/// Receiving side: the batch, with ids valid in `*factory` (the
/// receiving context's). Decodes the wire bytes when the parcel
/// crossed factories, otherwise moves the local value out.
Result<TripletBatch> TakeTripletBatch(Parcel parcel,
                                      bexpr::ExprFactory* factory);

/// The one decoder of a batch's wire bytes (also the site daemon's),
/// into `*factory`. Malformed bytes (truncated, trailing, or counts the
/// bytes cannot hold) fail.
Result<TripletBatch> DecodeTripletBatch(std::string_view wire,
                                        bexpr::ExprFactory* factory);

}  // namespace parbox::exec

#endif  // PARBOX_EXEC_CODEC_H_
