// Round: one ParBoX round (Fig. 3), the one fan-out behind every
// caller that partially evaluates fragments at their sites (DESIGN.md,
// "The round").
//
// Each listed site is visited once and sent one request (the caller's
// tag and size); in its context every listed fragment is walked ONCE
// for all K queries into the site's factory, each walk charged to the
// site's serial queue; once its last walk drains the site ships ONE
// exec::TripletBatch back; the coordinator validates every item and
// splices it into its lane's RetainedSystem, and after the last site
// calls back once. Solving is the caller's.

#ifndef PARBOX_CORE_ROUND_H_
#define PARBOX_CORE_ROUND_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "boolexpr/expr.h"
#include "common/status.h"
#include "core/partial_eval.h"
#include "core/retained.h"
#include "core/session.h"
#include "exec/backend.h"
#include "fragment/fragment.h"
#include "obs/trace.h"
#include "xpath/eval.h"

namespace parbox::core {

/// One site's share of a round.
struct SiteWork {
  sim::SiteId site = 0;
  std::vector<frag::FragmentId> fragments;  ///< walked in this order
  uint64_t request_bytes = 0;  ///< metered size of the site's request
};

/// Every site of `plan` with all its fragments, each request
/// `request_bytes` long.
std::vector<SiteWork> PlanWork(const SitePlan& plan, uint64_t request_bytes);

/// What a finished round reports.
struct RoundResult {
  /// Per lane: some spliced triplet differed from the one retained.
  std::vector<bool> changed;
  /// The first failure: a reply that did not decode, or an item whose
  /// lane or slot is out of range. The other items are still spliced.
  Status status = Status::OK();
  uint64_t ops = 0;             ///< kernel ops of every walk
  uint64_t walks = 0;           ///< walks run (live fragments only)
  uint64_t shared_entries = 0;  ///< entries served by cross-lane sharing
  /// Metered traffic; coordinator-local hand-offs are not metered.
  uint64_t request_bytes = 0, request_messages = 0;
  uint64_t reply_bytes = 0, reply_messages = 0;
};

/// A round's inputs. Everything pointed to must outlive the round.
struct Round {
  exec::ExecBackend* backend = nullptr;
  sim::SiteId coordinator = 0;
  /// The coordinator's factory: replies decode into it.
  bexpr::ExprFactory* factory = nullptr;
  const frag::FragmentSet* set = nullptr;
  obs::Tracer* tracer = nullptr;  ///< site.eval/site.reply spans, or none
  const xpath::EvalBatch* batch = nullptr;  ///< the K queries
  std::vector<RetainedSystem*> systems;     ///< lane k splices into [k]
  std::string_view tag;                     ///< the requests' tag
  std::vector<SiteWork> work;
  /// Sees every element of every walk, in the walking site's context
  /// (ids in its factory); none when empty.
  FragmentNodeHook node_hook = nullptr;
};

using RoundDoneFn = std::function<void(RoundResult)>;

/// Start `round` from coordinator context; drive it with the backend's
/// Drain. `done` runs once, in coordinator context, after the last
/// site's reply is spliced (at once when there is no work). A fragment
/// merged away since the work list was drawn up yields an empty item,
/// which leaves its slot a hole.
void StartRound(Round round, RoundDoneFn done);

}  // namespace parbox::core

#endif  // PARBOX_CORE_ROUND_H_
