// Placement: the paper's mapping h from fragments to sites (Sec. 2.1)
// as a first-class MUTABLE object.
//
// The algorithms need only the source tree S_T = fragment-tree shape +
// h; historically h was a frozen vector baked into an immutable
// SourceTree. A serving catalog needs to patch h while serving:
// re-home a fragment from an overloaded site (Move). Every move bumps
// a placement *epoch*; Snapshot() freezes the current h into a cheap
// immutable SourceTree stamped with that epoch, which is what sessions
// and services actually evaluate against.
//
// A Move changes no answer — fragment content and the fragment tree
// are untouched, only h — so retained state (cached answers, triplet
// systems) stays valid; subscribers merely re-ship the moved
// fragments' state to the new site (core::Session treats a move as a
// dirty fragment, not a re-seed).
//
// The root fragment is pinned: its site is the coordinator every
// evaluator composes at, and the execution substrate homes that site's
// deliveries in coordinator context. Moving it is a re-deployment, not
// a live migration, and Move rejects it.
//
// PlacementFeed is the pub/sub channel between the catalog (publisher
// of Move epochs) and sessions (subscribers that catch up lazily
// before planning). Single-threaded by contract: publishes and reads
// happen in coordinator context, like every other control-plane
// operation.

#ifndef PARBOX_FRAGMENT_PLACEMENT_H_
#define PARBOX_FRAGMENT_PLACEMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "fragment/fragment.h"
#include "fragment/source_tree.h"

namespace parbox::frag {

class Placement {
 public:
  Placement() = default;

  /// `site_of_fragment` is indexed by fragment id (table-sized, like
  /// the strategies.h assignments). Every live fragment needs a site
  /// in [0, num_sites); `num_sites` 0 derives max assigned site + 1.
  static Result<Placement> Create(const FragmentSet& set,
                                  std::vector<SiteId> site_of_fragment,
                                  int32_t num_sites = 0);

  int32_t num_sites() const { return num_sites_; }
  /// Bumped by every successful Move. Snapshots carry it.
  uint64_t epoch() const { return epoch_; }
  FragmentId root_fragment() const { return root_; }
  SiteId site_of(FragmentId f) const { return site_of_[f]; }
  const std::vector<SiteId>& site_table() const { return site_of_; }

  /// Live migration: re-home live fragment `f` to `site`. Rejects dead
  /// fragments, sites outside [0, num_sites), and the root fragment
  /// (pinned to the coordinator). Moving a fragment to the site it
  /// already occupies is a no-op (OK, no epoch bump).
  Status Move(const FragmentSet& set, FragmentId f, SiteId site);

  /// Freeze the current h into an immutable SourceTree stamped with
  /// this placement's epoch and num_sites.
  Result<SourceTree> Snapshot(const FragmentSet& set) const;

 private:
  FragmentId root_ = kNoFragment;
  int32_t num_sites_ = 0;
  uint64_t epoch_ = 0;
  std::vector<SiteId> site_of_;
};

// ---- Load-aware rebalancing --------------------------------------------

struct RebalanceOptions {
  /// Stop once the hottest site's load is within (1 + tolerance) of
  /// the mean site load.
  double tolerance = 0.25;
  /// At most this many moves per proposal.
  size_t max_moves = 8;
  /// A site visit (work-initiating contact) weighs this many received
  /// bytes when folding TrafficStats visit and byte counts into one
  /// load number.
  uint64_t visit_cost_bytes = 4096;
};

struct ProposedMove {
  FragmentId fragment = kNoFragment;
  SiteId from = -1;
  SiteId to = -1;
};

/// Greedy load-aware rebalance proposal. Per-site load folds the
/// observed visit and received-byte counts (ExecBackend::visits(),
/// TrafficStats::bytes_into — vectors may be shorter than num_sites;
/// missing entries read 0); a fragment's share of its site's load is
/// estimated by its element share. Repeatedly shifts the
/// closest-to-half-the-gap fragment (never the root; deterministic
/// lowest-id tie-break) from the hottest to the coldest site until the
/// load is within tolerance or max_moves is reached. Pure planning —
/// apply the result through Placement::Move / a catalog's Move path.
std::vector<ProposedMove> ProposeRebalance(
    const FragmentSet& set, const Placement& placement,
    const std::vector<uint64_t>& site_visits,
    const std::vector<uint64_t>& site_bytes_in,
    const RebalanceOptions& options = {});

// ---- Placement change feed ---------------------------------------------

/// Pub/sub channel for placement changes: the catalog publishes one
/// entry per Move epoch; subscribers (core::Session) poll epoch() and
/// catch up with MovedSince before planning. Snapshots are shared_ptr
/// so a subscriber that has not caught up yet keeps its old source
/// tree alive.
class PlacementFeed {
 public:
  /// Publisher side: install `snapshot` as current and record which
  /// fragments moved into this epoch. The initial publish (document
  /// open) passes an empty `moved`.
  void Publish(std::shared_ptr<const SourceTree> snapshot,
               std::vector<FragmentId> moved);

  uint64_t epoch() const { return epoch_; }
  std::shared_ptr<const SourceTree> snapshot() const { return snapshot_; }

  /// Fragments moved by every publish after `since_epoch`, de-duplicated,
  /// ascending id.
  std::vector<FragmentId> MovedSince(uint64_t since_epoch) const;

 private:
  struct Entry {
    uint64_t epoch = 0;
    std::vector<FragmentId> moved;
  };

  uint64_t epoch_ = 0;
  std::shared_ptr<const SourceTree> snapshot_;
  std::vector<Entry> log_;
};

}  // namespace parbox::frag

#endif  // PARBOX_FRAGMENT_PLACEMENT_H_
