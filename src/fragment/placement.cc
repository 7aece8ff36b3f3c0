#include "fragment/placement.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace parbox::frag {

Result<Placement> Placement::Create(const FragmentSet& set,
                                    std::vector<SiteId> site_of_fragment,
                                    int32_t num_sites) {
  if (site_of_fragment.size() < set.table_size()) {
    return Status::InvalidArgument(
        "site assignment smaller than the fragment table");
  }
  SiteId max_site = -1;
  for (FragmentId f : set.live_ids()) {
    if (site_of_fragment[f] < 0) {
      return Status::InvalidArgument("live fragment without a site");
    }
    max_site = std::max(max_site, site_of_fragment[f]);
  }
  if (num_sites == 0) num_sites = max_site + 1;
  if (max_site >= num_sites) {
    return Status::InvalidArgument(
        "assignment names site " + std::to_string(max_site) +
        " but the placement has " + std::to_string(num_sites) + " sites");
  }
  Placement p;
  p.root_ = set.root_fragment();
  p.num_sites_ = num_sites;
  p.site_of_ = std::move(site_of_fragment);
  return p;
}

Status Placement::Move(const FragmentSet& set, FragmentId f, SiteId site) {
  if (!set.is_live(f) ||
      static_cast<size_t>(f) >= site_of_.size()) {
    return Status::InvalidArgument("Move targets a dead fragment");
  }
  if (site < 0 || site >= num_sites_) {
    return Status::InvalidArgument(
        "Move targets site " + std::to_string(site) + " outside [0, " +
        std::to_string(num_sites_) + ")");
  }
  if (f == root_) {
    return Status::InvalidArgument(
        "the root fragment is pinned to the coordinator site; moving it "
        "is a re-deployment, not a live migration");
  }
  if (site_of_[f] == site) return Status::OK();  // no-op, no epoch bump
  site_of_[f] = site;
  ++epoch_;
  return Status::OK();
}

Result<SourceTree> Placement::Snapshot(const FragmentSet& set) const {
  return SourceTree::Create(set, site_of_, num_sites_, epoch_);
}

std::vector<ProposedMove> ProposeRebalance(
    const FragmentSet& set, const Placement& placement,
    const std::vector<uint64_t>& site_visits,
    const std::vector<uint64_t>& site_bytes_in,
    const RebalanceOptions& options) {
  const int32_t n = placement.num_sites();
  std::vector<ProposedMove> moves;
  if (n < 2) return moves;

  auto metered = [](const std::vector<uint64_t>& v, int32_t s) {
    return s >= 0 && static_cast<size_t>(s) < v.size() ? v[s] : uint64_t{0};
  };
  std::vector<double> load(static_cast<size_t>(n), 0.0);
  for (int32_t s = 0; s < n; ++s) {
    load[s] = static_cast<double>(metered(site_visits, s)) *
                  static_cast<double>(options.visit_cost_bytes) +
              static_cast<double>(metered(site_bytes_in, s));
  }
  double total = 0.0;
  for (double l : load) total += l;
  if (total <= 0.0) return moves;
  const double mean = total / n;

  // Working copy of h and of each site's estimated per-fragment load
  // split: a fragment carries its element share of its site's load.
  // Element counts and per-site movable lists are computed ONCE —
  // FragmentElements walks the fragment's subtree, and calling it per
  // candidate per move iteration (as this loop once did) is quadratic
  // at the 10k-fragment scale the chaos suite serves.
  std::vector<SiteId> site_of = placement.site_table();
  const std::vector<FragmentId> live = set.live_ids();
  std::vector<double> elements_of(site_of.size(), 0.0);
  std::vector<double> site_elements(static_cast<size_t>(n), 0.0);
  std::vector<std::vector<FragmentId>> movable_at(static_cast<size_t>(n));
  for (FragmentId f : live) {
    elements_of[f] = static_cast<double>(set.FragmentElements(f)) + 1.0;
    site_elements[site_of[f]] += elements_of[f];
    if (f != placement.root_fragment()) {
      movable_at[site_of[f]].push_back(f);
    }
  }
  auto fragment_load = [&](FragmentId f) {
    const SiteId s = site_of[f];
    return load[s] * elements_of[f] / site_elements[s];
  };

  while (moves.size() < options.max_moves) {
    int32_t cold = 0;
    for (int32_t s = 1; s < n; ++s) {
      if (load[s] < load[cold]) cold = s;
    }
    // The hottest overloaded site that actually holds a movable
    // fragment — the absolute hottest may be the coordinator, whose
    // only fragment (the root) is pinned.
    int32_t hot = -1;
    for (int32_t s = 0; s < n; ++s) {
      if (s == cold || load[s] <= mean * (1.0 + options.tolerance)) {
        continue;
      }
      if (!movable_at[s].empty() && (hot < 0 || load[s] > load[hot])) {
        hot = s;
      }
    }
    if (hot < 0) break;  // balanced, or every hot fragment is pinned
    const double gap = load[hot] - load[cold];

    // The movable fragment on the hot site whose estimated load lands
    // closest to half the gap (overshooting a full gap would just swap
    // the imbalance); lowest id breaks ties deterministically.
    FragmentId best = kNoFragment;
    double best_score = 0.0;
    for (FragmentId f : movable_at[hot]) {
      const double score = std::abs(fragment_load(f) - gap / 2.0);
      if (best == kNoFragment || score < best_score ||
          (score == best_score && f < best)) {
        best = f;
        best_score = score;
      }
    }
    if (best == kNoFragment) break;  // unreachable given the hot scan

    const double moved_load = fragment_load(best);
    // Only move if it strictly improves the pair's peak load —
    // otherwise a dominant fragment just ping-pongs between the hot
    // and cold site, each bounce a full (useless) content migration.
    if (std::max(load[hot] - moved_load, load[cold] + moved_load) >=
        load[hot]) {
      break;
    }
    const double moved_elements = elements_of[best];
    moves.push_back(ProposedMove{best, hot, cold});
    load[hot] -= moved_load;
    load[cold] += moved_load;
    site_elements[hot] -= moved_elements;
    site_elements[cold] += moved_elements;
    std::vector<FragmentId>& hot_list = movable_at[hot];
    hot_list.erase(std::find(hot_list.begin(), hot_list.end(), best));
    movable_at[cold].push_back(best);
    site_of[best] = cold;
  }
  return moves;
}

void PlacementFeed::Publish(std::shared_ptr<const SourceTree> snapshot,
                            std::vector<FragmentId> moved) {
  ++epoch_;
  snapshot_ = std::move(snapshot);
  if (!moved.empty()) {
    log_.push_back(Entry{epoch_, std::move(moved)});
  }
  // Keep the log bounded on a long-lived server (periodic rebalances
  // publish forever): merge the oldest half into one entry carrying
  // the union of its moves at the newest merged epoch. A subscriber
  // behind the merge then sees a *superset* of its real backlog —
  // over-shipping a few fragments' state is always sound; losing one
  // never is.
  constexpr size_t kMaxEntries = 64;
  if (log_.size() > kMaxEntries) {
    const size_t keep_from = log_.size() / 2;
    Entry merged;
    merged.epoch = log_[keep_from - 1].epoch;
    for (size_t i = 0; i < keep_from; ++i) {
      merged.moved.insert(merged.moved.end(), log_[i].moved.begin(),
                          log_[i].moved.end());
    }
    std::sort(merged.moved.begin(), merged.moved.end());
    merged.moved.erase(
        std::unique(merged.moved.begin(), merged.moved.end()),
        merged.moved.end());
    log_.erase(log_.begin(), log_.begin() + static_cast<long>(keep_from));
    log_.insert(log_.begin(), std::move(merged));
  }
}

std::vector<FragmentId> PlacementFeed::MovedSince(
    uint64_t since_epoch) const {
  std::vector<FragmentId> out;
  for (const Entry& e : log_) {
    if (e.epoch <= since_epoch) continue;
    out.insert(out.end(), e.moved.begin(), e.moved.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace parbox::frag
