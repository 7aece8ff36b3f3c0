// Catalog: named documents served from ONE shared execution substrate.
//
// A production deployment does not run one cluster per document: the
// catalog owns a single exec::BackendHost (sim or threads, chosen
// once) and every opened document becomes an entry
//
//     name -> { FragmentSet, Placement, epoch-stamped SourceTree }
//
// with its own site *namespace* on the shared substrate. Documents
// open and close while others keep serving; any number of sessions
// may be open per document concurrently (each joins the host as its
// own namespace — worker pools and the virtual clock are shared, site
// ids are not).
//
// Placement is live: Document::Move re-homes a fragment between the
// document's sites mid-serving. The move bumps the placement epoch,
// freezes a fresh SourceTree snapshot, and publishes both on the
// document's PlacementFeed; subscribed sessions catch up lazily —
// re-partitioning their plan and re-shipping only the moved
// fragments' retained state (core/session.h). Content updates still
// flow through the usual delta path (Session::Apply /
// QueryService::ApplyDelta) against the entry's FragmentSet.
//
// Threading contract: the catalog is a control-plane object — open,
// close, and move from the coordinator (driving) thread only, between
// or inside event-loop turns, never concurrently with itself.
//
// The serving layer over a catalog — per-document query streams,
// result caches, migration metering — is service/catalog_service.h.

#ifndef PARBOX_CATALOG_CATALOG_H_
#define PARBOX_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/session.h"
#include "exec/host.h"
#include "fragment/fragment.h"
#include "fragment/placement.h"
#include "fragment/source_tree.h"
#include "sim/network.h"

namespace parbox::catalog {

struct CatalogOptions {
  sim::NetworkParams network{};
  /// Substrate for the shared host ("sim", "threads[:N]"; defaults to
  /// $PARBOX_BACKEND else sim). Bad specs fail Catalog::Create with
  /// the registered backends listed.
  std::string backend = exec::DefaultBackendSpec();
};

class Catalog;

/// One catalog entry. Addresses are stable for the catalog's lifetime
/// (entries are heap-held); a Document dies only at Close — drop
/// sessions and services over it first.
class Document {
 public:
  const std::string& name() const { return name_; }
  const frag::FragmentSet& set() const { return set_; }
  /// For the delta path (Session::Apply via OpenSession's writable
  /// sessions, or a serving layer's ApplyDelta).
  frag::FragmentSet* mutable_set() { return &set_; }
  const frag::Placement& placement() const { return placement_; }
  /// Current epoch-stamped snapshot (replaced on every Move).
  std::shared_ptr<const frag::SourceTree> source_tree() const {
    return feed_->snapshot();
  }
  const std::shared_ptr<frag::PlacementFeed>& feed() const { return feed_; }

  /// Live migration: re-home live fragment `f` to `site` (validated by
  /// Placement::Move — the root fragment is pinned), freeze + publish
  /// a fresh snapshot. Returns the site `f` moved FROM. Answers are
  /// unaffected; subscribers re-ship only f's retained state.
  Result<frag::SiteId> Move(frag::FragmentId f, frag::SiteId site);

  /// Open a session over this entry on the catalog's shared substrate:
  /// borrows the entry's deployment (writable — Apply works), joins
  /// the host as a new namespace, and subscribes to the placement
  /// feed. The catalog must outlive the session. Any number of
  /// concurrent sessions is fine for reads; route content mutations
  /// through ONE writer (each session keeps its own dirty sets).
  Result<std::unique_ptr<core::Session>> OpenSession();

 private:
  friend class Catalog;
  Document(std::string name, frag::FragmentSet set,
           frag::Placement placement, Catalog* catalog)
      : name_(std::move(name)),
        set_(std::move(set)),
        placement_(std::move(placement)),
        catalog_(catalog),
        feed_(std::make_shared<frag::PlacementFeed>()) {}

  std::string name_;
  frag::FragmentSet set_;
  frag::Placement placement_;
  Catalog* catalog_;
  std::shared_ptr<frag::PlacementFeed> feed_;
};

class Catalog {
 public:
  /// Validates the backend spec and stands up the shared host.
  static Result<std::unique_ptr<Catalog>> Create(
      const CatalogOptions& options = {});

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Register `name` -> the deployment. The placement must cover the
  /// set (Placement invariants checked at its Create). Fails on
  /// duplicate names. Returns the stable entry.
  Result<Document*> Open(std::string name, frag::FragmentSet set,
                         frag::Placement placement);

  /// Drop the entry. Sessions/services over it must already be gone;
  /// its site namespace goes idle (ids are not recycled).
  Status Close(std::string_view name);

  /// nullptr when absent.
  Document* Find(std::string_view name);
  const Document* Find(std::string_view name) const;

  std::vector<std::string> names() const;
  size_t size() const { return documents_.size(); }

  exec::BackendHost* host() { return host_.get(); }
  const CatalogOptions& options() const { return options_; }

 private:
  Catalog() = default;

  CatalogOptions options_;
  std::unique_ptr<exec::BackendHost> host_;
  std::map<std::string, std::unique_ptr<Document>, std::less<>> documents_;
};

}  // namespace parbox::catalog

#endif  // PARBOX_CATALOG_CATALOG_H_
