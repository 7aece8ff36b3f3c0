// CatalogService: QueryService over a catalog — many documents, one
// execution substrate.
//
// One QueryService serves one document. A CatalogService serves every
// document of a catalog::Catalog: per document it stands up a
// QueryService whose Session joins the catalog's BackendHost as a site
// namespace, so N documents share ONE worker pool (threads) or ONE
// virtual clock + event loop (sim) instead of N clusters — and the
// per-document figures stay exactly those of dedicated services
// (tests/catalog_test.cc holds answers, visits, and bytes
// bit-identical per document; bench_x10_multidoc_service gates the
// aggregate-throughput win of sharing the pool).
//
//   * Submit(doc, query, ...) — admission scoped to the named
//     document; batching, dedup, and the result cache work per
//     document (the cache is fingerprint-keyed inside each document's
//     service, i.e. effectively keyed by (document, fingerprint)).
//   * Run() — drains the SHARED substrate once: all documents' rounds
//     interleave on the same workers/clock.
//   * ApplyDelta(doc, delta) — the live-update path, scoped per
//     document; exact answer-granularity cache maintenance as in
//     QueryService.
//   * Move(doc, f, site) — live fragment migration while serving: the
//     catalog re-homes f (placement epoch bump + fresh snapshot), the
//     service ships the fragment's content old-site -> new-site as a
//     metered "migrate" message, and the document's session re-ships
//     only f's retained state. No answer changes; cached entries keep
//     serving.
//   * Rebalance(doc) — the load-aware policy: reads the document's
//     per-site visit/byte meters off its namespace and applies
//     frag::ProposeRebalance's moves.
//
// The catalog must outlive the service; documents being served must
// not be Close()d before DropDocument.

#ifndef PARBOX_SERVICE_CATALOG_SERVICE_H_
#define PARBOX_SERVICE_CATALOG_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "fragment/placement.h"
#include "obs/metrics.h"
#include "service/query_service.h"

namespace parbox::service {

class CatalogService {
 public:
  using CompletionFn = QueryService::CompletionFn;

  /// Serves every document currently open on `*catalog`; documents
  /// opened later join via ServeDocument. `options.backend` and
  /// `options.host` are ignored — the substrate is the catalog's.
  static Result<std::unique_ptr<CatalogService>> Create(
      catalog::Catalog* catalog, const ServiceOptions& options = {});

  CatalogService(const CatalogService&) = delete;
  CatalogService& operator=(const CatalogService&) = delete;
  /// Drains the shared substrate first: queued work (e.g. a Move's
  /// migration transfer) may reference the per-document backends
  /// destroyed here.
  ~CatalogService();

  /// Start serving a document opened after Create.
  Status ServeDocument(std::string_view name);
  /// Stop serving (before catalog::Catalog::Close). Outcomes already
  /// recorded stay in the dropped service until it is destroyed here.
  Status DropDocument(std::string_view name);

  /// Enqueue `q` against document `doc` at virtual/real `arrival
  /// seconds` on the shared clock. Unknown documents fail with the
  /// served names listed.
  Result<uint64_t> Submit(std::string_view doc, xpath::NormQuery q,
                          double arrival_seconds,
                          CompletionFn done = nullptr);

  /// Drain the shared substrate (every document's outstanding work and
  /// timers). Returns the substrate's clock.
  double Run();

  /// Typed content delta against `doc` (exact per-document cache
  /// maintenance, as QueryService::ApplyDelta).
  Result<frag::AppliedDelta> ApplyDelta(std::string_view doc,
                                        const frag::Delta& delta);

  /// Scheduled delta against `doc`: arrives on the shared clock and
  /// applies at its arrival, ahead of reads queued on the fair-share
  /// scheduler (see QueryService::SubmitDelta).
  Status SubmitDelta(std::string_view doc, frag::Delta delta,
                     double arrival_seconds,
                     QueryService::UpdateCompletionFn done = nullptr);

  /// Re-weight / re-cap document `doc` on the catalog-wide fair-share
  /// scheduler. Fails when fair share is off (enable_fair_share) or
  /// the config is invalid (zero/negative weight).
  Status ConfigureTenant(std::string_view doc, const TenantConfig& config);

  /// The catalog-wide fair-share scheduler; null when
  /// enable_fair_share was off at Create.
  FairScheduler* scheduler() { return scheduler_.get(); }

  /// Live migration of `f` to `site` within `doc` (see file comment).
  /// Returns the site `f` moved from.
  Result<frag::SiteId> Move(std::string_view doc, frag::FragmentId f,
                            frag::SiteId site);

  /// Load-aware rebalance of `doc`: propose moves from its namespace's
  /// per-site visit/byte meters (frag::ProposeRebalance) and apply
  /// each through Move. Returns how many fragments moved.
  Result<size_t> Rebalance(std::string_view doc,
                           const frag::RebalanceOptions& options = {});

  /// The document's dedicated serving state (cache, outcomes,
  /// metrics); nullptr when not served.
  QueryService* document_service(std::string_view doc);
  const QueryService* document_service(std::string_view doc) const;

  std::vector<std::string> served() const;

  /// Per-document metrics — exactly what the document's dedicated
  /// QueryService would report.
  Result<ServiceReport> BuildReport(std::string_view doc) const;
  /// Every document's QueryService::AddToReport into one report
  /// (counters summed, histograms pooled) plus one row per document.
  /// Makespan is the shared substrate's clock; throughput is aggregate
  /// completions over it.
  ServiceReport BuildAggregateReport() const;

  /// First internal failure across every served document.
  Status status() const;

  catalog::Catalog* catalog() { return catalog_; }

  /// The registry every served document reports into (one namespace
  /// per document: "d0.service.completed", "d1.net.query.bytes", ...,
  /// matching the host's traffic-tag prefixes). The caller's when
  /// ServiceOptions::metrics was set at Create, otherwise the
  /// catalog-owned one.
  obs::MetricsRegistry& metrics() {
    return options_.metrics != nullptr ? *options_.metrics : metrics_;
  }

 private:
  struct Served {
    catalog::Document* document = nullptr;
    std::unique_ptr<QueryService> service;
    /// Cumulative "migrate" payload bytes shipped into each site by
    /// our own Moves; Rebalance subtracts them from the load signal so
    /// a migration does not make its destination look hot and bounce
    /// the fragment right back.
    std::vector<uint64_t> migrate_bytes_into{};
  };

  explicit CatalogService(catalog::Catalog* catalog,
                          const ServiceOptions& options)
      : catalog_(catalog), options_(options) {}

  Result<Served*> Find(std::string_view doc);
  Result<const Served*> Find(std::string_view doc) const;

  catalog::Catalog* catalog_;
  ServiceOptions options_;
  /// Shared registry for every document's service (used when the
  /// caller passed none). Declared before served_ so it outlives the
  /// services reporting into it.
  obs::MetricsRegistry metrics_;
  /// The catalog-wide fair-share scheduler (enable_fair_share); every
  /// served document is a tenant on it. Declared before served_ so it
  /// outlives the services enqueuing into it.
  std::unique_ptr<FairScheduler> scheduler_;
  std::map<std::string, Served, std::less<>> served_;
};

}  // namespace parbox::service

#endif  // PARBOX_SERVICE_CATALOG_SERVICE_H_
