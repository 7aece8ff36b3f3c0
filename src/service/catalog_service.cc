#include "service/catalog_service.h"

#include <algorithm>
#include <utility>

namespace parbox::service {

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined.empty() ? "<none>" : joined;
}

}  // namespace

Result<std::unique_ptr<CatalogService>> CatalogService::Create(
    catalog::Catalog* catalog, const ServiceOptions& options) {
  auto service = std::unique_ptr<CatalogService>(
      new CatalogService(catalog, options));
  if (options.enable_fair_share) {
    service->scheduler_ =
        std::make_unique<FairScheduler>(options.fair_share);
  }
  for (const std::string& name : catalog->names()) {
    PARBOX_RETURN_IF_ERROR(service->ServeDocument(name));
  }
  return service;
}

Status CatalogService::ServeDocument(std::string_view name) {
  catalog::Document* doc = catalog_->Find(name);
  if (doc == nullptr) {
    return Status::NotFound("document \"" + std::string(name) +
                            "\" is not open on the catalog");
  }
  if (served_.count(name) > 0) {
    return Status::InvalidArgument("document \"" + std::string(name) +
                                   "\" is already being served");
  }
  ServiceOptions options = options_;
  options.host = catalog_->host();
  options.network = catalog_->options().network;
  // All documents report into one registry, namespaced to match the
  // host's traffic-tag prefix for the namespace this service is about
  // to claim ("d<N>." — host.cc assigns them in OpenNamespace order).
  options.metrics = &metrics();
  options.metrics_prefix =
      "d" + std::to_string(catalog_->host()->num_namespaces()) + ".";
  options.name = std::string(name);
  // Fair-share admission: every document is a tenant on the ONE
  // catalog-wide DWRR scheduler — the cross-document round planner
  // that makes a shared Run() interleave documents proportionally to
  // weight instead of draining them in submission order.
  options.scheduler = scheduler_.get();
  PARBOX_ASSIGN_OR_RETURN(
      std::unique_ptr<QueryService> qs,
      QueryService::Create(doc->mutable_set(), doc->source_tree().get(),
                           options));
  qs->FollowPlacement(doc->feed());
  served_.emplace(std::string(name),
                  Served{doc, std::move(qs)});
  return Status::OK();
}

CatalogService::~CatalogService() {
  // Queued work on the shared substrate (a Move's migration transfer,
  // straggling submissions) may hold pointers into the per-document
  // services destroyed below; finish it first.
  catalog_->host()->backend().Drain();
}

Status CatalogService::DropDocument(std::string_view name) {
  auto it = served_.find(name);
  if (it == served_.end()) {
    return Status::NotFound("document \"" + std::string(name) +
                            "\" is not being served");
  }
  // The dropped service's namespace backend dies with it; drain so no
  // queued task (migration transfers, in-flight rounds) outlives it.
  catalog_->host()->backend().Drain();
  served_.erase(it);
  return Status::OK();
}

Result<CatalogService::Served*> CatalogService::Find(std::string_view doc) {
  auto it = served_.find(doc);
  if (it == served_.end()) {
    return Status::NotFound("document \"" + std::string(doc) +
                            "\" is not served; serving: " +
                            JoinNames(served()));
  }
  return &it->second;
}

Result<const CatalogService::Served*> CatalogService::Find(
    std::string_view doc) const {
  auto it = served_.find(doc);
  if (it == served_.end()) {
    return Status::NotFound("document \"" + std::string(doc) +
                            "\" is not served; serving: " +
                            JoinNames(served()));
  }
  return &it->second;
}

Result<uint64_t> CatalogService::Submit(std::string_view doc,
                                        xpath::NormQuery q,
                                        double arrival_seconds,
                                        CompletionFn done) {
  PARBOX_ASSIGN_OR_RETURN(Served * s, Find(doc));
  return s->service->Submit(std::move(q), arrival_seconds,
                            std::move(done));
}

double CatalogService::Run() {
  return catalog_->host()->backend().Drain();
}

Result<frag::AppliedDelta> CatalogService::ApplyDelta(
    std::string_view doc, const frag::Delta& delta) {
  PARBOX_ASSIGN_OR_RETURN(Served * s, Find(doc));
  return s->service->ApplyDelta(delta);
}

Status CatalogService::SubmitDelta(std::string_view doc,
                                   frag::Delta delta,
                                   double arrival_seconds,
                                   QueryService::UpdateCompletionFn done) {
  PARBOX_ASSIGN_OR_RETURN(Served * s, Find(doc));
  s->service->SubmitDelta(std::move(delta), arrival_seconds,
                          std::move(done));
  return Status::OK();
}

Status CatalogService::ConfigureTenant(std::string_view doc,
                                       const TenantConfig& config) {
  if (scheduler_ == nullptr) {
    return Status::FailedPrecondition(
        "fair share is off for this catalog service "
        "(ServiceOptions::enable_fair_share)");
  }
  PARBOX_ASSIGN_OR_RETURN(Served * s, Find(doc));
  return s->service->ConfigureTenant(config);
}

Result<frag::SiteId> CatalogService::Move(std::string_view doc,
                                          frag::FragmentId f,
                                          frag::SiteId site) {
  PARBOX_ASSIGN_OR_RETURN(Served * s, Find(doc));
  PARBOX_ASSIGN_OR_RETURN(frag::SiteId from, s->document->Move(f, site));
  if (from != site) {
    // The migration transfer: the fragment's content ships old site ->
    // new site once, metered like any other message on the document's
    // namespace. Retained state (cached answers, triplets) stays
    // valid; the session marks only f dirty and re-ships its state.
    // The zero-op Compute hop puts the Send in the old site's
    // execution context, as the backend contract requires.
    exec::ExecBackend* backend = &s->service->backend();
    const uint64_t bytes = s->document->set().FragmentSerializedBytes(f);
    backend->Compute(from, 0, [backend, from, site, bytes] {
      backend->Send(from, site, exec::Parcel::OfSize(bytes), "migrate",
                    [](exec::Parcel) {});
    });
    if (s->migrate_bytes_into.size() <= static_cast<size_t>(site)) {
      s->migrate_bytes_into.resize(static_cast<size_t>(site) + 1, 0);
    }
    s->migrate_bytes_into[static_cast<size_t>(site)] += bytes;
    s->service->SyncPlacement();
    if (options_.tracer != nullptr && options_.tracer->enabled()) {
      // A migration is its own causal root (nothing submitted it).
      obs::TraceEvent e;
      e.name = "placement.move";
      e.trace_id = options_.tracer->MintTraceId();
      e.site = from;
      e.ts_seconds = backend->now();
      e.args.emplace_back("doc", std::string(doc));
      e.args.emplace_back("fragment", std::to_string(f));
      e.args.emplace_back("to", std::to_string(site));
      e.args.emplace_back("bytes", std::to_string(bytes));
      options_.tracer->Record(std::move(e));
    }
    if (options_.sink != nullptr) {
      options_.sink->Line("[" + std::string(doc) + "] placement.move f=" +
                          std::to_string(f) + " " + std::to_string(from) +
                          "->" + std::to_string(site) +
                          " bytes=" + std::to_string(bytes));
    }
  }
  return from;
}

Result<size_t> CatalogService::Rebalance(
    std::string_view doc, const frag::RebalanceOptions& options) {
  PARBOX_ASSIGN_OR_RETURN(Served * s, Find(doc));
  // The namespace-scoped meters: exactly this document's share of the
  // shared substrate's visits and received bytes.
  exec::ExecBackend& backend = s->service->backend();
  const std::vector<uint64_t> visits = backend.visits();
  const sim::TrafficStats& traffic = backend.traffic();
  std::vector<uint64_t> bytes_in(visits.size(), 0);
  for (size_t site = 0; site < bytes_in.size(); ++site) {
    bytes_in[site] = traffic.bytes_into(static_cast<int32_t>(site));
    // Discount our own migration payloads: they are one-time transfers
    // we caused, not serving load on the destination.
    if (site < s->migrate_bytes_into.size()) {
      const uint64_t migrated = s->migrate_bytes_into[site];
      bytes_in[site] -= std::min(bytes_in[site], migrated);
    }
  }
  const std::vector<frag::ProposedMove> moves = frag::ProposeRebalance(
      s->document->set(), s->document->placement(), visits, bytes_in,
      options);
  size_t applied = 0;
  for (const frag::ProposedMove& move : moves) {
    PARBOX_ASSIGN_OR_RETURN(frag::SiteId from,
                            Move(doc, move.fragment, move.to));
    (void)from;
    ++applied;
  }
  return applied;
}

QueryService* CatalogService::document_service(std::string_view doc) {
  auto it = served_.find(doc);
  return it == served_.end() ? nullptr : it->second.service.get();
}

const QueryService* CatalogService::document_service(
    std::string_view doc) const {
  auto it = served_.find(doc);
  return it == served_.end() ? nullptr : it->second.service.get();
}

std::vector<std::string> CatalogService::served() const {
  std::vector<std::string> out;
  out.reserve(served_.size());
  for (const auto& [name, s] : served_) out.push_back(name);
  return out;
}

Result<ServiceReport> CatalogService::BuildReport(
    std::string_view doc) const {
  PARBOX_ASSIGN_OR_RETURN(const Served* s, Find(doc));
  return s->service->BuildReport();
}

ServiceReport CatalogService::BuildAggregateReport() const {
  ServiceReport total;
  total.makespan_seconds = catalog_->host()->backend().now();
  for (const auto& [name, s] : served_) {
    s.service->AddToReport(&total);
    // Per-document row: the document's share of the aggregate (qps
    // over the SHARED makespan, so rows sum to the aggregate rate;
    // percentiles from the document's own latency histogram).
    const ServiceReport r = s.service->BuildReport();
    ServiceReport::DocumentRow row;
    row.name = name;
    row.completed = r.completed;
    row.qps = total.makespan_seconds > 0.0
                  ? static_cast<double>(r.completed) /
                        total.makespan_seconds
                  : 0.0;
    if (r.latency.count() > 0) {
      row.p50_seconds = r.latency.Percentile(50);
      row.p99_seconds = r.latency.Percentile(99);
    }
    row.sched_deferred = r.sched_deferred;
    total.per_document.push_back(std::move(row));
  }
  total.throughput_qps =
      total.makespan_seconds > 0.0
          ? static_cast<double>(total.completed) / total.makespan_seconds
          : 0.0;
  return total;
}

Status CatalogService::status() const {
  for (const auto& [name, s] : served_) {
    if (!s.service->status().ok()) return s.service->status();
  }
  return Status::OK();
}

}  // namespace parbox::service
