// QueryService: a long-lived serving layer over one execution backend.
//
// Where a core::Session executes one query at its caller's request, a
// QueryService owns one exec::ExecBackend for its lifetime — the
// deterministic simulated cluster by default, a real thread pool under
// {.backend = "threads"} — and serves a *stream* of queries — the
// paper's cost model (each site visited once, O(|q|·card(F)) traffic
// per query) amortized across concurrent traffic:
//
//   * Admission. Submit() schedules a query's arrival on the virtual
//     clock; a WorkloadDriver (service/workload.h) feeds open- or
//     closed-loop arrival processes.
//   * Per-site batching. Queries admitted within a batching window are
//     evaluated in one *round* (a core::Round, core/round.h, the same
//     fan-out the parbox evaluator runs): each site is visited once
//     per round — a single "query" message carries the QLists of every
//     distinct query in the batch, the site partially evaluates all of
//     them in ONE fused walk of each of its fragments (xpath/eval.h; a
//     one-query round is the one-lane case), and a single "triplet"
//     reply ships all partial answers back. Per-visit latency and
//     per-message overhead are shared by the whole batch, and
//     identical queries (by fingerprint) are evaluated once no matter
//     how many submissions asked. All formula work shares the
//     service's one hash-consing ExprFactory, so structurally
//     overlapping queries in a batch reuse each other's interned
//     subformulas and triplets.
//   * Result cache. Answers are cached under the query's canonical
//     fingerprint (xpath/fingerprint.h). A hit completes at the
//     coordinator with zero site visits and zero network traffic.
//     Each entry *retains the triplet equation system* its answer was
//     solved from (core::RetainedSystem). Typed deltas through
//     ApplyDelta re-evaluate only the touched fragment under each
//     cached query, splice the fresh triplet into the retained system,
//     and re-solve: an entry is evicted only when its *answer*
//     actually changed (Sec. 5's maintenance test, sharpened from
//     triplet identity to answer identity). Entries whose triplet
//     changed but whose answer stood are refreshed in place and keep
//     serving hits.
//   * Reporting. Per-query outcomes aggregate into a ServiceReport:
//     throughput, p50/p95/p99 latency (obs::Histogram), cache and
//     batching counters, and traffic totals. SnapshotMetrics exports
//     the same meters plus the per-tag traffic and backend counters
//     as one obs::MetricsSnapshot.
//
// The service is built on a core::Session (core/session.h): the
// session owns the cluster, the shared hash-consing ExprFactory, and
// the per-site partition plan; Submit runs Session::Prepare (validate
// + fingerprint once), batch rounds snapshot Session::plan(), and the
// admitted work is carried as core::PreparedQuery handles.
//
// Answers are computed by the same partial-evaluation kernel and
// equation solver as the "parbox" evaluator, so they are bit-identical
// to a standalone run (verified in tests/service_test.cc and
// bench_x6_service_throughput).

#ifndef PARBOX_SERVICE_QUERY_SERVICE_H_
#define PARBOX_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "boolexpr/solver.h"
#include "common/status.h"
#include "core/prepared.h"
#include "core/retained.h"
#include "core/session.h"
#include "exec/backend.h"
#include "fragment/delta.h"
#include "fragment/fragment.h"
#include "fragment/source_tree.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "service/scheduler.h"
#include "sim/network.h"
#include "xpath/eval.h"
#include "xpath/fingerprint.h"
#include "xpath/qlist.h"

namespace parbox::service {

struct ServiceOptions {
  sim::NetworkParams network{};
  /// Execution substrate (exec/backend.h registry spec): "sim" for the
  /// deterministic simulated cluster (default), "threads[:N]" for the
  /// real worker pool — the latter turns the service into a measurably
  /// parallel server (bench_x9_backend_throughput). Defaults to
  /// $PARBOX_BACKEND when set.
  std::string backend = exec::DefaultBackendSpec();
  /// When set, serve on this shared multi-document substrate instead
  /// of a dedicated backend (`backend` is then ignored): the service's
  /// sites become a namespace on the host — how a CatalogService runs
  /// N documents on one worker pool. The host must outlive the
  /// service.
  exec::BackendHost* host = nullptr;

  // ---- Fair-share admission (service/scheduler.h) ----

  /// When set, batch rounds dispatch through this shared fair-share
  /// scheduler instead of starting immediately at flush (a
  /// CatalogService passes its catalog-wide scheduler so documents
  /// interleave by weight). Null = FIFO admission, exactly the
  /// pre-scheduler service (ablation baseline). Must outlive the
  /// service. Answer-exact either way: the scheduler changes when a
  /// round starts, never what it computes.
  FairScheduler* scheduler = nullptr;
  /// CatalogService only: stand up a catalog-owned FairScheduler with
  /// `fair_share` below and pass it to every served document (each
  /// registered with a default TenantConfig; re-weight per document
  /// via CatalogService::ConfigureTenant). Ignored by a bare
  /// QueryService — pass `scheduler` directly there.
  bool enable_fair_share = false;
  FairSchedulerOptions fair_share;

  /// Start the round early once this many distinct queries pend (the
  /// batch window otherwise holds a batch open for 0.2 ms, two one-way
  /// LAN latencies). 1 makes every admission its own round.
  size_t max_batch_queries = 64;
  /// Cache entries kept; least-recently-used evicted beyond this. 0
  /// caches nothing, so every query does real site work.
  size_t cache_capacity = 4096;

  // ---- Observability (src/obs/) ----

  /// Per-query trace spans (admission wait, round, per-site visit,
  /// solve); must outlive the service. Defaults to the $PARBOX_TRACE
  /// environment tracer, i.e. null — tracing structurally absent —
  /// unless that variable is set.
  obs::Tracer* tracer = obs::DefaultTracer();
  /// Metrics registry to report into (a CatalogService shares one
  /// across documents); the service owns a private one when null. Must
  /// outlive the service when set.
  obs::MetricsRegistry* metrics = nullptr;
  /// Prefix for every metric this service interns ("d0." under a
  /// catalog, matching the backend host's traffic-tag prefixes).
  std::string metrics_prefix;
  /// Periodic stats lines and the slow-query log; borrowed, may be
  /// shared by several services on one shared backend host.
  obs::StatsSink* sink = nullptr;
  /// Display label for sink lines and slow-query records; "svc" when
  /// empty (a catalog passes the document name).
  std::string name;
};

/// What one submission experienced, start to finish.
struct QueryOutcome {
  uint64_t query_id = 0;
  xpath::QueryFingerprint fingerprint;
  bool answer = false;
  /// Served from the result cache (no site visited).
  bool cache_hit = false;
  /// Cache hit of the *subsumption* kind: answered by re-solving a
  /// longer cached query's retained equation system (implies
  /// cache_hit).
  bool subsumption_hit = false;
  /// Shared another submission's evaluation of the same fingerprint.
  bool shared_evaluation = false;
  /// The query's trace id (0 when untraced) — the key into the
  /// tracer's Breakdown and the slow-query log.
  uint64_t trace_id = 0;
  double submitted_seconds = 0.0;
  double completed_seconds = 0.0;
  double latency_seconds() const {
    return completed_seconds - submitted_seconds;
  }
};

/// Aggregated service-level metrics over every completed query. The
/// counters and histograms are additive: a catalog's aggregate is the
/// per-document fill (QueryService::AddToReport) run once per document.
struct ServiceReport {
  size_t completed = 0;
  double makespan_seconds = 0.0;
  double throughput_qps = 0.0;
  /// Per-query latency in seconds.
  obs::Histogram latency;
  /// Time submissions waited in the admission batch window before
  /// their round flushed (cache hits excluded; in-flight joiners
  /// observe zero).
  obs::Histogram admission_wait;

  uint64_t cache_hits = 0;
  uint64_t shared_evaluations = 0;  ///< submissions that rode a dup
  uint64_t unique_evaluations = 0;  ///< distinct (fingerprint) evals run
  uint64_t rounds = 0;              ///< batch rounds executed
  uint64_t cache_invalidations = 0;
  /// Entries whose triplet changed under an update but whose re-solved
  /// answer stood: refreshed in place instead of evicted.
  uint64_t cache_refreshes = 0;
  /// Bottom-up walks run: one per fragment per round and per cache
  /// maintenance chunk, however many queries each carries.
  uint64_t fused_walks = 0;
  /// (element × QList entry) evaluations served by cross-query
  /// prefix sharing inside fused walks instead of being re-derived.
  uint64_t cse_shared_exprs = 0;
  /// Queries answered by cache subsumption (zero site visits).
  uint64_t subsumption_hits = 0;
  /// Distinct queries per batch round (the fused batch width).
  obs::Histogram batch_width;

  uint64_t network_bytes = 0;
  uint64_t network_messages = 0;
  uint64_t total_visits = 0;
  uint64_t total_ops = 0;
  uint64_t interned_formula_nodes = 0;

  /// Rounds the fair-share scheduler queued instead of dispatching at
  /// flush (0 without a scheduler — FIFO never defers).
  uint64_t sched_deferred = 0;
  /// Flush-to-dispatch wait per round under the scheduler (every
  /// round observes one sample; 0 for immediate dispatch).
  obs::Histogram sched_dispatch_delay;

  /// Per-document breakdown, filled by
  /// CatalogService::BuildAggregateReport (empty on a
  /// single-document report).
  struct DocumentRow {
    std::string name;
    size_t completed = 0;
    double qps = 0.0;
    double p50_seconds = 0.0;
    double p99_seconds = 0.0;
    uint64_t sched_deferred = 0;
  };
  std::vector<DocumentRow> per_document;

  std::string ToString() const;
};

class QueryService {
 public:
  using CompletionFn = std::function<void(const QueryOutcome&)>;

  /// The service evaluates against `*set` distributed per `*st`; both
  /// must outlive it. The simulated cluster spans st->num_sites()
  /// machines and the service runs at the root fragment's site. The
  /// mutable overload additionally accepts ApplyDelta (live updates
  /// interleaved with reads).
  QueryService(const frag::FragmentSet* set, const frag::SourceTree* st,
               const ServiceOptions& options = {});
  QueryService(frag::FragmentSet* set, const frag::SourceTree* st,
               const ServiceOptions& options = {});

  /// Validating factories: a bad ServiceOptions::backend spec (unknown
  /// name, threads:0) fails HERE — construction time, with the
  /// registered backends listed — instead of on the first Submit.
  static Result<std::unique_ptr<QueryService>> Create(
      const frag::FragmentSet* set, const frag::SourceTree* st,
      const ServiceOptions& options = {});
  static Result<std::unique_ptr<QueryService>> Create(
      frag::FragmentSet* set, const frag::SourceTree* st,
      const ServiceOptions& options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueue `q` to arrive at virtual time `arrival_seconds` (clamped
  /// to now()). `done`, if given, runs at completion with the query's
  /// outcome — the only record of it, since the service keeps none;
  /// closed-loop drivers also use it to submit the next query. Returns
  /// the query id.
  Result<uint64_t> Submit(xpath::NormQuery q, double arrival_seconds,
                          CompletionFn done = nullptr);

  /// Drain the event loop (serve everything submitted, including
  /// queries submitted by completion callbacks). Returns virtual now().
  double Run();

  double now() const { return session_.backend().now(); }
  /// The execution substrate the service runs on.
  exec::ExecBackend& backend() { return session_.backend(); }
  const exec::ExecBackend& backend() const { return session_.backend(); }
  /// First internal failure, if any (malformed equation system).
  const Status& status() const { return first_error_; }

  /// This service's report: AddToReport into an empty report, plus
  /// the makespan and throughput.
  ServiceReport BuildReport() const;
  /// Add this service's counters (+=) and histograms (Merge) into
  /// `*report`; makespan, throughput and per-document rows are left to
  /// the caller. Quiescent reads only (after Run()).
  void AddToReport(ServiceReport* report) const;

  /// The registry this service's meters live in (shared or owned).
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Snapshot the registry, first injecting the substrate's wire
  /// meters ("<prefix>exec.net.<tag>.bytes", visits, busy seconds) and
  /// point-in-time gauges (cache size) — one export covering the
  /// service and exec layers. Quiescent reads only (after Run()).
  obs::MetricsSnapshot SnapshotMetrics() const;
  /// Force the final interval line out of the configured sink (no-op
  /// without one); parboxq --serve calls this after Run().
  void FlushStats();

  // ---- Updates and result-cache maintenance ----

  /// Apply a typed content delta to the live document (requires the
  /// mutable constructor), then invalidate *exactly*: every cached
  /// entry re-solves with the touched fragment's fresh triplet and is
  /// evicted only if its answer changed. Safe to call between rounds
  /// and from completion callbacks. Consistency contract: the *cache*
  /// never serves a stale answer (rounds racing the update are barred
  /// from populating it by an epoch guard, and submissions arriving
  /// after the update never join a pre-update round) — but a read
  /// already in flight when the delta lands races it, and its one
  /// delivered answer may reflect the document before, after, or (for
  /// multi-delta races) a fragment-wise mix of update states, exactly
  /// like a reader overlapping a writer in any non-transactional
  /// store.
  Result<frag::AppliedDelta> ApplyDelta(const frag::Delta& delta);

  /// Completion callback for SubmitDelta.
  using UpdateCompletionFn =
      std::function<void(const Result<frag::AppliedDelta>&)>;
  /// Schedule `delta` to arrive at virtual time `arrival_seconds`
  /// (clamped to now()) and ApplyDelta it there, in coordinator
  /// context. A delta never enters the fair-share scheduler, so it
  /// applies ahead of any backlog of queued read rounds: write
  /// visibility never waits behind reads. Application failures land
  /// in status() (and `done`, when given).
  void SubmitDelta(frag::Delta delta, double arrival_seconds,
                   UpdateCompletionFn done = nullptr);

  /// Re-weight / re-cap this service's tenant on the attached
  /// fair-share scheduler. Fails without one, or on invalid config
  /// (zero/negative weight).
  Status ConfigureTenant(const TenantConfig& config);

  size_t cache_size() const { return cache_.size(); }

  /// Subscribe the embedded session to a catalog document's placement
  /// feed (CatalogService wiring). A Move changes no answer, so cached
  /// entries keep serving; the next batch flush re-partitions the plan
  /// via Session::SyncPlacement.
  void FollowPlacement(std::shared_ptr<const frag::PlacementFeed> feed) {
    session_.FollowPlacement(std::move(feed));
  }
  /// Catch up on the followed feed now (flushes also do this).
  void SyncPlacement() { session_.SyncPlacement(); }

 private:
  /// One distinct query being (or about to be) evaluated in a round.
  struct Unique {
    core::PreparedQuery prepared;
    std::vector<uint64_t> waiters;  ///< submission ids to complete
    /// Triplets by fragment id, filled in by the sites; solved at
    /// Compose and kept by the cache entry.
    core::RetainedSystem system;
  };

  /// One batch round: its uniques ride one core::Round (core/round.h).
  struct Round {
    std::vector<Unique> uniques;
    /// Trace of the round span (adopted from the first waiter's trace;
    /// inactive when untraced), its parent, and the flush time.
    obs::TraceContext trace;
    uint64_t parent_span = 0;
    double start = 0.0;
    /// Session::plan() snapshot taken at flush (site -> fragments plus
    /// the solver's children table), so in-flight rounds keep their
    /// partition if placement moves fragments mid-run.
    std::shared_ptr<const core::SitePlan> plan;
    /// update_epoch_ at flush; a mismatch at compose time means an
    /// update raced the round and its results must not enter the cache.
    uint64_t epoch = 0;
    /// Fused-evaluation layout over this round's uniques (lane k =
    /// uniques[k]; lanes point into the uniques' PreparedQuery-owned
    /// QLists).
    xpath::EvalBatch fused;
  };

  struct Submission {
    core::PreparedQuery prepared;  ///< until admitted; then moved or dropped
    xpath::QueryFingerprint fp;    ///< outlives `prepared` for Complete()
    /// Minted at Submit; the root "query" span. Inactive when the
    /// service is untraced.
    obs::TraceContext trace;
    double submitted_seconds = 0.0;
    CompletionFn done;
  };

  struct CacheEntry {
    core::PreparedQuery query;  ///< retained for invalidation checks
    uint64_t last_used = 0;
    /// The equation system and the answer solved from it. Retained so
    /// an update can splice in one fresh triplet and re-solve instead
    /// of discarding the entry.
    core::RetainedSystem system;
  };

  sim::SiteId coordinator() const { return session_.coordinator(); }

  void Admit(uint64_t id);
  void ArmBatchTimer();
  void FlushBatch();
  /// Hand a flushed round to the fair-share scheduler (or straight to
  /// BeginRound without one). Deferred rounds dispatch when
  /// OnUnitFinished frees capacity, bounced through ScheduleAt into
  /// this service's coordinator context.
  void DispatchRound(std::shared_ptr<Round> round);
  void BeginRound(std::shared_ptr<Round> round);
  void Compose(std::shared_ptr<Round> round);
  void Complete(uint64_t id, bool answer, bool cache_hit, bool shared,
                bool subsumed = false);

  /// Try to answer submission `id` from a cached query whose QList
  /// extends this query's (prefix_index_ probe + exact prefix check):
  /// truncate the donor's retained system to this query's width,
  /// re-solve at its root — zero site visits — and cache the result
  /// as a first-class entry. Returns false when no cached donor
  /// qualifies.
  bool TryServeBySubsumption(uint64_t id);

  using CacheMap = std::unordered_map<xpath::QueryFingerprint, CacheEntry,
                                      xpath::QueryFingerprintHash>;

  /// Fragment `f`'s content changed (ApplyDelta): recompute f's
  /// triplet under every cached query — ONE fused walk per chunk of
  /// cached queries, so eval work scales with touched fragments, not
  /// cache size — and keep each entry only if RefreshEntry says so.
  void OnContentUpdate(frag::FragmentId f);
  /// Sec. 5's maintenance test, per entry: splice fragment `fresh`'s
  /// triplet into the retained system and, if it changed, re-solve
  /// over `children` (the deployment's children table). Returns false
  /// ("evict") exactly when the answer changed (or the entry cannot be
  /// re-solved).
  bool RefreshEntry(CacheEntry* entry, bexpr::FragmentEquations fresh,
                    const std::vector<std::vector<int32_t>>& children);
  void InsertCacheEntry(Unique&& unique);
  void EvictIfOverCapacity();
  /// Register / remove a cached query's QList-prefix digests in
  /// prefix_index_ (subsumption lookup).
  void IndexEntryPrefixes(const xpath::QueryFingerprint& fp,
                          const CacheEntry& entry);
  void DeindexEntryPrefixes(const xpath::QueryFingerprint& fp,
                            const CacheEntry& entry);

  /// One retained system (a table sized to the fragment table) is
  /// needed per unique per round; at 10k+ fragments that is ~1MB of
  /// churn per round, so finished rounds return their tables here
  /// instead of freeing them.
  core::RetainedSystem AcquireSystem();
  void ReleaseSystem(core::RetainedSystem&& system);

  /// Resolve the registry (shared vs owned) and intern every metric id
  /// under the configured prefix. Constructor-only.
  void InitObs();
  /// Register this service as a tenant on the configured fair-share
  /// scheduler (no-op without one) with a default TenantConfig.
  /// Constructor-only.
  void InitScheduler();
  /// Emit an instant event under the ambient trace context (no-op when
  /// untraced or the context is inactive).
  void TraceInstant(const char* name);
  /// One interval summary line into the sink, from coordinator-thread
  /// meters only (mid-run safe: reads this thread's shard).
  void EmitStatsLine(double now_seconds);
  std::string_view label() const {
    return options_.name.empty() ? std::string_view("svc")
                                 : std::string_view(options_.name);
  }

  const frag::FragmentSet* set_;
  ServiceOptions options_;

  /// Metrics/tracing state. Declared BEFORE session_ so the registry
  /// outlives the backend's worker threads at destruction (workers
  /// join in the backend's dtor, inside session_'s).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::StatsSink* sink_ = nullptr;
  // Interned ids (names carry options_.metrics_prefix).
  using MetricId = obs::MetricsRegistry::MetricId;
  MetricId m_submitted_ = 0, m_completed_ = 0, m_cache_hits_ = 0;
  MetricId m_shared_evals_ = 0, m_unique_evals_ = 0, m_rounds_ = 0;
  MetricId m_cache_invalidations_ = 0, m_cache_refreshes_ = 0, m_ops_ = 0;
  MetricId m_fused_walks_ = 0, m_cse_shared_ = 0, m_subsumption_hits_ = 0;
  MetricId m_query_bytes_ = 0, m_query_msgs_ = 0;
  MetricId m_triplet_bytes_ = 0, m_triplet_msgs_ = 0;
  MetricId m_latency_ = 0, m_admission_wait_ = 0, m_batch_width_ = 0;
  MetricId m_sched_deferred_ = 0, m_sched_dispatch_delay_ = 0;
  /// Latency samples since the last sink line (coordinator thread
  /// only), and the cursor of counter values the last line reported.
  obs::Histogram interval_latency_;
  struct SinkCursor {
    double t = 0.0;
    uint64_t completed = 0;
    uint64_t hits = 0;
    uint64_t query_bytes = 0;
    uint64_t triplet_bytes = 0;
  };
  SinkCursor sink_cursor_;

  /// Owns the cluster, the service-lifetime hash-consing ExprFactory
  /// (formulas and triplets interned once, reused across every batch
  /// and query), and the per-site partition plan.
  core::Session session_;

  /// Fair-share admission (null = FIFO). Borrowed from options; the
  /// tenant id is this service's registration on it.
  FairScheduler* scheduler_ = nullptr;
  FairScheduler::TenantId tenant_id_ = -1;

  uint64_t next_query_id_ = 0;
  std::unordered_map<uint64_t, Submission> submissions_;

  std::vector<Unique> pending_;  ///< next round, being assembled
  std::unordered_map<xpath::QueryFingerprint, size_t,
                     xpath::QueryFingerprintHash>
      pending_index_;
  bool batch_timer_armed_ = false;
  uint64_t batch_epoch_ = 0;  ///< bumped per flush; stales old timers

  /// fp -> round holding it, for joining in-flight evaluations.
  std::unordered_map<xpath::QueryFingerprint, std::shared_ptr<Round>,
                     xpath::QueryFingerprintHash>
      in_flight_;

  CacheMap cache_;
  uint64_t cache_tick_ = 0;
  /// The plan snapshot of the latest flush. Cache maintenance and
  /// subsumption re-solve over its children table: content deltas and
  /// Moves never change it, and a cache entry exists only once some
  /// round has flushed.
  std::shared_ptr<const core::SitePlan> plan_;

  /// Subsumption lookup: digest of a cached query's QList prefix (any
  /// length, xpath::PrefixDigest) -> cache keys of the entries
  /// extending that prefix. Maintained by insert, evict and update.
  std::unordered_map<xpath::QueryFingerprint,
                     std::vector<xpath::QueryFingerprint>,
                     xpath::QueryFingerprintHash>
      prefix_index_;

  /// Recycled retained systems (see AcquireSystem).
  std::vector<core::RetainedSystem> system_pool_;

  uint64_t update_epoch_ = 0;  ///< bumped per document update
  Status first_error_ = Status::OK();
};

}  // namespace parbox::service

#endif  // PARBOX_SERVICE_QUERY_SERVICE_H_
