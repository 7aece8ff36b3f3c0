#include "service/query_service.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/bytes.h"
#include "core/partial_eval.h"
#include "core/round.h"
#include "xpath/eval.h"

namespace parbox::service {

namespace {

/// Cap on lanes per fused cache-maintenance walk: bounds the kernel's
/// O(tree depth × total lane width) frame memory while keeping the
/// "one walk per touched fragment" property for any realistic cache.
constexpr size_t kMaxFusedLanes = 256;

/// How long admission holds a batch open for stragglers before the
/// round starts: two one-way LAN latencies.
constexpr double kBatchWindowSeconds = 2e-4;

}  // namespace

QueryService::QueryService(const frag::FragmentSet* set,
                           const frag::SourceTree* st,
                           const ServiceOptions& options)
    : set_(set),
      options_(options),
      session_(set, st,
               core::SessionOptions{options.network, options.backend,
                                    options.host, options.tracer}) {
  // A bad backend spec is visible through status() from birth (the
  // Create factories refuse outright; Submit re-checks for the
  // non-validating path).
  first_error_ = session_.backend_status();
  InitObs();
  InitScheduler();
}

QueryService::QueryService(frag::FragmentSet* set,
                           const frag::SourceTree* st,
                           const ServiceOptions& options)
    : set_(set),
      options_(options),
      session_(set, st,
               core::SessionOptions{options.network, options.backend,
                                    options.host, options.tracer}) {
  first_error_ = session_.backend_status();
  InitObs();
  InitScheduler();
}

void QueryService::InitScheduler() {
  scheduler_ = options_.scheduler;
  if (scheduler_ == nullptr) return;
  // A default config always validates; ConfigureTenant re-weights.
  Result<FairScheduler::TenantId> tid =
      scheduler_->AddTenant(std::string(label()), TenantConfig{});
  if (tid.ok()) tenant_id_ = *tid;
}

void QueryService::InitObs() {
  tracer_ = options_.tracer;
  sink_ = options_.sink;
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  obs::MetricsRegistry& m = *metrics_;
  const std::string& p = options_.metrics_prefix;
  using Kind = obs::MetricsRegistry::Kind;
  auto counter = [&](const char* name) {
    return m.Intern(p + name, Kind::kCounter);
  };
  m_submitted_ = counter("service.submitted");
  m_completed_ = counter("service.completed");
  m_cache_hits_ = counter("service.cache_hits");
  m_shared_evals_ = counter("service.shared_evals");
  m_unique_evals_ = counter("service.unique_evals");
  m_rounds_ = counter("service.rounds");
  m_cache_invalidations_ = counter("service.cache_invalidations");
  m_cache_refreshes_ = counter("service.cache_refreshes");
  m_ops_ = counter("service.ops");
  m_fused_walks_ = counter("service.fused_walks");
  m_cse_shared_ = counter("service.cse_shared_exprs");
  m_subsumption_hits_ = counter("cache.subsumption_hits");
  // Service-side wire meters: what the service *asked* the substrate
  // to ship, by tag, coordinator-local hops excluded — definitionally
  // equal to the backend's TrafficStats for the same tags (the
  // equivalence is tested in tests/obs_test.cc).
  m_query_bytes_ = counter("net.query.bytes");
  m_query_msgs_ = counter("net.query.messages");
  m_triplet_bytes_ = counter("net.triplet.bytes");
  m_triplet_msgs_ = counter("net.triplet.messages");
  m_sched_deferred_ = counter("sched.deferred");
  m_latency_ = m.Intern(p + "service.latency_seconds", Kind::kHistogram);
  m_admission_wait_ =
      m.Intern(p + "service.admission_wait_seconds", Kind::kHistogram);
  m_batch_width_ = m.Intern(p + "service.batch_width", Kind::kHistogram);
  m_sched_dispatch_delay_ =
      m.Intern(p + "sched.dispatch_delay_seconds", Kind::kHistogram);
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    const frag::FragmentSet* set, const frag::SourceTree* st,
    const ServiceOptions& options) {
  auto service =
      std::unique_ptr<QueryService>(new QueryService(set, st, options));
  PARBOX_RETURN_IF_ERROR(service->first_error_);  // the backend spec
  return service;
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    frag::FragmentSet* set, const frag::SourceTree* st,
    const ServiceOptions& options) {
  auto service =
      std::unique_ptr<QueryService>(new QueryService(set, st, options));
  PARBOX_RETURN_IF_ERROR(service->first_error_);
  return service;
}

Result<uint64_t> QueryService::Submit(xpath::NormQuery q,
                                      double arrival_seconds,
                                      CompletionFn done) {
  // An invalid ServiceOptions::backend spec surfaces here, with the
  // registered backends listed.
  PARBOX_RETURN_IF_ERROR(session_.backend_status());
  // Prepare = validate + fingerprint + wire-size once, at admission.
  PARBOX_ASSIGN_OR_RETURN(core::PreparedQuery prepared,
                          session_.Prepare(std::move(q)));
  const uint64_t id = next_query_id_++;
  const double arrival = std::max(arrival_seconds, now());
  Submission sub;
  sub.fp = prepared.fingerprint();
  sub.prepared = std::move(prepared);
  sub.submitted_seconds = arrival;
  sub.done = std::move(done);
  if (tracer_ != nullptr && tracer_->enabled()) {
    // The query's trace is born at submission; everything from
    // admission to completion parents beneath this root span (emitted
    // by Complete, spanning submitted -> completed).
    sub.trace = {tracer_->MintTraceId(), tracer_->MintSpanId()};
  }
  metrics_->Increment(m_submitted_);
  submissions_.emplace(id, std::move(sub));
  session_.backend().ScheduleAt(arrival, [this, id] { Admit(id); });
  return id;
}

void QueryService::Admit(uint64_t id) {
  Submission& sub = submissions_.at(id);
  // Admission runs under the submission's trace: the cache-hit lookup
  // compute and round joins parent beneath the query's root span.
  obs::ScopedTraceContext trace_scope(sub.trace);
  const uint64_t lookup_ops = 16 + sub.prepared.query().size();

  if (auto it = cache_.find(sub.fp); it != cache_.end()) {
    it->second.last_used = ++cache_tick_;
    metrics_->Increment(m_cache_hits_);
    TraceInstant("cache.hit");
    const bool answer = it->second.system.answer();
    // A hit costs one coordinator-local lookup: no site is visited and
    // nothing crosses the network.
    if (tracer_ != nullptr) tracer_->SetNextComputeName("cache.lookup");
    session_.backend().Compute(coordinator(), lookup_ops,
                               [this, id, answer] {
                                 Complete(id, answer, /*cache_hit=*/true,
                                          /*shared=*/false);
                               });
    sub.prepared = core::PreparedQuery();
    return;
  }

  // Same fingerprint already being evaluated? Ride that round — unless
  // an update landed after the round flushed: this submission arrived
  // after the update, so serving it the round's pre-update evaluation
  // would be a stale answer. Let it start a fresh round instead.
  if (auto it = in_flight_.find(sub.fp);
      it != in_flight_.end() && it->second->epoch == update_epoch_) {
    for (Unique& u : it->second->uniques) {
      if (u.prepared.fingerprint() == sub.fp) {
        u.waiters.push_back(id);
        metrics_->Increment(m_shared_evals_);
        // Joining an already-flushed round: no admission wait ahead.
        metrics_->Observe(m_admission_wait_, 0.0);
        TraceInstant("round.join");
        sub.prepared = core::PreparedQuery();
        return;
      }
    }
  }
  // Same fingerprint already pending in the next batch? Join it.
  if (auto it = pending_index_.find(sub.fp); it != pending_index_.end()) {
    pending_[it->second].waiters.push_back(id);
    metrics_->Increment(m_shared_evals_);
    TraceInstant("round.join");
    sub.prepared = core::PreparedQuery();
    return;
  }

  // Last resort before a round: a cached *longer* query whose QList
  // extends this one can answer it at the coordinator alone.
  if (TryServeBySubsumption(id)) return;

  Unique u;
  u.prepared = std::move(sub.prepared);
  u.waiters.push_back(id);
  pending_index_.emplace(sub.fp, pending_.size());
  pending_.push_back(std::move(u));

  if (pending_.size() >= options_.max_batch_queries) {
    FlushBatch();
  } else {
    ArmBatchTimer();
  }
}

void QueryService::ArmBatchTimer() {
  if (batch_timer_armed_) return;
  batch_timer_armed_ = true;
  // The epoch invalidates this timer if a size-triggered flush beats
  // it: otherwise the stale deadline would truncate the next batch's
  // window.
  const uint64_t epoch = batch_epoch_;
  exec::ExecBackend& backend = session_.backend();
  backend.ScheduleAt(backend.now() + kBatchWindowSeconds,
                     [this, epoch] {
    if (epoch != batch_epoch_) return;  // a flush superseded this timer
    batch_timer_armed_ = false;
    if (!pending_.empty()) FlushBatch();
  });
}

void QueryService::FlushBatch() {
  ++batch_epoch_;
  batch_timer_armed_ = false;
  auto round = std::make_shared<Round>();
  round->uniques = std::move(pending_);
  pending_.clear();
  pending_index_.clear();
  round->epoch = update_epoch_;
  round->start = now();

  // Every waiter in this round has now finished waiting on admission:
  // record how long the batch window held each one (zero when the
  // flush was immediate), and emit its admission.wait span.
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  for (const Unique& u : round->uniques) {
    for (uint64_t wid : u.waiters) {
      auto sit = submissions_.find(wid);
      if (sit == submissions_.end()) continue;
      const Submission& sub = sit->second;
      const double wait = round->start - sub.submitted_seconds;
      metrics_->Observe(m_admission_wait_, wait);
      if (traced && sub.trace.active()) {
        obs::TraceEvent e;
        e.name = "admission.wait";
        e.trace_id = sub.trace.trace_id;
        e.span_id = tracer_->MintSpanId();
        e.parent_id = sub.trace.span_id;
        e.site = coordinator();
        e.ts_seconds = sub.submitted_seconds;
        e.dur_seconds = wait;
        tracer_->Record(std::move(e));
      }
    }
  }
  // The round span adopts the first waiter's trace (one round can
  // carry many traces; the tree follows the one that opened it).
  if (traced && !round->uniques.empty() &&
      !round->uniques[0].waiters.empty()) {
    auto sit = submissions_.find(round->uniques[0].waiters[0]);
    if (sit != submissions_.end() && sit->second.trace.active()) {
      round->parent_span = sit->second.trace.span_id;
      round->trace = {sit->second.trace.trace_id, tracer_->MintSpanId()};
    }
  }

  // The pre-partitioned per-site plan is computed by the session once
  // per deployment and shared by every round until placement changes
  // it; the shared_ptr keeps this round's snapshot alive even if a
  // fragment moves mid-flight.
  round->plan = plan_ = session_.plan();
  for (Unique& u : round->uniques) {
    u.system = AcquireSystem();
    // insert_or_assign: a stale-epoch round for this fingerprint may
    // still be in flight (its entry is dead — the epoch check in
    // Admit refuses joins); the fresh round must take over the key.
    in_flight_.insert_or_assign(u.prepared.fingerprint(), round);
  }
  // Lay the batch out once per round; every site walks each of its
  // fragments ONCE with this layout. The lanes point into the uniques'
  // PreparedQuery-shared QLists, which outlive the round.
  std::vector<const xpath::NormQuery*> queries;
  queries.reserve(round->uniques.size());
  for (const Unique& u : round->uniques) {
    queries.push_back(&u.prepared.query());
  }
  round->fused = xpath::MakeEvalBatch(queries);
  metrics_->Observe(m_batch_width_,
                    static_cast<double>(round->uniques.size()));
  metrics_->Increment(m_rounds_);
  metrics_->Add(m_unique_evals_, round->uniques.size());
  DispatchRound(std::move(round));
}

void QueryService::DispatchRound(std::shared_ptr<Round> round) {
  if (scheduler_ == nullptr || tenant_id_ < 0) {
    BeginRound(std::move(round));
    return;
  }
  const double enqueued_at = now();
  const uint64_t cost = round->uniques.size();
  const bool immediate = scheduler_->Enqueue(
      tenant_id_, cost, [this, round, enqueued_at] {
        // The scheduler may dispatch from another tenant's completion
        // context (their Compose freed the slot); bounce into this
        // service's coordinator context before touching any service
        // state. Every namespace context of a shared host drains on
        // the ONE draining thread, so the cross-namespace ScheduleAt
        // is in-contract on all backends.
        exec::ExecBackend& backend = session_.backend();
        backend.ScheduleAt(backend.now(), [this, round, enqueued_at] {
          metrics_->Observe(m_sched_dispatch_delay_, now() - enqueued_at);
          BeginRound(round);
        });
      });
  if (!immediate) metrics_->Increment(m_sched_deferred_);
}

void QueryService::BeginRound(std::shared_ptr<Round> round) {
  // One "query" message per site carries every unique's QList.
  uint64_t batch_query_bytes = 0;
  std::vector<core::RetainedSystem*> systems;
  for (Unique& u : round->uniques) {
    batch_query_bytes += u.prepared.query_bytes();
    systems.push_back(&u.system);
  }
  // The whole fan-out runs under the round's trace: each per-site
  // "query" send span (and the site work hanging off its delivery)
  // parents beneath the round span.
  obs::ScopedTraceContext round_scope(round->trace);
  core::StartRound({.backend = &session_.backend(),
                    .coordinator = coordinator(),
                    .factory = &session_.factory(),
                    .set = set_,
                    .tracer = tracer_,
                    .batch = &round->fused,
                    .systems = std::move(systems),
                    .tag = "query",
                    .work = core::PlanWork(*round->plan, batch_query_bytes)},
                   [this, round](core::RoundResult result) {
    // Service-side wire meters, coordinator-local hops excluded
    // exactly like the substrate's TrafficStats.
    metrics_->Add(m_query_bytes_, result.request_bytes);
    metrics_->Add(m_query_msgs_, result.request_messages);
    metrics_->Add(m_triplet_bytes_, result.reply_bytes);
    metrics_->Add(m_triplet_msgs_, result.reply_messages);
    metrics_->Add(m_ops_, result.ops);
    metrics_->Add(m_fused_walks_, result.walks);
    metrics_->Add(m_cse_shared_, result.shared_entries);
    if (!result.status.ok() && first_error_.ok()) {
      first_error_ = result.status;
    }
    Compose(round);
  });
}

void QueryService::Compose(std::shared_ptr<Round> round) {
  uint64_t solve_ops = 0;
  for (const Unique& u : round->uniques) {
    solve_ops += u.prepared.query().size() * set_->live_count();
  }
  metrics_->Add(m_ops_, solve_ops);
  // Compose is called from the last triplet's delivery context; scope
  // the round's own trace so the solve compute parents beneath the
  // round span rather than beneath that one site's reply.
  obs::ScopedTraceContext round_scope(round->trace);
  if (tracer_ != nullptr) tracer_->SetNextComputeName("solve");
  session_.backend().Compute(coordinator(), solve_ops, [this, round] {
    for (Unique& u : round->uniques) {
      Result<bool> result = u.system.Resolve(
          &session_.factory(), round->plan->children, set_->root_fragment(),
          u.prepared.query().root());
      bool answer = false;
      if (result.ok()) {
        answer = *result;
      } else if (first_error_.ok()) {
        first_error_ = result.status();
      }
      // Deregister only if the key still maps to this round — a fresh
      // round may have taken it over after an update staled this one.
      if (auto inf = in_flight_.find(u.prepared.fingerprint());
          inf != in_flight_.end() && inf->second == round) {
        in_flight_.erase(inf);
      }
      std::vector<uint64_t> waiters = std::move(u.waiters);
      // Results computed concurrently with a document update must not
      // persist: the triplets (and possibly the answer) predate it.
      const bool cacheable = result.ok() && round->epoch == update_epoch_;
      if (cacheable) {
        InsertCacheEntry(std::move(u));
      } else {
        ReleaseSystem(std::move(u.system));
      }
      // waiters[0] is the submission whose query was evaluated; the
      // rest joined it.
      for (size_t w = 0; w < waiters.size(); ++w) {
        Complete(waiters[w], answer, /*cache_hit=*/false,
                 /*shared=*/w > 0);
      }
    }
    // The round span: flush -> all triplets composed and solved.
    if (round->trace.active()) {
      obs::TraceEvent e;
      e.name = "round";
      e.trace_id = round->trace.trace_id;
      e.span_id = round->trace.span_id;
      e.parent_id = round->parent_span;
      e.site = coordinator();
      e.ts_seconds = round->start;
      e.dur_seconds = now() - round->start;
      e.args.emplace_back("uniques",
                          std::to_string(round->uniques.size()));
      e.args.emplace_back(
          "sites", std::to_string(round->plan->site_fragments.size()));
      tracer_->Record(std::move(e));
    }
    // The round's read slot frees here; the scheduler may dispatch
    // another tenant's queued round inside this call (its callback
    // bounces through ScheduleAt, so nothing of that tenant runs in
    // this context).
    if (scheduler_ != nullptr && tenant_id_ >= 0) {
      scheduler_->OnUnitFinished(tenant_id_);
    }
  });
}

void QueryService::Complete(uint64_t id, bool answer, bool cache_hit,
                            bool shared, bool subsumed) {
  auto it = submissions_.find(id);
  if (it == submissions_.end()) return;
  Submission sub = std::move(it->second);
  submissions_.erase(it);

  QueryOutcome outcome;
  outcome.query_id = id;
  outcome.fingerprint = sub.fp;
  outcome.answer = answer;
  outcome.cache_hit = cache_hit;
  outcome.subsumption_hit = subsumed;
  outcome.shared_evaluation = shared && !cache_hit;
  outcome.trace_id = sub.trace.trace_id;
  outcome.submitted_seconds = sub.submitted_seconds;
  outcome.completed_seconds = now();
  const double latency = outcome.latency_seconds();
  metrics_->Increment(m_completed_);
  metrics_->Observe(m_latency_, latency);
  interval_latency_.Add(latency);
  if (sub.trace.active()) {
    // The query's root span: submission to completion.
    obs::TraceEvent e;
    e.name = "query";
    e.trace_id = sub.trace.trace_id;
    e.span_id = sub.trace.span_id;
    e.site = coordinator();
    e.ts_seconds = sub.submitted_seconds;
    e.dur_seconds = latency;
    e.args.emplace_back("answer", answer ? "true" : "false");
    e.args.emplace_back("cache_hit", cache_hit ? "true" : "false");
    e.args.emplace_back("shared",
                        outcome.shared_evaluation ? "true" : "false");
    tracer_->Record(std::move(e));
  }
  if (sink_ != nullptr) {
    const double t = outcome.completed_seconds;
    if (sink_->options().slow_query_seconds > 0.0 &&
        latency >= sink_->options().slow_query_seconds) {
      sink_->SlowQuery(label(), id, sub.trace.trace_id, latency, t);
    }
    if (sink_->DueAt(t)) EmitStatsLine(t);
  }
  if (sub.done) sub.done(outcome);
}

double QueryService::Run() { return session_.backend().Drain(); }

// ---- Updates and the result cache --------------------------------------

Result<frag::AppliedDelta> QueryService::ApplyDelta(
    const frag::Delta& delta) {
  // A delta gets its own trace: the session's apply span and every
  // cache evict/refresh instant parent beneath one delta.apply root.
  obs::TraceContext ctx;
  if (tracer_ != nullptr && tracer_->enabled()) {
    ctx = {tracer_->MintTraceId(), tracer_->MintSpanId()};
  }
  obs::ScopedTraceContext trace_scope(ctx);
  const double t0 = now();
  // Session::Apply validates (including writability) and mutates; the
  // fragment it reports dirty is the only one any cached answer could
  // have moved on.
  PARBOX_ASSIGN_OR_RETURN(frag::AppliedDelta applied,
                          session_.Apply(delta));
  OnContentUpdate(applied.fragment);
  if (ctx.active()) {
    obs::TraceEvent e;
    e.name = "delta.apply";
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    e.site = coordinator();
    e.ts_seconds = t0;
    e.dur_seconds = now() - t0;
    e.args.emplace_back("fragment", std::to_string(applied.fragment));
    tracer_->Record(std::move(e));
  }
  return applied;
}

void QueryService::SubmitDelta(frag::Delta delta, double arrival_seconds,
                               UpdateCompletionFn done) {
  const double arrival = std::max(arrival_seconds, now());
  auto shared_delta = std::make_shared<frag::Delta>(std::move(delta));
  session_.backend().ScheduleAt(arrival, [this, shared_delta, done] {
    Result<frag::AppliedDelta> applied = ApplyDelta(*shared_delta);
    if (!applied.ok() && first_error_.ok()) first_error_ = applied.status();
    if (done) done(applied);
  });
}

Status QueryService::ConfigureTenant(const TenantConfig& config) {
  if (scheduler_ == nullptr || tenant_id_ < 0) {
    return Status::FailedPrecondition(
        "service has no fair-share scheduler attached");
  }
  return scheduler_->Reconfigure(tenant_id_, config);
}

core::RetainedSystem QueryService::AcquireSystem() {
  core::RetainedSystem system;
  if (!system_pool_.empty()) {
    system = std::move(system_pool_.back());
    system_pool_.pop_back();
  }
  system.Reset(set_->table_size());
  return system;
}

void QueryService::ReleaseSystem(core::RetainedSystem&& system) {
  // Bounded: a pool larger than the biggest possible batch can never
  // be drawn down, so anything beyond it is just retained memory.
  if (system_pool_.size() >= options_.max_batch_queries) return;
  system_pool_.push_back(std::move(system));
}

void QueryService::InsertCacheEntry(Unique&& unique) {
  if (options_.cache_capacity == 0) {
    ReleaseSystem(std::move(unique.system));
    return;
  }
  const xpath::QueryFingerprint fp = unique.prepared.fingerprint();
  CacheEntry entry;
  entry.last_used = ++cache_tick_;
  // Keep the solved system: updates splice fresh triplets into it and
  // re-solve instead of discarding the answer wholesale.
  entry.system = std::move(unique.system);
  entry.query = std::move(unique.prepared);
  // insert_or_assign may replace a stale entry under the same key;
  // clear its index registrations first so the per-digest key lists
  // never hold a fingerprint twice.
  if (auto it = cache_.find(fp); it != cache_.end()) {
    DeindexEntryPrefixes(fp, it->second);
  }
  IndexEntryPrefixes(fp, entry);
  cache_.insert_or_assign(fp, std::move(entry));
  EvictIfOverCapacity();
}

void QueryService::IndexEntryPrefixes(const xpath::QueryFingerprint& fp,
                                      const CacheEntry& entry) {
  for (const xpath::QueryFingerprint& digest :
       xpath::AllPrefixDigests(entry.query.query())) {
    prefix_index_[digest].push_back(fp);
  }
}

void QueryService::DeindexEntryPrefixes(const xpath::QueryFingerprint& fp,
                                        const CacheEntry& entry) {
  for (const xpath::QueryFingerprint& digest :
       xpath::AllPrefixDigests(entry.query.query())) {
    auto it = prefix_index_.find(digest);
    if (it == prefix_index_.end()) continue;
    std::vector<xpath::QueryFingerprint>& keys = it->second;
    keys.erase(std::remove(keys.begin(), keys.end(), fp), keys.end());
    if (keys.empty()) prefix_index_.erase(it);
  }
}

bool QueryService::TryServeBySubsumption(uint64_t id) {
  Submission& sub = submissions_.at(id);
  const xpath::NormQuery& q = sub.prepared.query();
  // Probe: digest of this query's FULL entry list (no root id) — any
  // cached query extending these entries registered it.
  auto pit = prefix_index_.find(xpath::PrefixDigest(q, q.size()));
  if (pit == prefix_index_.end()) return false;
  // The key list is read by value: completing and re-caching below
  // mutates the index.
  const std::vector<xpath::QueryFingerprint> candidates = pit->second;
  for (const xpath::QueryFingerprint& donor_fp : candidates) {
    auto cit = cache_.find(donor_fp);
    if (cit == cache_.end()) continue;
    CacheEntry& donor = cit->second;
    // The digest narrowed the field; this comparison is the proof.
    if (!xpath::IsQListPrefix(q, donor.query.query())) continue;
    if (!donor.system.Covers(*set_, q.size())) continue;
    // The first |q| entries of the donor's QList ARE `q`'s entries, so
    // the truncated system is the one partial evaluation of `q` itself
    // would emit.
    core::RetainedSystem system = donor.system.TruncateTo(q.size());
    Result<bool> solved = system.Resolve(&session_.factory(),
                                         plan_->children,
                                         set_->root_fragment(), q.root());
    if (!solved.ok()) {
      ReleaseSystem(std::move(system));
      continue;
    }
    const bool answer = *solved;
    // Coordinator-local solve over the retained formulas: no site is
    // visited, nothing crosses the network. (Sized before sub.prepared
    // is moved into the cache below.)
    const uint64_t solve_ops = 16 + q.size() * set_->live_count();
    donor.last_used = ++cache_tick_;
    metrics_->Increment(m_cache_hits_);
    metrics_->Increment(m_subsumption_hits_);
    TraceInstant("cache.subsume");
    // The answer becomes a first-class entry under its own
    // fingerprint: future submissions of `q` hit exactly, and updates
    // maintain the truncated system like any other.
    Unique u;
    u.prepared = std::move(sub.prepared);
    u.system = std::move(system);
    sub.prepared = core::PreparedQuery();
    InsertCacheEntry(std::move(u));
    if (tracer_ != nullptr) tracer_->SetNextComputeName("cache.subsume");
    session_.backend().Compute(coordinator(), solve_ops,
                               [this, id, answer] {
                                 Complete(id, answer, /*cache_hit=*/true,
                                          /*shared=*/false,
                                          /*subsumed=*/true);
                               });
    return true;
  }
  return false;
}

bool QueryService::RefreshEntry(
    CacheEntry* entry, bexpr::FragmentEquations fresh,
    const std::vector<std::vector<int32_t>>& children) {
  core::RetainedSystem& system = entry->system;
  const bool before = system.answer();
  // Triplet unchanged => the answer provably stands.
  if (!system.Splice(std::move(fresh))) return true;
  // Re-solving is only meaningful over a whole system at the current
  // table shape; anything else has unknown provenance, so evict
  // rather than re-solve a system that silently ignores a fragment.
  if (!system.Covers(*set_, entry->query.query().size())) return false;
  Result<bool> answer =
      system.Resolve(&session_.factory(), children, set_->root_fragment(),
                     entry->query.query().root());
  if (!answer.ok()) return false;  // malformed system: do not trust it
  if (*answer != before) return false;
  metrics_->Increment(m_cache_refreshes_);
  TraceInstant("cache.refresh");
  return true;
}

void QueryService::EvictIfOverCapacity() {
  // O(capacity) scan per eviction — at the few-thousand-entry default
  // this is cheaper to reason about than an intrusive LRU list; swap
  // in one if capacities grow by orders of magnitude.
  while (cache_.size() > options_.cache_capacity) {
    auto lru = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    DeindexEntryPrefixes(lru->first, lru->second);
    ReleaseSystem(std::move(lru->second.system));
    cache_.erase(lru);
  }
}

void QueryService::OnContentUpdate(frag::FragmentId f) {
  ++update_epoch_;  // racing rounds must not populate the cache
  if (cache_.empty()) return;
  if (!set_->is_live(f)) return;
  // The deployment's one children table serves every entry's re-solve:
  // content deltas never change it.
  const std::vector<std::vector<int32_t>>& children = plan_->children;

  // Exact invalidation: splice f's fresh triplet into each entry's
  // retained system and re-solve; evict only if the answer moved.
  // Erasing one entry leaves the other iterators valid, and nothing
  // below inserts, so the snapshot stays usable across evictions.
  std::vector<CacheMap::iterator> entries;
  entries.reserve(cache_.size());
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    entries.push_back(it);
  }
  for (size_t base = 0; base < entries.size(); base += kMaxFusedLanes) {
    const size_t end = std::min(base + kMaxFusedLanes, entries.size());
    std::vector<const xpath::NormQuery*> queries;
    queries.reserve(end - base);
    for (size_t i = base; i < end; ++i) {
      queries.push_back(&entries[i]->second.query.query());
    }
    xpath::EvalCounters counters;
    xpath::BatchEvalStats stats;
    std::vector<bexpr::FragmentEquations> fresh =
        core::PartialEvalFragmentBatch(&session_.factory(),
                                       xpath::MakeEvalBatch(queries), *set_,
                                       f, &counters, &stats);
    // Maintenance work is real compute, charged once per walk.
    metrics_->Add(m_ops_, counters.ops);
    metrics_->Increment(m_fused_walks_);
    metrics_->Add(m_cse_shared_, stats.shared_entries);
    for (size_t i = base; i < end; ++i) {
      const CacheMap::iterator it = entries[i];
      if (RefreshEntry(&it->second, std::move(fresh[i - base]), children)) {
        continue;
      }
      metrics_->Increment(m_cache_invalidations_);
      TraceInstant("cache.evict");
      DeindexEntryPrefixes(it->first, it->second);
      ReleaseSystem(std::move(it->second.system));
      cache_.erase(it);
    }
  }
}

// ---- Reporting ---------------------------------------------------------

ServiceReport QueryService::BuildReport() const {
  ServiceReport report;
  AddToReport(&report);
  report.makespan_seconds = now();
  report.throughput_qps =
      report.makespan_seconds > 0.0
          ? static_cast<double>(report.completed) / report.makespan_seconds
          : 0.0;
  return report;
}

void QueryService::AddToReport(ServiceReport* report) const {
  const exec::ExecBackend& backend = session_.backend();
  report->completed += metrics_->CounterValue(m_completed_);
  report->latency.Merge(metrics_->HistogramValue(m_latency_));
  report->admission_wait.Merge(metrics_->HistogramValue(m_admission_wait_));
  report->cache_hits += metrics_->CounterValue(m_cache_hits_);
  report->shared_evaluations += metrics_->CounterValue(m_shared_evals_);
  report->unique_evaluations += metrics_->CounterValue(m_unique_evals_);
  report->rounds += metrics_->CounterValue(m_rounds_);
  report->cache_invalidations +=
      metrics_->CounterValue(m_cache_invalidations_);
  report->cache_refreshes += metrics_->CounterValue(m_cache_refreshes_);
  report->fused_walks += metrics_->CounterValue(m_fused_walks_);
  report->cse_shared_exprs += metrics_->CounterValue(m_cse_shared_);
  report->subsumption_hits += metrics_->CounterValue(m_subsumption_hits_);
  report->batch_width.Merge(metrics_->HistogramValue(m_batch_width_));
  const sim::TrafficStats& traffic = backend.traffic();
  report->network_bytes += traffic.total_bytes();
  report->network_messages += traffic.total_messages();
  for (uint64_t v : backend.visits()) report->total_visits += v;
  report->total_ops += metrics_->CounterValue(m_ops_);
  report->interned_formula_nodes += session_.factory().total_nodes();
  report->sched_deferred += metrics_->CounterValue(m_sched_deferred_);
  report->sched_dispatch_delay.Merge(
      metrics_->HistogramValue(m_sched_dispatch_delay_));
}

obs::MetricsSnapshot QueryService::SnapshotMetrics() const {
  const exec::ExecBackend& backend = session_.backend();
  const std::string& p = options_.metrics_prefix;
  // Inject the substrate's wire meters as point-in-time gauges next to
  // the service's own counters (idempotent across snapshots; the
  // counter twins "net.<tag>.*" are metered live by the service and
  // must agree — tests/obs_test.cc holds them equal).
  const sim::TrafficStats& traffic = backend.traffic();
  for (const auto& [tag, bytes] : traffic.bytes_by_tag()) {
    metrics_->SetGauge(p + "exec.net." + tag + ".bytes",
                       static_cast<double>(bytes));
  }
  for (const auto& [tag, msgs] : traffic.messages_by_tag()) {
    metrics_->SetGauge(p + "exec.net." + tag + ".messages",
                       static_cast<double>(msgs));
  }
  uint64_t visits = 0;
  for (uint64_t v : backend.visits()) visits += v;
  metrics_->SetGauge(p + "exec.visits", static_cast<double>(visits));
  metrics_->SetGauge(p + "exec.busy_seconds",
                     backend.total_busy_seconds());
  // Substrate-specific counters (thread-pool tasks, proc-backend
  // frames/retries/reconnects, ...) already carry their "exec." names.
  obs::MetricsSnapshot backend_stats;
  backend.AddBackendStats(&backend_stats);
  for (const auto& [name, value] : backend_stats.counters) {
    metrics_->SetGauge(p + name, static_cast<double>(value));
  }
  metrics_->SetGauge(p + "service.cache_size",
                     static_cast<double>(cache_.size()));
  if (scheduler_ != nullptr && tenant_id_ >= 0) {
    const FairScheduler::TenantStats s = scheduler_->Stats(tenant_id_);
    metrics_->SetGauge(p + "sched.queue_depth",
                       static_cast<double>(s.queue_depth));
    metrics_->SetGauge(p + "sched.peak_queue_depth",
                       static_cast<double>(s.peak_queue_depth));
    metrics_->SetGauge(p + "sched.in_flight",
                       static_cast<double>(s.in_flight));
    metrics_->SetGauge(p + "sched.weight", s.config.weight);
  }
  return metrics_->Snapshot();
}

void QueryService::FlushStats() {
  if (sink_ == nullptr) return;
  EmitStatsLine(now());
}

void QueryService::EmitStatsLine(double now_seconds) {
  // Coordinator-thread shard only: every counter read here is written
  // exclusively from coordinator context, so this is exact and safe
  // mid-run (no cross-shard merge while workers are hot).
  const uint64_t completed = metrics_->LocalCounterValue(m_completed_);
  const uint64_t hits = metrics_->LocalCounterValue(m_cache_hits_);
  const uint64_t qbytes = metrics_->LocalCounterValue(m_query_bytes_);
  const uint64_t tbytes = metrics_->LocalCounterValue(m_triplet_bytes_);
  const double dt = now_seconds - sink_cursor_.t;
  const uint64_t dc = completed - sink_cursor_.completed;
  const uint64_t dh = hits - sink_cursor_.hits;
  const double qps = dt > 0.0 ? static_cast<double>(dc) / dt : 0.0;
  const double hit_pct =
      dc > 0 ? 100.0 * static_cast<double>(dh) / static_cast<double>(dc)
             : 0.0;
  const double p50_ms =
      interval_latency_.count() > 0
          ? interval_latency_.Percentile(50) * 1e3
          : 0.0;
  const double p99_ms =
      interval_latency_.count() > 0
          ? interval_latency_.Percentile(99) * 1e3
          : 0.0;
  std::ostringstream line;
  line << "[" << label() << "] t=" << std::fixed << std::setprecision(2)
       << now_seconds << "s qps=" << std::setprecision(1) << qps
       << " p50=" << std::setprecision(3) << p50_ms
       << "ms p99=" << std::setprecision(3) << p99_ms
       << "ms cache_hit=" << std::setprecision(1) << hit_pct
       << "% bytes{query=" << HumanBytes(qbytes - sink_cursor_.query_bytes)
       << ",triplet=" << HumanBytes(tbytes - sink_cursor_.triplet_bytes)
       << "}";
  if (scheduler_ != nullptr && tenant_id_ >= 0) {
    // Scheduler pressure at line time: rounds queued behind the
    // dispatch caps right now.
    line << " q=" << scheduler_->Stats(tenant_id_).queue_depth;
  }
  sink_->Line(line.str());
  sink_cursor_ = {now_seconds, completed, hits, qbytes, tbytes};
  interval_latency_ = obs::Histogram();
}

void QueryService::TraceInstant(const char* name) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  if (!ctx.active()) return;
  obs::TraceEvent e;
  e.name = name;
  e.trace_id = ctx.trace_id;
  e.parent_id = ctx.span_id;
  e.site = coordinator();
  e.ts_seconds = now();
  tracer_->Record(std::move(e));
}

std::string ServiceReport::ToString() const {
  std::ostringstream out;
  out << "QueryService: " << completed << " queries in "
      << makespan_seconds << "s  (" << throughput_qps << " q/s)\n";
  out << "  latency ms: " << latency.Summary("", 1e3) << "\n";
  out << "  admission wait ms: " << admission_wait.Summary("", 1e3)
      << "\n";
  out << "  cache hits " << cache_hits << " (subsumption "
      << subsumption_hits << "), shared evals " << shared_evaluations
      << ", unique evals " << unique_evaluations << ", rounds " << rounds
      << ", invalidations " << cache_invalidations << ", refreshes "
      << cache_refreshes << "\n";
  out << "  fusion: " << fused_walks << " fused walks, "
      << cse_shared_exprs << " cross-query shared exprs, batch width "
      << batch_width.Summary("", 1.0) << "\n";
  out << "  network " << HumanBytes(network_bytes) << " in "
      << network_messages << " msgs, site visits " << total_visits
      << ", ops " << total_ops << ", interned formula nodes "
      << interned_formula_nodes;
  if (sched_dispatch_delay.count() > 0) {
    out << "\n  fair-share: dispatch delay ms "
        << sched_dispatch_delay.Summary("", 1e3) << ", deferred rounds "
        << sched_deferred;
  }
  if (!per_document.empty()) {
    out << "\n  per-document:";
    for (const DocumentRow& row : per_document) {
      std::ostringstream doc;
      doc << "\n    " << row.name << ": " << row.completed
          << " completed, " << row.qps << " q/s, p50 "
          << row.p50_seconds * 1e3 << "ms, p99 " << row.p99_seconds * 1e3
          << "ms";
      if (row.sched_deferred > 0) {
        doc << ", deferred " << row.sched_deferred;
      }
      out << doc.str();
    }
  }
  return out.str();
}

}  // namespace parbox::service
