#include "core/session.h"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/round.h"
#include "exec/sim_backend.h"
#include "obs/trace_backend.h"
#include "xpath/fingerprint.h"
#include "xpath/normalize.h"

namespace parbox::core {

namespace {

/// Pull the byte offset out of a parser/lexer message ("... at offset
/// 12"). Returns std::string::npos when the message carries none.
size_t ExtractOffset(const std::string& message) {
  constexpr std::string_view kMarker = " at offset ";
  const size_t pos = message.rfind(kMarker);
  if (pos == std::string::npos) return std::string::npos;
  const size_t digits = pos + kMarker.size();
  if (digits >= message.size() ||
      !std::isdigit(static_cast<unsigned char>(message[digits]))) {
    return std::string::npos;
  }
  return static_cast<size_t>(std::strtoull(message.c_str() + digits,
                                           nullptr, 10));
}

/// Attach the offending query to a parse/normalize/validation failure,
/// pointing at the failing byte when the message names an offset.
/// Engine-level errors used to surface with no query context at all.
Status AttachQueryContext(const Status& status, std::string_view text) {
  if (status.ok() || text.empty()) return status;
  std::string message = status.message();
  message += " | query: \"";
  message += text;
  message += "\"";
  const size_t offset = ExtractOffset(status.message());
  if (offset != std::string::npos && offset <= text.size()) {
    constexpr size_t kWindow = 16;
    std::string_view rest = text.substr(offset);
    message += " | byte " + std::to_string(offset) + " is at: \"";
    message += rest.substr(0, kWindow);
    if (rest.size() > kWindow) message += "...";
    message += "\"";
  }
  return Status(status.code(), std::move(message));
}

Status ValidateDeployment(const frag::FragmentSet& set,
                          const frag::SourceTree& st) {
  if (st.root_fragment() != set.root_fragment()) {
    return Status::InvalidArgument(
        "source tree does not match the fragment set");
  }
  if (st.num_sites() < 1) {
    return Status::InvalidArgument("no sites in the source tree");
  }
  return Status::OK();
}

}  // namespace

Session::Session(const frag::FragmentSet* set, const frag::SourceTree* st,
                 const SessionOptions& options)
    : set_(set),
      st_(st),
      factory_(std::make_unique<bexpr::ExprFactory>()),
      ticket_(std::make_shared<int>(0)) {
  const int num_sites = st->num_sites();
  const sim::SiteId coordinator = st->site_of(st->root_fragment());
  Result<std::unique_ptr<exec::ExecBackend>> backend =
      options.host != nullptr
          ? options.host->OpenNamespace(num_sites, coordinator, factory_.get())
          : exec::ExecBackendRegistry::Instance().CreateOrError(
                options.backend, options.network);
  if (backend.ok()) {
    backend_ = std::move(*backend);
  } else {
    // Constructors cannot fail; fall back to the sim and surface the
    // spec error from the validating factories / the first Execute.
    backend_status_ = backend.status();
    backend_ = std::make_unique<exec::SimBackend>(options.network);
  }
  if (backend_->num_sites() == 0) {  // a dedicated backend starts empty
    Result<sim::SiteId> base =
        backend_->AddNamespace(num_sites, coordinator, factory_.get());
    if (backend_status_.ok()) backend_status_ = base.status();
  }
  if (options.tracer != nullptr) {
    // Tracing present: decorate the substrate. When no tracer is
    // configured (the default), the execution path is structurally the
    // undecorated backend — zero per-call cost.
    tracer_ = options.tracer;
    backend_ = std::make_unique<obs::TracingBackend>(std::move(backend_),
                                                     tracer_);
  }
}

Session::Session(frag::FragmentSet* set, const frag::SourceTree* st,
                 const SessionOptions& options)
    : Session(static_cast<const frag::FragmentSet*>(set), st, options) {
  mutable_set_ = set;
}

Result<Session> Session::Create(const frag::FragmentSet* set,
                                const frag::SourceTree* st,
                                const SessionOptions& options) {
  PARBOX_RETURN_IF_ERROR(ValidateDeployment(*set, *st));
  Session session(set, st, options);
  PARBOX_RETURN_IF_ERROR(session.backend_status_);
  return session;
}

Result<Session> Session::Create(frag::FragmentSet* set,
                                const frag::SourceTree* st,
                                const SessionOptions& options) {
  PARBOX_RETURN_IF_ERROR(ValidateDeployment(*set, *st));
  Session session(set, st, options);
  PARBOX_RETURN_IF_ERROR(session.backend_status_);
  return session;
}

Result<Session> Session::Create(frag::FragmentSet set, frag::SourceTree st,
                                const SessionOptions& options) {
  PARBOX_RETURN_IF_ERROR(ValidateDeployment(set, st));
  auto owned_set = std::make_unique<frag::FragmentSet>(std::move(set));
  auto owned_st = std::make_unique<const frag::SourceTree>(std::move(st));
  Session session(owned_set.get(), owned_st.get(), options);
  PARBOX_RETURN_IF_ERROR(session.backend_status_);
  session.owned_set_ = std::move(owned_set);
  session.owned_st_ = std::move(owned_st);
  return session;
}

Status Session::ValidateQuery(const xpath::NormQuery& q,
                              std::string_view text) const {
  if (!q.IsWellFormed()) {
    return AttachQueryContext(
        Status::InvalidArgument("query QList is not well-formed"), text);
  }
  if (q.size() > static_cast<size_t>(bexpr::VarId::kMaxQueryIndex) + 1) {
    return AttachQueryContext(
        Status::InvalidArgument(
            "query has more sub-queries than the variable encoding "
            "supports"),
        text);
  }
  return Status::OK();
}

Result<PreparedQuery> Session::Finalize(PreparedQuery q,
                                        std::string_view text) {
  PARBOX_RETURN_IF_ERROR(ValidateQuery(*q.query_, text));
  q.fp_ = xpath::FingerprintQuery(*q.query_);
  q.query_bytes_ = q.query_->SerializedSizeBytes();
  q.text_ = std::string(text);
  q.ticket_ = ticket_;
  return q;
}

Result<PreparedQuery> Session::Prepare(std::string_view query_text) {
  Result<xpath::NormQuery> compiled = xpath::CompileQuery(query_text);
  if (!compiled.ok()) {
    return AttachQueryContext(compiled.status(), query_text);
  }
  PreparedQuery q;
  q.owned_ =
      std::make_shared<const xpath::NormQuery>(std::move(*compiled));
  q.query_ = q.owned_.get();
  return Finalize(std::move(q), query_text);
}

Result<PreparedQuery> Session::Prepare(xpath::NormQuery query) {
  PreparedQuery q;
  q.owned_ = std::make_shared<const xpath::NormQuery>(std::move(query));
  q.query_ = q.owned_.get();
  return Finalize(std::move(q), {});
}

Result<PreparedQuery> Session::Prepare(const xpath::NormQuery* query) {
  PreparedQuery q;
  q.query_ = query;
  return Finalize(std::move(q), {});
}

Result<RunReport> Session::Execute(const PreparedQuery& query,
                                   const ExecOptions& options) {
  PARBOX_ASSIGN_OR_RETURN(
      std::unique_ptr<Evaluator> evaluator,
      EvaluatorRegistry::Instance().CreateOrError(options.evaluator));
  RunReport report;
  PARBOX_RETURN_IF_ERROR(
      ExecuteWith(query, options.evaluator, [&](Engine& eng) -> Status {
        PARBOX_ASSIGN_OR_RETURN(report, evaluator->Run(eng));
        return Status::OK();
      }));
  return report;
}

Status Session::ExecuteWith(const PreparedQuery& query, std::string_view name,
                            const std::function<Status(Engine&)>& run) {
  PARBOX_RETURN_IF_ERROR(backend_status_);
  if (!query.valid()) {
    return Status::InvalidArgument("PreparedQuery is empty");
  }
  if (query.ticket_ != ticket_) {
    return Status::InvalidArgument(
        "PreparedQuery was prepared by a different Session");
  }
  std::shared_ptr<const SitePlan> p = plan();
  backend_->Reset();
  Engine eng(this, *query.query_, query.query_bytes_, std::move(p));
  if (tracer_ == nullptr || !tracer_->enabled()) return run(eng);
  // Root span for a standalone execution: everything the evaluation
  // issues (broadcast sends, per-site computes, triplet replies)
  // parents beneath it via the ambient context.
  const obs::TraceContext ctx{tracer_->MintTraceId(),
                              tracer_->MintSpanId()};
  obs::ScopedTraceContext scope(ctx);
  const double t0 = backend_->now();
  Status status = run(eng);
  obs::TraceEvent e;
  e.name = "execute";
  e.trace_id = ctx.trace_id;
  e.span_id = ctx.span_id;
  e.site = backend_->coordinator();
  e.ts_seconds = t0;
  e.dur_seconds = backend_->now() - t0;
  e.args.emplace_back("evaluator", std::string(name));
  tracer_->Record(std::move(e));
  return status;
}

// ---- Updates -----------------------------------------------------------

Result<frag::AppliedDelta> Session::Apply(const frag::Delta& delta) {
  if (!writable()) {
    return Status::FailedPrecondition(
        "session borrows a const deployment; Apply needs an owning or "
        "mutable-borrowing session");
  }
  // The exclusive side of the backend's document lock: under a real
  // thread pool, in-flight site work reads the document on worker
  // threads, and the mutation must not land mid-traversal. On the
  // single-threaded sim this runs the mutation directly.
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  const double apply_t0 = traced ? backend_->now() : 0.0;
  std::optional<Result<frag::AppliedDelta>> applied_or;
  backend_->MutateExclusive(
      [&] { applied_or.emplace(frag::ApplyDelta(mutable_set_, delta)); });
  PARBOX_ASSIGN_OR_RETURN(frag::AppliedDelta applied,
                          std::move(*applied_or));
  if (traced) {
    // Child of the ambient context when one is active (a service-level
    // delta.apply span), a root span of its own otherwise.
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    obs::TraceEvent e;
    e.name = "session.apply";
    e.trace_id = ctx.active() ? ctx.trace_id : tracer_->MintTraceId();
    e.span_id = tracer_->MintSpanId();
    e.parent_id = ctx.span_id;
    e.site = backend_->coordinator();
    e.ts_seconds = apply_t0;
    e.dur_seconds = backend_->now() - apply_t0;
    e.args.emplace_back("fragment", std::to_string(applied.fragment));
    e.args.emplace_back("bytes", std::to_string(applied.wire_bytes));
    tracer_->Record(std::move(e));
  }
  MarkDirty(applied.fragment, applied.wire_bytes);
  // A state that has fallen far behind (pending records several times
  // the fragment table) would re-evaluate most fragments anyway; its
  // next run is a full re-seed — e.g. a query executed once and never
  // again.
  for (auto& [fp, state] : inc_states_) {
    (void)fp;
    if (state.marks > 4 * set_->table_size()) state.valid = false;
  }
  return applied;
}

bool Session::NeedsFullPass(const IncrementalState& state) const {
  return !state.valid || state.system.table_size() != set_->table_size();
}

void Session::MarkDirty(frag::FragmentId f, uint64_t bytes) {
  for (auto& [fp, state] : inc_states_) {
    (void)fp;
    ++state.marks;
    // First-seen order, deduped through the index: a linear rescan per
    // mark is quadratic under the delta storms the chaos suite applies
    // at 10k+ fragments.
    auto [at, inserted] = state.dirty_at.Insert(f, state.dirty.size());
    if (inserted) {
      state.dirty.push_back({f, bytes});
    } else {
      state.dirty[*at].wire_bytes += bytes;
    }
  }
}

std::vector<frag::FragmentId> Session::DirtyFragments(
    const PreparedQuery& query) const {
  auto it = inc_states_.find(query.fingerprint());
  if (it == inc_states_.end() || NeedsFullPass(it->second)) {
    return set_->live_ids();  // no reusable state: a full pass is due
  }
  std::vector<frag::FragmentId> out;
  for (const DirtyRecord& rec : it->second.dirty) {
    if (set_->is_live(rec.fragment)) out.push_back(rec.fragment);
  }
  return out;
}

Result<RunReport> Session::ExecuteIncremental(const PreparedQuery& query) {
  RunReport report;
  auto run = [&](Engine& eng) -> Status {
    exec::ExecBackend& backend = eng.backend();
    const xpath::NormQuery& q = eng.q();
    IncrementalState& state = inc_states_[query.fp_];
    // Reusable state requires a table of the deployment's shape.
    const bool full = NeedsFullPass(state);
    std::vector<SiteWork> work;
    if (full) {
      // Seed pass: the ParBoX round, with the triplets retained for
      // later delta runs.
      state.system.Reset(set_->table_size());
      work = PlanWork(eng.plan(), eng.query_bytes());
    } else {
      // Delta pass: each dirty site gets one "update" message carrying
      // the deltas it has not seen, re-evaluates only its dirty
      // fragments and replies once. Clean fragments' retained formulas
      // are reused verbatim (hash-consing keeps their ExprIds
      // bit-stable across runs). 16 bytes name the query (its
      // fingerprint) the site should re-evaluate under.
      FlatMap<sim::SiteId, size_t> site_at;
      for (const DirtyRecord& rec : state.dirty) {
        if (!set_->is_live(rec.fragment)) continue;
        const sim::SiteId s = st_->site_of(rec.fragment);
        auto [at, inserted] = site_at.Insert(s, work.size());
        if (inserted) {
          work.push_back({s, {rec.fragment}, rec.wire_bytes + 16});
        } else {
          work[*at].fragments.push_back(rec.fragment);
          work[*at].request_bytes += rec.wire_bytes;
        }
      }
    }
    // The run takes every fragment dirtied so far. A delta applied
    // *during* the run (by an event-loop callback) marks the state
    // afresh and stays dirty for the next run.
    state.dirty.clear();
    state.dirty_at.Clear();
    state.marks = 0;

    Status failure = Status::OK();
    bool finished = false;
    const std::string_view mode =
        full ? "full" : work.empty() ? "clean" : "delta";
    if (mode == "clean") {
      // Nothing changed since the last run: the retained answer
      // stands; one coordinator-local lookup, zero site visits.
      const uint64_t lookup_ops = 16 + q.size();
      eng.AddOps(lookup_ops);
      if (tracer_ != nullptr) tracer_->SetNextComputeName("cache.lookup");
      backend.Compute(eng.coordinator(), lookup_ops,
                      [&finished] { finished = true; });
    } else {
      // Stage 3 (shared by the full and delta paths): one bottom-up
      // solve of the retained equation system at the coordinator. The
      // retained clean triplets stay sound under the thread pool for
      // the same reason as on the sim: decoding a structurally
      // identical formula into the session's hash-consing factory
      // reproduces bit-identical ExprIds, so reusing stored ids *is*
      // re-evaluation minus the work.
      auto solve = [&](RoundResult round) {
        finished = true;
        failure = round.status;
        if (failure.ok()) eng.Solve(&state.system, &failure);
      };
      eng.StartQueryRound(&state.system, full ? "query" : "update",
                          std::move(work), solve);
    }
    backend.Drain();
    // A broken run must not seed reuse.
    state.valid = failure.ok() && finished;
    PARBOX_RETURN_IF_ERROR(failure);
    if (!finished) {
      return Status::Internal("incremental run finished without an answer");
    }
    const uint64_t entries =
        mode == "clean" ? 0 : 3 * q.size() * set_->live_count();
    report = eng.Finish("IncrementalParBoX[" + std::string(mode) + "]",
                        state.system.answer(), entries);
    return Status::OK();
  };
  PARBOX_RETURN_IF_ERROR(ExecuteWith(query, "incremental", run));
  return report;
}

void Session::FollowPlacement(
    std::shared_ptr<const frag::PlacementFeed> feed) {
  placement_feed_ = std::move(feed);
  placement_epoch_seen_ = placement_feed_->epoch();
  if (std::shared_ptr<const frag::SourceTree> snap =
          placement_feed_->snapshot()) {
    snapshot_hold_ = std::move(snap);
    st_ = snapshot_hold_.get();
    plan_ = nullptr;
  }
}

void Session::SyncPlacement() {
  if (placement_feed_ == nullptr ||
      placement_feed_->epoch() == placement_epoch_seen_) {
    return;
  }
  const std::vector<frag::FragmentId> moved =
      placement_feed_->MovedSince(placement_epoch_seen_);
  placement_epoch_seen_ = placement_feed_->epoch();
  snapshot_hold_ = placement_feed_->snapshot();
  st_ = snapshot_hold_.get();
  // A Move changes no content: the plan re-partitions, but retained
  // incremental triplets stay valid, and only the moved fragments go
  // dirty. The 16 bytes are the migration control record (fragment id,
  // new site, epoch) the next incremental "update" message carries; the
  // fragment's *content* already lives at the new site (the catalog
  // ships it at Move time, metered under the "migrate" tag).
  plan_ = nullptr;
  for (frag::FragmentId f : moved) {
    if (set_->is_live(f)) MarkDirty(f, 16);
  }
}

void Session::SyncRecovery() {
  exec::ExecBackend* backend = backend_.get();
  const sim::SiteId num_sites = st_->num_sites();
  bool shipped = false;
  for (sim::SiteId s = 0; s < num_sites; ++s) {
    const uint64_t epoch = backend->RecoveryEpoch(s);
    if (static_cast<size_t>(s) >= recovery_seen_.size()) {
      recovery_seen_.resize(static_cast<size_t>(s) + 1, 0);
      recovery_seen_[static_cast<size_t>(s)] = epoch;
      continue;
    }
    if (epoch == recovery_seen_[static_cast<size_t>(s)]) continue;
    recovery_seen_[static_cast<size_t>(s)] = epoch;
    // The site's daemon restarted since we last looked: everything it
    // held is gone. Re-ship exactly this site's live fragments — the
    // content as a metered "migrate" transfer out of the coordinator's
    // context, and (as SyncPlacement does) each fragment marked dirty
    // so the next incremental run re-ships its triplet state too.
    const sim::SiteId coord = coordinator();
    for (frag::FragmentId f : st_->fragments_at(s)) {
      if (!set_->is_live(f)) continue;
      const uint64_t bytes = set_->FragmentSerializedBytes(f);
      backend->Compute(coord, 0, [backend, coord, s, bytes] {
        backend->Send(coord, s, exec::Parcel::OfSize(bytes), "migrate",
                      [](exec::Parcel) {});
      });
      MarkDirty(f, 16);
      shipped = true;
    }
  }
  // Complete the transfers here: Execute resets the backend right
  // after plan(), and Reset requires quiescence.
  if (shipped) backend->Drain();
}

std::shared_ptr<const SitePlan> Session::plan() {
  SyncPlacement();
  SyncRecovery();
  if (plan_ == nullptr) {
    auto p = std::make_shared<SitePlan>();
    p->children = set_->ChildrenTable();
    for (sim::SiteId s = 0; s < st_->num_sites(); ++s) {
      if (!st_->fragments_at(s).empty()) {
        p->site_fragments.emplace_back(s, st_->fragments_at(s));
      }
    }
    plan_ = std::move(p);
  }
  return plan_;
}

}  // namespace parbox::core
