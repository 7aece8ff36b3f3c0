// Session: the compile-once / execute-many entry point to the
// distributed evaluation engines, and the only way in: every
// evaluation — the registered evaluators, incremental re-execution and
// the Sec. 8 selections — runs on a Session, which owns the long-lived
// pieces for its lifetime:
//
//   * the deployment — FragmentSet + SourceTree (owned, or borrowed
//     from a caller that outlives the session),
//   * one exec::ExecBackend — the execution substrate (the simulated
//     cluster by default, a real thread pool with {.backend =
//     "threads"}), rewound (not reallocated) per execution, so every
//     simulated report is bit-identical to a fresh standalone run,
//   * one hash-consing bexpr::ExprFactory, so formulas interned by one
//     execution are reused by every later one,
//   * the per-site partition plan (which sites hold which fragments,
//     plus the solver's children table), computed lazily and shared by
//     executions and by QueryService batch rounds.
//
// The pattern (prepared statements of production query engines):
//
//   auto session = core::Session::Create(std::move(set), std::move(st));
//   auto q = session->Prepare("[//stock[code = \"GOOG\"]]");
//   for (...) auto report = session->Execute(*q);            // hot path
//   auto lazy = session->Execute(*q, {.evaluator = "lazy"}); // any engine
//
// Execute dispatches through the EvaluatorRegistry (core/evaluator.h);
// the hot path skips parse, normalize, validation, fingerprinting,
// cluster construction, and partition planning. A one-shot caller
// spells the same three steps: Create, Prepare, Execute.
//
// Updates: a session over a *mutable* deployment (owning Create, or
// Create from a non-const FragmentSet*) accepts typed content deltas:
//
//   session->Apply(frag::Delta::InsertSubtree(f, parent, "stock"));
//   auto report = session->ExecuteIncremental(*q);  // revisits only f
//
// Apply marks exactly the touched fragment dirty; ExecuteIncremental
// re-runs partial evaluation on dirty fragments only (one core::Round,
// core/round.h: one "update" message to each dirty site and one
// triplet batch back per site, however many of its fragments are
// dirty), reuses the cached triplet formulas of every clean fragment —
// hash-consing makes an unchanged fragment's formulas bit-identical
// across runs — and re-solves the equation system at the coordinator.
// Answers are always identical to a from-scratch run; the whole delta
// pipeline is metered on the simulated cluster like any other
// evaluation. Route every mutation of the deployment through Apply:
// out-of-band edits (e.g. a MaterializedView sharing the set) leave
// the cached triplets stale. A session's fragmentation is fixed for
// its lifetime: its SourceTree is a borrowed snapshot, so a fragment
// split off later has no site in any plan the session draws up. Split
// and merge belong to core::MaterializedView (Sec. 5).

#ifndef PARBOX_CORE_SESSION_H_
#define PARBOX_CORE_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "boolexpr/expr.h"
#include "boolexpr/solver.h"
#include "common/flat_table.h"
#include "common/status.h"
#include "core/prepared.h"
#include "core/report.h"
#include "core/retained.h"
#include "exec/backend.h"
#include "exec/host.h"
#include "fragment/delta.h"
#include "fragment/fragment.h"
#include "fragment/placement.h"
#include "fragment/source_tree.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "xpath/fingerprint.h"
#include "xpath/qlist.h"

namespace parbox::core {

class Engine;

struct SessionOptions {
  sim::NetworkParams network{};
  /// Execution substrate, by ExecBackendRegistry spec: "sim" (the
  /// deterministic simulated cluster — the default, and the oracle
  /// every other backend is held to), "threads" (a real worker pool,
  /// one per hardware thread), "threads:8", ... Defaults to
  /// $PARBOX_BACKEND when set. Unknown specs fail Create (or the
  /// first Execute, for the non-validating constructors) with the
  /// registered backends listed.
  std::string backend = exec::DefaultBackendSpec();
  /// When set, the session joins this shared multi-document substrate
  /// (catalog serving) instead of standing up a dedicated backend: its
  /// sites become a fresh namespace on the host (`backend` is then
  /// ignored — the host already chose the substrate). The host must
  /// outlive the session.
  exec::BackendHost* host = nullptr;
  /// When non-null, the session wraps its backend in an
  /// obs::TracingBackend reporting here (must outlive the session);
  /// when null — the default unless $PARBOX_TRACE is set — tracing is
  /// structurally absent from the execution path.
  obs::Tracer* tracer = obs::DefaultTracer();
};

struct ExecOptions {
  /// EvaluatorRegistry name; Execute fails with the registered names
  /// listed if unknown.
  std::string evaluator = "parbox";
};

/// The per-site partition of the deployment: which sites participate
/// (hold at least one fragment) and with which fragments, plus the
/// fragment-children table the equation solver walks. Snapshotted by
/// shared_ptr so in-flight work survives a mid-run placement move.
struct SitePlan {
  std::vector<std::pair<sim::SiteId, std::vector<frag::FragmentId>>>
      site_fragments;
  std::vector<std::vector<int32_t>> children;
};

class Session {
 public:
  /// Validating factories. The owning overload takes the deployment;
  /// the borrowing ones require `*set` / `*st` to outlive the session.
  /// Owning and mutable-borrowing sessions accept Apply(delta); a
  /// session borrowing a const deployment is read-only.
  static Result<Session> Create(frag::FragmentSet set, frag::SourceTree st,
                                const SessionOptions& options = {});
  static Result<Session> Create(const frag::FragmentSet* set,
                                const frag::SourceTree* st,
                                const SessionOptions& options = {});
  static Result<Session> Create(frag::FragmentSet* set,
                                const frag::SourceTree* st,
                                const SessionOptions& options = {});

  /// Borrowing constructors without deployment validation — for
  /// embedders (QueryService) that already hold a checked deployment.
  /// Prefer the Create() factories. The mutable overload enables
  /// Apply(delta).
  Session(const frag::FragmentSet* set, const frag::SourceTree* st,
          const SessionOptions& options = {});
  Session(frag::FragmentSet* set, const frag::SourceTree* st,
          const SessionOptions& options = {});

  Session(Session&&) = default;
  Session& operator=(Session&&) = delete;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- Prepare: compile once ----

  /// Parse + normalize + validate + fingerprint `query_text`. Parse and
  /// validation failures carry the offending query text and byte offset.
  Result<PreparedQuery> Prepare(std::string_view query_text);
  /// Prepare an already-normalized query (takes ownership).
  Result<PreparedQuery> Prepare(xpath::NormQuery query);
  /// Prepare a caller-owned query; `*query` must outlive the handle.
  Result<PreparedQuery> Prepare(const xpath::NormQuery* query);

  // ---- Execute: many times ----

  /// Evaluate `query` with the named evaluator on a rewound cluster.
  /// The report is bit-identical to a fresh standalone run of the same
  /// algorithm (the one session-lifetime stat, formula.interned_nodes,
  /// reflects the shared factory). Rejects handles from other sessions.
  Result<RunReport> Execute(const PreparedQuery& query,
                            const ExecOptions& options = {});

  /// The one preamble around every evaluation: the handle check (an
  /// empty handle or one from another session is rejected), the plan,
  /// the backend rewind and the root "execute" trace span (labelled
  /// `name`), with `run` driving one evaluation of `query` on the
  /// Engine (core/engine.h). Execute, ExecuteIncremental and the Sec. 8
  /// selections all run through it.
  Status ExecuteWith(const PreparedQuery& query, std::string_view name,
                     const std::function<Status(Engine&)>& run);

  // ---- Updates: apply deltas, re-execute incrementally ----

  /// True iff this session may mutate its deployment (owning, or
  /// created from a non-const FragmentSet*).
  bool writable() const { return mutable_set_ != nullptr; }

  /// Validate and apply a typed content delta to the deployment, and
  /// mark the touched fragment dirty for every query's incremental
  /// state. Fails with FailedPrecondition on a read-only session; on
  /// any failure the document is untouched.
  Result<frag::AppliedDelta> Apply(const frag::Delta& delta);

  /// Delta-driven re-evaluation of `query`: re-run partial evaluation
  /// only on the fragments dirtied (by Apply, a placement move or a
  /// site recovery) since this query's last incremental run started,
  /// reuse the cached triplet formulas of every clean fragment, and
  /// re-solve the equation system at the coordinator. The first call
  /// per fingerprint is a full ParBoX round that seeds the cached
  /// triplets, as is the call after an Apply that found more than
  /// 4 x table-size dirty records pending. Either way each visited
  /// site replies once. The answer is always identical to a
  /// from-scratch run of any registered evaluator. The report's
  /// algorithm field names the path taken:
  /// IncrementalParBoX[full|delta|clean].
  Result<RunReport> ExecuteIncremental(const PreparedQuery& query);

  /// Fragments an ExecuteIncremental of `query` would re-evaluate now.
  std::vector<frag::FragmentId> DirtyFragments(
      const PreparedQuery& query) const;

  // ---- Long-lived state ----

  const frag::FragmentSet& set() const { return *set_; }
  const frag::SourceTree& st() const { return *st_; }
  /// The execution substrate (exec/backend.h): the simulated cluster
  /// by default, a real thread pool under {.backend = "threads"}.
  exec::ExecBackend& backend() { return *backend_; }
  const exec::ExecBackend& backend() const { return *backend_; }
  bexpr::ExprFactory& factory() { return *factory_; }
  const bexpr::ExprFactory& factory() const { return *factory_; }
  /// The tracer execute spans report to; nullptr when tracing is
  /// structurally absent (SessionOptions::tracer was null).
  obs::Tracer* tracer() const { return tracer_; }
  /// The site storing the root fragment.
  sim::SiteId coordinator() const {
    return st_->site_of(st_->root_fragment());
  }

  /// OK unless the non-validating constructors were given an invalid
  /// backend spec (the validating Create factories surface this
  /// directly; Execute and embedders check it on use).
  const Status& backend_status() const { return backend_status_; }

  /// Current partition plan (computed on first use, then reused).
  /// Catches up on the placement feed first (SyncPlacement).
  std::shared_ptr<const SitePlan> plan();

  // ---- Placement subscription (catalog documents) ----

  /// Subscribe to a catalog document's placement feed. From here on,
  /// plan() (and therefore every Execute*) first catches up on Move
  /// epochs: rebind the current snapshot, recompute the per-site plan,
  /// and mark each moved fragment dirty (16 bytes: the migration
  /// record) in every query's incremental state — WITHOUT re-seeding it
  /// (a Move changes no fragment content, so cached triplets stay
  /// valid; only the moved fragments re-ship their state, via the
  /// metered "update" message of the next ExecuteIncremental, and visit
  /// counts stay bounded by the moved-fragment count).
  void FollowPlacement(std::shared_ptr<const frag::PlacementFeed> feed);
  /// Catch up on the followed feed now (plan() does this implicitly).
  void SyncPlacement();
  /// Catch up on backend site recovery now (plan() does this
  /// implicitly). Backends whose sites hold real remote state (the
  /// `proc` process backend) bump a site's RecoveryEpoch when its
  /// daemon restarts and loses everything it was shipped; this
  /// re-ships the site's live fragments — content over the metered
  /// "migrate" path, and each fragment marked dirty (16 bytes) in every
  /// query's incremental state, exactly the catalog Move path — and
  /// drains the backend so the next Execute starts quiescent.
  void SyncRecovery();

 private:
  /// One dirty fragment and the summed wire size of its deltas (what
  /// shipping the update to the owning site costs).
  struct DirtyRecord {
    frag::FragmentId fragment = frag::kNoFragment;
    uint64_t wire_bytes = 0;
  };

  /// Per-fingerprint state ExecuteIncremental maintains: the retained
  /// system of the last run (clean fragments' triplets reused
  /// verbatim) and the fragments dirtied since that run started.
  struct IncrementalState {
    RetainedSystem system;
    /// Dirty fragments in first-seen order, each once.
    std::vector<DirtyRecord> dirty;
    FlatMap<frag::FragmentId, size_t> dirty_at;  ///< index into `dirty`
    size_t marks = 0;  ///< MarkDirty calls, duplicates included
    bool valid = false;
  };

  /// Query-level validation shared by every Prepare overload;
  /// `text` (if non-empty) is attached to failure messages.
  Status ValidateQuery(const xpath::NormQuery& q,
                       std::string_view text) const;
  Result<PreparedQuery> Finalize(PreparedQuery q, std::string_view text);
  /// True iff `state` cannot be reused (never seeded, or its table no
  /// longer has the deployment's shape).
  bool NeedsFullPass(const IncrementalState& state) const;
  /// Mark fragment `f` dirty, with `bytes` of update to ship, in every
  /// query's incremental state (one awaiting a full pass included: it
  /// may be mid-run).
  void MarkDirty(frag::FragmentId f, uint64_t bytes);

  /// Owned-deployment storage (null for borrowing sessions). Stable
  /// addresses across Session moves, so set_/st_ never dangle.
  std::unique_ptr<frag::FragmentSet> owned_set_;
  std::unique_ptr<const frag::SourceTree> owned_st_;
  const frag::FragmentSet* set_;
  const frag::SourceTree* st_;
  /// Non-null iff the session may mutate the deployment (Apply).
  frag::FragmentSet* mutable_set_ = nullptr;
  /// Heap-held so the address the backend composes triplets into stays
  /// stable across Session moves.
  std::unique_ptr<bexpr::ExprFactory> factory_;
  /// The substrate runs execute on; never null (an invalid options
  /// spec falls back to the sim and surfaces `backend_status_` on the
  /// validating factories and on first Execute).
  std::unique_ptr<exec::ExecBackend> backend_;
  Status backend_status_ = Status::OK();
  obs::Tracer* tracer_ = nullptr;
  std::shared_ptr<const SitePlan> plan_;
  /// Handed to every PreparedQuery; survives Session moves, so Execute
  /// can tell its own handles from another session's.
  std::shared_ptr<const int> ticket_;

  /// Placement subscription (FollowPlacement): the feed, the last
  /// epoch caught up to, and the snapshot keeping st_ alive across
  /// publishes.
  std::shared_ptr<const frag::PlacementFeed> placement_feed_;
  uint64_t placement_epoch_seen_ = 0;
  std::shared_ptr<const frag::SourceTree> snapshot_hold_;

  /// Last backend RecoveryEpoch observed per site (SyncRecovery).
  /// Sites first seen at epoch E start AT E: their content ships (or
  /// shipped) on the current daemon incarnation, so nothing re-ships.
  std::vector<uint64_t> recovery_seen_;

  /// ExecuteIncremental's state, one per query fingerprint.
  std::unordered_map<xpath::QueryFingerprint, IncrementalState,
                     xpath::QueryFingerprintHash>
      inc_states_;
};

}  // namespace parbox::core

#endif  // PARBOX_CORE_SESSION_H_
