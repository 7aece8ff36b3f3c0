// Shared plumbing for the evaluator implementations (internal header).

#ifndef PARBOX_CORE_ENGINE_H_
#define PARBOX_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "boolexpr/expr.h"
#include "boolexpr/solver.h"
#include "core/report.h"
#include "core/retained.h"
#include "core/round.h"
#include "core/session.h"
#include "exec/backend.h"
#include "xpath/eval.h"

namespace parbox::core {

struct SelectionResult;

/// Per-run state every evaluation needs, assembled by
/// Session::ExecuteWith (behind Execute, ExecuteIncremental and the
/// selections): views of the session's long-lived pieces (deployment,
/// execution backend, factory, partition plan) plus bookkeeping for
/// the report.
/// The query is already validated and the backend is rewound by the
/// time an Evaluator sees the engine.
///
/// Evaluators drive the run through backend() under the execution-
/// context contract of exec/backend.h: site-context formula work
/// interns into backend().site_factory(s), factory-relative payloads
/// cross as Coded parcels (exec/codec.h), and factory() — the
/// session's — is touched only in coordinator context.
class Engine {
 public:
  Engine(Session* session, const xpath::NormQuery& q, uint64_t query_bytes,
         std::shared_ptr<const SitePlan> plan);

  const frag::FragmentSet& set() const { return session_->set(); }
  const frag::SourceTree& st() const { return session_->st(); }
  const xpath::NormQuery& q() const { return *q_; }
  exec::ExecBackend& backend() { return session_->backend(); }
  /// The coordinator's (session's) factory: composition and solving.
  bexpr::ExprFactory& factory() { return session_->factory(); }
  /// Pre-partitioned per-site work and the solver's children table,
  /// prepared once per deployment instead of per run.
  const SitePlan& plan() const { return *plan_; }

  /// The coordinating site = the site storing the root fragment.
  sim::SiteId coordinator() const { return coordinator_; }
  /// Wire size of the query (the |q| factor in traffic bounds).
  uint64_t query_bytes() const { return query_bytes_; }

  /// Safe from any execution context (site work accumulates ops on
  /// worker threads under ThreadPoolBackend).
  void AddOps(uint64_t ops) {
    total_ops_.fetch_add(ops, std::memory_order_relaxed);
  }

  /// Start the one-query round of q() (core/round.h): `work` under
  /// the request `tag`, spliced into `*system` at the coordinator,
  /// with `node_hook` (if any) on every walk. The round's ops are
  /// added to the report before `done` runs.
  void StartQueryRound(RetainedSystem* system, std::string_view tag,
                       std::vector<SiteWork> work, RoundDoneFn done,
                       FragmentNodeHook node_hook = nullptr);

  /// Every coordinator solve: add `ops` to the report and run `solve`
  /// after them at the coordinator, as a compute traced "solve".
  void SolveAt(uint64_t ops, exec::ExecBackend::Task solve);

  /// Site context, as core::Round charges a walk: add the `ops` the
  /// caller ran inline since `start` (a backend().now() reading) to the
  /// report, trace them as "site.eval", and queue `done` behind them
  /// at `site` as a compute traced "site.reply".
  void ChargeSiteWork(sim::SiteId site, double start, uint64_t ops,
                      exec::ExecBackend::Task done);

  /// Stage 3: charge q().size() ops per live fragment to the
  /// coordinator and solve `*system` there; a failure lands in
  /// `*failure`.
  void Solve(RetainedSystem* system, Status* failure);

  /// The Sec. 8 selections' first pass: the ParBoX round over the plan
  /// into `*system` (reset first; `node_hook` on every walk), then
  /// q().size() ops per live fragment at the coordinator to solve every
  /// variable there. `then` gets the assignment in coordinator context;
  /// a failure lands in `*failure` instead.
  void StartUpPass(RetainedSystem* system, Status* failure,
                   std::function<void(bexpr::Assignment)> then,
                   FragmentNodeHook node_hook = nullptr);
  /// The selections' last step: drain, then (unless `failure` is set)
  /// count `*result`'s selected nodes and report them as `algorithm`.
  Status FinishSelection(std::string algorithm, const Status& failure,
                         SelectionResult* result);

  /// Assemble the report from the backend's measurements.
  RunReport Finish(std::string algorithm, bool answer,
                   uint64_t eq_system_entries);

 private:
  Session* session_;
  const xpath::NormQuery* q_;
  std::shared_ptr<const SitePlan> plan_;
  sim::SiteId coordinator_;
  uint64_t query_bytes_;
  std::atomic<uint64_t> total_ops_{0};
  /// q() laid out as a one-lane batch by StartQueryRound.
  xpath::EvalBatch batch_;
};

}  // namespace parbox::core

#endif  // PARBOX_CORE_ENGINE_H_
