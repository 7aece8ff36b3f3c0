#include "core/engine.h"

#include "core/selection.h"

namespace parbox::core {

Engine::Engine(Session* session, const xpath::NormQuery& q,
               uint64_t query_bytes, std::shared_ptr<const SitePlan> plan)
    : session_(session),
      q_(&q),
      plan_(std::move(plan)),
      coordinator_(session->coordinator()),
      query_bytes_(query_bytes) {}

void Engine::StartQueryRound(RetainedSystem* system, std::string_view tag,
                             std::vector<SiteWork> work, RoundDoneFn done,
                             FragmentNodeHook node_hook) {
  if (batch_.lanes.empty()) batch_ = xpath::MakeEvalBatch({q_});
  StartRound({.backend = &backend(),
              .coordinator = coordinator_,
              .factory = &factory(),
              .set = &set(),
              .tracer = session_->tracer(),
              .batch = &batch_,
              .systems = {system},
              .tag = tag,
              .work = std::move(work),
              .node_hook = std::move(node_hook)},
             [this, done = std::move(done)](RoundResult result) {
               AddOps(result.ops);
               done(std::move(result));
             });
}

void Engine::SolveAt(uint64_t ops, exec::ExecBackend::Task solve) {
  AddOps(ops);
  obs::Tracer* tracer = session_->tracer();
  if (tracer != nullptr) tracer->SetNextComputeName("solve");
  backend().Compute(coordinator_, ops, std::move(solve));
}

void Engine::ChargeSiteWork(sim::SiteId site, double start, uint64_t ops,
                            exec::ExecBackend::Task done) {
  AddOps(ops);
  if (obs::Tracer* tracer = session_->tracer(); tracer != nullptr) {
    tracer->RecordInlineSpan("site.eval", site, start, backend().now(), ops);
    tracer->SetNextComputeName("site.reply");
  }
  backend().Compute(site, ops, std::move(done));
}

void Engine::Solve(RetainedSystem* system, Status* failure) {
  SolveAt(q_->size() * set().live_count(), [this, system, failure] {
    Result<bool> answer = system->Resolve(&factory(), plan_->children,
                                          set().root_fragment(), q_->root());
    if (!answer.ok()) *failure = answer.status();
  });
}

void Engine::StartUpPass(RetainedSystem* system, Status* failure,
                         std::function<void(bexpr::Assignment)> then,
                         FragmentNodeHook node_hook) {
  system->Reset(set().table_size());
  auto solve = [this, system, failure, then](RoundResult round) {
    *failure = round.status;
    if (!failure->ok()) return;
    SolveAt(q_->size() * set().live_count(), [this, system, failure, then] {
      Result<bexpr::Assignment> solved =
          bexpr::SolveBottomUp(&factory(), system->table(), plan_->children,
                               set().root_fragment());
      if (solved.ok()) {
        then(std::move(*solved));
      } else {
        *failure = solved.status();
      }
    });
  };
  StartQueryRound(system, "query", PlanWork(*plan_, query_bytes_), solve,
                  std::move(node_hook));
}

Status Engine::FinishSelection(std::string algorithm, const Status& failure,
                               SelectionResult* result) {
  backend().Drain();
  PARBOX_RETURN_IF_ERROR(failure);
  for (const auto& group : result->selected_by_fragment) {
    result->total_selected += group.size();
  }
  result->report = Finish(std::move(algorithm), result->total_selected > 0,
                          3 * q_->size() * set().live_count());
  return Status::OK();
}

RunReport Engine::Finish(std::string algorithm, bool answer,
                         uint64_t eq_system_entries) {
  exec::ExecBackend& backend = session_->backend();
  RunReport report;
  report.algorithm = std::move(algorithm);
  report.answer = answer;
  report.makespan_seconds = backend.now();
  report.total_compute_seconds = backend.total_busy_seconds();
  report.total_ops = total_ops_.load(std::memory_order_relaxed);
  const sim::TrafficStats& traffic = backend.traffic();
  report.network_bytes = traffic.total_bytes();
  report.network_messages = traffic.total_messages();
  report.visits_per_site = backend.visits();
  report.eq_system_entries = eq_system_entries;
  for (const auto& [tag, bytes] : traffic.bytes_by_tag()) {
    report.stats.counters["net." + tag + ".bytes"] = bytes;
  }
  for (const auto& [tag, messages] : traffic.messages_by_tag()) {
    report.stats.counters["net." + tag + ".messages"] = messages;
  }
  backend.AddBackendStats(&report.stats);
  report.stats.counters["formula.interned_nodes"] =
      session_->factory().total_nodes();
  return report;
}

}  // namespace parbox::core
