#include "core/engine.h"

namespace parbox::core {

Engine::Engine(Session* session, const xpath::NormQuery& q,
               uint64_t query_bytes, std::shared_ptr<const SitePlan> plan)
    : session_(session),
      q_(&q),
      plan_(std::move(plan)),
      coordinator_(session->coordinator()),
      query_bytes_(query_bytes) {}

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
  backend.AddBackendStats(&report.stats);
  report.stats.counters["formula.interned_nodes"] =
      session_->factory().total_nodes();
  return report;
}

}  // namespace parbox::core
