#include "exec/backend.h"

#include <algorithm>
#include <cstdlib>

namespace parbox::exec {

Result<SiteId> ExecBackend::AddNamespace(int num_sites, SiteId coordinator,
                                         bexpr::ExprFactory* coordinator_factory) {
  if (num_sites < 1) {
    return Status::InvalidArgument("namespace needs at least one site");
  }
  if (coordinator < 0 || coordinator >= num_sites) {
    return Status::InvalidArgument(
        "namespace coordinator outside [0, num_sites)");
  }
  if (coordinator_factory == nullptr) {
    return Status::InvalidArgument("namespace needs a coordinator factory");
  }
  OnAddSites(num_sites);
  const auto base = static_cast<SiteId>(sites_.size());
  for (SiteId s = 0; s < num_sites; ++s) {
    sites_.emplace_back(coordinator_factory, s == coordinator);
  }
  if (coordinator_ < 0) coordinator_ = base + coordinator;
  return base;
}

void ExecBackend::ResetVisits() {
  for (Site& site : sites_) site.visits.store(0, std::memory_order_relaxed);
}

ExecBackendRegistry& ExecBackendRegistry::Instance() {
  static ExecBackendRegistry* registry = new ExecBackendRegistry();
  return *registry;
}

void ExecBackendRegistry::Register(int order, std::string name,
                                   std::string grammar, Factory factory) {
  Entry entry{std::move(name), std::move(grammar), order, factory};
  auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), entry,
      [](const Entry& a, const Entry& b) {
        return std::tie(a.order, a.name) < std::tie(b.order, b.name);
      });
  entries_.insert(pos, std::move(entry));
}

std::vector<std::string> ExecBackendRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

std::string ExecBackendRegistry::NamesJoined(char sep) const {
  std::string joined;
  for (const Entry& e : entries_) {
    if (!joined.empty()) joined += sep;
    joined += e.name;
  }
  return joined;
}

Result<std::unique_ptr<ExecBackend>> ExecBackendRegistry::CreateOrError(
    std::string_view spec, const sim::NetworkParams& network) const {
  std::string_view name = spec;
  std::string_view arg;
  if (const size_t colon = spec.find(':'); colon != std::string_view::npos) {
    name = spec.substr(0, colon);
    arg = spec.substr(colon + 1);
  }
  for (const Entry& e : entries_) {
    if (e.name == name) return e.factory(network, arg);
  }
  return Status::InvalidArgument("unknown execution backend \"" +
                                 std::string(spec) + "\"; registered: " +
                                 NamesJoined());
}

std::string ExecBackendRegistry::Grammar(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.grammar;
  }
  return std::string(name);
}

ExecBackendRegistry::Registrar::Registrar(int order, std::string name,
                                          std::string grammar,
                                          Factory factory) {
  ExecBackendRegistry::Instance().Register(order, std::move(name),
                                           std::move(grammar), factory);
}

std::string DefaultBackendSpec() {
  if (const char* spec = std::getenv("PARBOX_BACKEND");
      spec != nullptr && spec[0] != '\0') {
    return spec;
  }
  return "sim";
}

}  // namespace parbox::exec
