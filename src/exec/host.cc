#include "exec/host.h"

namespace parbox::exec {

Result<std::unique_ptr<BackendHost>> BackendHost::Create(
    std::string_view spec, const sim::NetworkParams& network) {
  PARBOX_ASSIGN_OR_RETURN(
      std::unique_ptr<ExecBackend> backend,
      ExecBackendRegistry::Instance().CreateOrError(spec, network));
  auto host = std::unique_ptr<BackendHost>(new BackendHost());
  host->spec_ = std::string(spec);
  host->backend_ = std::move(backend);
  return host;
}

Result<std::unique_ptr<ExecBackend>> BackendHost::OpenNamespace(
    int num_sites, SiteId coordinator,
    bexpr::ExprFactory* coordinator_factory) {
  PARBOX_ASSIGN_OR_RETURN(
      SiteId base,
      backend_->AddNamespace(num_sites, coordinator, coordinator_factory));
  const std::string prefix = "d" + std::to_string(next_namespace_++) + ".";
  return std::unique_ptr<ExecBackend>(
      new NamespaceBackend(backend_.get(), base, num_sites, coordinator,
                           coordinator_factory, prefix));
}

NamespaceBackend::NamespaceBackend(ExecBackend* shared, SiteId base,
                                   int num_sites, SiteId coordinator,
                                   bexpr::ExprFactory* factory,
                                   std::string prefix)
    : shared_(shared), base_(base), prefix_(std::move(prefix)) {
  // The view's own site table, in local ids; the substrate has
  // already accepted these arguments, so this cannot fail.
  (void)AddNamespace(num_sites, coordinator, factory);
  CaptureBaseline();
}

void NamespaceBackend::Send(SiteId from, SiteId to, Parcel parcel,
                            std::string_view tag, DeliverFn deliver) {
  // The namespace prefix makes this view's share of the substrate's
  // merged traffic exactly separable; traffic() strips it again.
  std::string prefixed = prefix_;
  prefixed += tag;
  shared_->Send(base_ + from, base_ + to, std::move(parcel), prefixed,
                std::move(deliver));
}

void NamespaceBackend::CaptureBaseline() {
  clock_base_ = shared_->now();
  baseline_busy_ = shared_->total_busy_seconds();
  baseline_into_.assign(static_cast<size_t>(num_sites()), 0);
  const sim::TrafficStats& t = shared_->traffic();
  for (int s = 0; s < num_sites(); ++s) {
    baseline_into_[static_cast<size_t>(s)] = t.bytes_into(base_ + s);
  }
  baseline_tags_.clear();
  for (size_t i = 0; i < t.tag_count(); ++i) {
    const std::string_view tag = t.tag_name(i);
    if (tag.substr(0, prefix_.size()) != prefix_) continue;
    baseline_tags_[std::string(tag)] = {t.tag_bytes(i), t.tag_messages(i)};
  }
}

const sim::TrafficStats& NamespaceBackend::traffic() const {
  scoped_.Reset();
  const sim::TrafficStats& t = shared_->traffic();
  for (size_t i = 0; i < t.tag_count(); ++i) {
    const std::string_view tag = t.tag_name(i);
    if (tag.substr(0, prefix_.size()) != prefix_) continue;
    uint64_t base_bytes = 0;
    uint64_t base_msgs = 0;
    if (auto it = baseline_tags_.find(tag); it != baseline_tags_.end()) {
      base_bytes = it->second.first;
      base_msgs = it->second.second;
    }
    const uint64_t bytes = t.tag_bytes(i) - base_bytes;
    const uint64_t messages = t.tag_messages(i) - base_msgs;
    // Skip all-baseline tags: a dedicated backend's Reset forgets its
    // tag registry, so the scoped view must not report phantom
    // zero-count tags from before the local rewind.
    if (bytes == 0 && messages == 0) continue;
    scoped_.AddTagCounts(tag.substr(prefix_.size()), bytes, messages);
  }
  for (int s = 0; s < num_sites(); ++s) {
    const uint64_t into = t.bytes_into(base_ + s) -
                          baseline_into_[static_cast<size_t>(s)];
    if (into > 0) scoped_.AddBytesInto(s, into);
  }
  return scoped_;
}

}  // namespace parbox::exec
