#include "catalog/catalog.h"

namespace parbox::catalog {

Result<frag::SiteId> Document::Move(frag::FragmentId f,
                                    frag::SiteId site) {
  const frag::SiteId from =
      set_.is_live(f) && static_cast<size_t>(f) <
                             placement_.site_table().size()
          ? placement_.site_of(f)
          : -1;
  // Move-then-snapshot on a scratch copy, committed only whole: a
  // snapshot failure (e.g. a fragment split off with no site yet)
  // must not leave the placement mutated but unpublished — subscribers
  // would silently miss f's relocation forever.
  frag::Placement moved = placement_;
  PARBOX_RETURN_IF_ERROR(moved.Move(set_, f, site));
  if (from == site) return from;  // no-op move: nothing to publish
  PARBOX_ASSIGN_OR_RETURN(frag::SourceTree snapshot, moved.Snapshot(set_));
  placement_ = std::move(moved);
  feed_->Publish(
      std::make_shared<const frag::SourceTree>(std::move(snapshot)), {f});
  return from;
}

Result<std::unique_ptr<core::Session>> Document::OpenSession() {
  core::SessionOptions options;
  options.network = catalog_->options().network;
  options.host = catalog_->host();
  auto session = std::make_unique<core::Session>(
      &set_, feed_->snapshot().get(), options);
  PARBOX_RETURN_IF_ERROR(session->backend_status());
  session->FollowPlacement(feed_);
  return session;
}

Result<std::unique_ptr<Catalog>> Catalog::Create(
    const CatalogOptions& options) {
  PARBOX_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::BackendHost> host,
      exec::BackendHost::Create(options.backend, options.network));
  auto catalog = std::unique_ptr<Catalog>(new Catalog());
  catalog->options_ = options;
  catalog->host_ = std::move(host);
  return catalog;
}

Result<Document*> Catalog::Open(std::string name, frag::FragmentSet set,
                                frag::Placement placement) {
  if (documents_.count(name) > 0) {
    return Status::InvalidArgument("document \"" + name +
                                   "\" is already open");
  }
  if (placement.site_table().size() < set.table_size()) {
    return Status::InvalidArgument(
        "placement does not cover the fragment table of \"" + name + "\"");
  }
  PARBOX_ASSIGN_OR_RETURN(frag::SourceTree snapshot,
                          placement.Snapshot(set));
  auto doc = std::unique_ptr<Document>(new Document(
      name, std::move(set), std::move(placement), this));
  doc->feed_->Publish(
      std::make_shared<const frag::SourceTree>(std::move(snapshot)), {});
  Document* out = doc.get();
  documents_.emplace(std::move(name), std::move(doc));
  return out;
}

Status Catalog::Close(std::string_view name) {
  auto it = documents_.find(name);
  if (it == documents_.end()) {
    return Status::NotFound("document \"" + std::string(name) +
                            "\" is not open");
  }
  documents_.erase(it);
  return Status::OK();
}

Document* Catalog::Find(std::string_view name) {
  auto it = documents_.find(name);
  return it == documents_.end() ? nullptr : it->second.get();
}

const Document* Catalog::Find(std::string_view name) const {
  auto it = documents_.find(name);
  return it == documents_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::names() const {
  std::vector<std::string> out;
  out.reserve(documents_.size());
  for (const auto& [name, doc] : documents_) out.push_back(name);
  return out;
}

}  // namespace parbox::catalog
