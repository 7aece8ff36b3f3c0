#include "core/retained.h"

namespace parbox::core {

void RetainedSystem::Reset(size_t table_size) {
  table_.clear();
  table_.resize(table_size);
  answer_ = false;
}

void RetainedSystem::Resize(size_t table_size) { table_.resize(table_size); }

bool RetainedSystem::Splice(bexpr::FragmentEquations fresh) {
  if (fresh.fragment < 0 ||
      static_cast<size_t>(fresh.fragment) >= table_.size()) {
    return true;
  }
  bexpr::FragmentEquations& held = table_[static_cast<size_t>(fresh.fragment)];
  const bool same = held.fragment == fresh.fragment && held.v == fresh.v &&
                    held.cv == fresh.cv && held.dv == fresh.dv;
  if (!same) held = std::move(fresh);
  return !same;
}

bool RetainedSystem::Covers(const frag::FragmentSet& set,
                            size_t width) const {
  if (table_.size() != set.table_size()) return false;
  for (size_t g = 0; g < table_.size(); ++g) {
    const auto id = static_cast<frag::FragmentId>(g);
    if (set.is_live(id) &&
        (table_[g].fragment != id || table_[g].v.size() < width)) {
      return false;
    }
  }
  return true;
}

RetainedSystem RetainedSystem::TruncateTo(size_t width) const {
  RetainedSystem prefix;
  prefix.table_.resize(table_.size());
  for (size_t g = 0; g < table_.size(); ++g) {
    const bexpr::FragmentEquations& src = table_[g];
    if (src.fragment < 0 || src.v.size() < width) continue;
    const auto end = static_cast<std::ptrdiff_t>(width);
    bexpr::FragmentEquations& dst = prefix.table_[g];
    dst.fragment = src.fragment;
    dst.v.assign(src.v.begin(), src.v.begin() + end);
    dst.cv.assign(src.cv.begin(), src.cv.begin() + end);
    dst.dv.assign(src.dv.begin(), src.dv.begin() + end);
  }
  return prefix;
}

Result<bool> RetainedSystem::Resolve(
    bexpr::ExprFactory* factory,
    const std::vector<std::vector<int32_t>>& children,
    frag::FragmentId root_fragment, xpath::SubQueryId root) {
  PARBOX_ASSIGN_OR_RETURN(
      bool answer,
      bexpr::SolveForAnswer(factory, table_, children, root_fragment, root));
  answer_ = answer;
  return answer;
}

}  // namespace parbox::core
