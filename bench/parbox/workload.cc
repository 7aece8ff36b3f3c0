#include "workload.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "fragment/strategies.h"
#include "xmark/generator.h"
#include "xml/writer.h"

namespace parbox_bench {

namespace {

// Sized on a 4-CPU host. hot_read runs far below the cache-hit
// capacity (~90k q/s). cold_read and proc_read run at a sixth or less
// of their closed-loop capacity: a shared host that slows to half
// speed for minutes still leaves them short of the open-loop knee,
// where queueing would turn the slowdown into a several-fold latency
// swing. That still gives >= 1000 read samples in 15 s.
// read_write's deltas keep the coordinator about a sixth busy with
// cache maintenance: a busier coordinator would make the share of
// reads queued behind a delta, and so the median read, follow the
// host's speed several times over.
const std::vector<WorkloadSpec> kWorkloads = {
    {"hot_read", "threads:3", 2u << 20, true, 5000.0, 0.0, 80000.0, 1.0},
    {"cold_read", "threads:3", 1u << 20, false, 75.0, 0.0, 500.0, 25.0},
    {"read_write", "threads:3", 512u << 10, true, 2000.0, 10.0, 60000.0, 25.0},
    {"proc_read", "proc:3", 512u << 10, false, 80.0, 0.0, 400.0, 25.0},
};

/// Descendant chains of 4..11 steps. The first four follow real paths
/// of the star corpus (the nested sites hang off the root site's
/// <history>, and the root itself is no `//site` match); the longer
/// ones match nowhere, since no path below the root is 8 steps deep.
constexpr std::array<const char*, 8> kChains = {
    "//regions/africa/item/description",
    "//regions/europe/item/description/parlist",
    "//history/site/people/person/profile/interest",
    "//history/site/regions/asia/item/description/parlist",
    "//history/site/regions/namerica/item/description/parlist/parlist",
    "//history/site/history/site/regions/africa/item/description/parlist",
    "//site/regions/africa/item/description/parlist/name/quantity/location/"
    "payment",
    "//regions/africa/item/description/parlist/name/quantity/location/"
    "payment/shipping/profile",
};

/// Sub-seed `stream` of `seed` (splitmix64 finalizer), so the corpus,
/// the queries, the deltas and the arrival gaps draw independently.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string Money(Rng* rng) {
  return "$" + std::to_string(rng->UniformInt(1, 999));
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string MakeCorpusText(uint64_t total_bytes, uint64_t seed) {
  std::vector<std::vector<int>> topology(kFragments);
  for (int i = 1; i < kFragments; ++i) topology[0].push_back(i);
  const std::vector<uint64_t> sizes(kFragments, total_bytes / kFragments);
  const xml::Document doc =
      xmark::GenerateTreeDocument(topology, sizes, SubSeed(seed, 1));
  return xml::WriteXml(doc.root());
}

Result<Deployment> Fragment(xml::Document doc) {
  PARBOX_ASSIGN_OR_RETURN(frag::FragmentSet set,
                          frag::FragmentSet::FromDocument(std::move(doc)));
  PARBOX_RETURN_IF_ERROR(frag::SplitAtAllLabeled(&set, "site").status());
  PARBOX_ASSIGN_OR_RETURN(
      frag::SourceTree st,
      frag::SourceTree::Create(set, frag::AssignOneSitePerFragment(set)));
  return Deployment{std::move(set), std::move(st)};
}

// ---- Queries ------------------------------------------------------------

QuerySource::QuerySource(const WorkloadSpec& spec, uint64_t seed)
    : rng_(SubSeed(seed, 2)) {
  if (!spec.portfolio) return;
  // Family f, variant 0: the bare chain. Variants 1..7 conjoin a
  // marker test; markers m0..m7 exist, m8 and m9 do not, so answers
  // mix and a delta that retexts a marker flips some of them.
  //
  // Popularity is fixed, not seeded: rank r is family r % 8, variant
  // r / 8, so every chain length has popular members and the cost of
  // the popularity-weighted mix is the same for every seed.
  portfolio_.resize(kChains.size() * 8);
  for (size_t f = 0; f < kChains.size(); ++f) {
    const std::string chain = kChains[f];
    for (size_t v = 0; v < 8; ++v) {
      portfolio_[v * kChains.size() + f] =
          v == 0 ? "[" + chain + "]"
                 : "[" + chain + " and //marker = \"m" +
                       std::to_string((f + v) % 10) + "\"]";
    }
  }
  double total = 0.0;
  for (size_t r = 0; r < portfolio_.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

std::string QuerySource::Next() {
  if (portfolio_.empty()) return NextDistinct();
  const double u = rng_.UniformDouble();
  const size_t r = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  return portfolio_[std::min(r, portfolio_.size() - 1)];
}

std::string QuerySource::NextDistinct() {
  // A region's items conjoined with a price test: ~18k distinct texts,
  // so the 4096-entry result cache never sees a repeat, and about two
  // answers in five are true.
  constexpr std::array<const char*, 6> kRegions = {
      "africa", "asia", "australia", "europe", "namerica", "samerica"};
  for (;;) {
    std::string text = "[//regions/";
    text += kRegions[rng_.Uniform(kRegions.size())];
    text += "/item and ";
    switch (rng_.Uniform(3)) {
      case 0:
        text += "//open_auction[initial = \"" + Money(&rng_) + "\"]]";
        break;
      case 1:
        text += "//closed_auction[price = \"" + Money(&rng_) + "\"]]";
        break;
      default:
        text += "not(//open_auction[current = \"" + Money(&rng_) + "\"])]";
        break;
    }
    if (sent_.insert(text).second) return text;
  }
}

std::vector<Conjunct> Conjuncts(std::string_view text) {
  std::string_view body = text.substr(1, text.size() - 2);  // "[...]"
  const size_t split = body.find(" and ");
  if (split == std::string_view::npos) return {{std::string(text), false}};
  std::vector<Conjunct> out = {
      {"[" + std::string(body.substr(0, split)) + "]", false}};
  std::string_view rest = body.substr(split + 5);
  if (rest.substr(0, 4) == "not(" && rest.back() == ')') {
    out.push_back({"[" + std::string(rest.substr(4, rest.size() - 5)) + "]",
                   true});
  } else {
    out.push_back({"[" + std::string(rest) + "]", false});
  }
  return out;
}

// ---- Deltas -------------------------------------------------------------

DeltaSpec DeltaSource::Next() {
  DeltaSpec spec;
  spec.fragment = static_cast<int>(rng_.Uniform(kFragments));
  const double roll = rng_.UniformDouble();
  if (roll < 0.3) {
    spec.op = DeltaSpec::Op::kRetextMarker;
    spec.text = "m" + std::to_string(rng_.Uniform(10));
  } else if (roll < 0.5) {
    spec.op = DeltaSpec::Op::kToggleMarker;
  } else {
    spec.op = DeltaSpec::Op::kInsertParlist;
    spec.pick = rng_.Next64();
    spec.text = "added " + std::to_string(rng_.Uniform(1000));
  }
  return spec;
}

DeltaTargets::DeltaTargets(const frag::FragmentSet& set) {
  fragments_.resize(kFragments);
  for (frag::FragmentId f : set.live_ids()) {
    if (f < 0 || f >= kFragments) continue;
    PerFragment& pf = fragments_[static_cast<size_t>(f)];
    // Walk the fragment only: virtual nodes are leaves, so the walk
    // never enters a sub-fragment.
    std::vector<xml::Node*> stack = {set.fragment(f).root};
    while (!stack.empty()) {
      xml::Node* n = stack.back();
      stack.pop_back();
      if (!n->is_element()) continue;
      if (pf.marker == nullptr && n->label() == "marker") pf.marker = n;
      if (n->label() == "description") pf.descriptions.push_back(n);
      for (xml::Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
        stack.push_back(c);
      }
    }
  }
}

frag::Delta DeltaTargets::Resolve(const DeltaSpec& spec) {
  PerFragment& pf = fragments_[static_cast<size_t>(spec.fragment)];
  switch (spec.op) {
    case DeltaSpec::Op::kRetextMarker:
      return frag::Delta::Retext(spec.fragment, pf.marker, spec.text);
    case DeltaSpec::Op::kToggleMarker:
      pf.marker_on = !pf.marker_on;
      return frag::Delta::RenameLabel(spec.fragment, pf.marker,
                                      pf.marker_on ? "marker" : "retired");
    case DeltaSpec::Op::kInsertParlist:
      break;
  }
  xml::Node* parent = pf.descriptions.empty()
                          ? pf.marker
                          : pf.descriptions[spec.pick %
                                            pf.descriptions.size()];
  return frag::Delta::InsertSubtree(spec.fragment, parent, "parlist",
                                    spec.text);
}

// ---- Arrivals -----------------------------------------------------------

ArrivalSchedule::ArrivalSchedule(const WorkloadSpec& spec, uint64_t seed,
                                 double read_rate, double delta_rate)
    : rng_(SubSeed(seed, 3)),
      queries_(spec, seed),
      deltas_(SubSeed(seed, 4)),
      read_rate_(read_rate),
      delta_rate_(delta_rate) {
  next_read_ = Gap(read_rate_);
  next_delta_ = delta_rate_ > 0.0 ? rng_.UniformDouble() / delta_rate_
                                  : kNever;
}

double ArrivalSchedule::Gap(double rate) {
  if (rate <= 0.0) return kNever;
  return -std::log(1.0 - rng_.UniformDouble()) / rate;
}

bool ArrivalSchedule::Next(double end, Arrival* out) {
  const bool read = next_read_ <= next_delta_;
  const double at = read ? next_read_ : next_delta_;
  if (!(at < end)) return false;
  out->at = at;
  out->is_delta = !read;
  clock_ = at;
  if (read) {
    out->text = queries_.Next();
    next_read_ += Gap(read_rate_);
  } else {
    out->delta = deltas_.Next();
    next_delta_ += 1.0 / delta_rate_;
  }
  return true;
}

}  // namespace parbox_bench
