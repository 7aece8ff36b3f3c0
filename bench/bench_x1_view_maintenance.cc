// X1 (extension bench, Sec. 5): incremental view maintenance vs
// recomputation from scratch.
//
// The paper claims (a) maintenance is localized to the updated
// fragment's site and (b) its traffic depends on neither |T| nor the
// update size. We sweep update batch sizes on one fragment of a star
// deployment and compare the incremental refresh against a full
// ParBoX re-evaluation. Exits 1 unless every refresh visits exactly
// one site and sends the same bytes at every batch size.

#include "bench_common.h"

#include "core/view.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("X1", "incremental view maintenance vs full re-evaluation",
              config);

  Deployment d = MakeStar(8, config.total_bytes, config.seed);
  auto q = xpath::CompileQuery("[//item[payment = \"Creditcard\"] and "
                               "//person[creditcard]]");
  Check(q.status());

  std::vector<frag::SiteId> sites(d.set.table_size());
  for (size_t i = 0; i < sites.size(); ++i) {
    sites[i] = d.st.site_of(static_cast<frag::FragmentId>(i));
  }
  auto view_result = core::MaterializedView::Create(&d.set, sites, &*q);
  Check(view_result.status());
  core::MaterializedView view = std::move(*view_result);

  // Full re-evaluation baseline, through a prepared session.
  core::Session session = OpenSession(d);
  core::PreparedQuery prepared = PrepareQuery(&session, &*q);
  core::RunReport full = Exec(&session, prepared);
  std::printf("full ParBoX re-evaluation: elapsed %.4f s, total compute "
              "%.4f s, %llu B, %llu visits\n\n",
              full.makespan_seconds, full.total_compute_seconds,
              static_cast<unsigned long long>(full.network_bytes),
              static_cast<unsigned long long>(full.total_visits()));

  const frag::FragmentId target = d.set.live_ids().back();
  std::printf("%-14s %-14s %-16s %-12s %-10s %-20s\n", "batch-size",
              "refresh (s)", "refresh T (s)", "traffic(B)", "visits",
              "compute vs full");
  bool shape_holds = true;
  uint64_t first_bytes = 0;
  for (int batch : {1, 4, 16, 64, 256, 1024}) {
    xml::Node* root = d.set.fragment(target).root;
    for (int i = 0; i < batch; ++i) {
      Check(view.Apply(frag::Delta::InsertSubtree(target, root, "audit",
                                                  "entry"))
                .status());
    }
    auto report = view.Refresh(target);
    Check(report.status());
    if (batch == 1) first_bytes = report->network_bytes;
    shape_holds = shape_holds && report->total_visits() == 1 &&
                  report->network_bytes == first_bytes;
    std::printf("%-14d %-14.4f %-16.4f %-12llu %-10llu %.1fx less\n",
                batch, report->makespan_seconds,
                report->total_compute_seconds,
                static_cast<unsigned long long>(report->network_bytes),
                static_cast<unsigned long long>(report->total_visits()),
                full.total_compute_seconds /
                    report->total_compute_seconds);
  }
  std::printf("\nshape check: refresh traffic and visits are constant "
              "across batch sizes (claims (a) and (b) of Sec. 5): %s. The "
              "incremental total computation stays ~1/card(F) of a full "
              "re-evaluation, which also wins on elapsed time only when "
              "sites are contended.\n",
              shape_holds ? "PASS" : "FAIL");
  return shape_holds ? 0 : 1;
}
