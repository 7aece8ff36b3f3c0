// X5 (extension bench, Sec. 8): data-selection XPath — the two-pass
// up/down algorithm with the visit-at-most-twice guarantee.
//
// Sweeps fragment counts at constant corpus size and reports elapsed
// time, traffic split (triplets up vs contexts down vs result ids),
// and the measured visit bound. Selection time should track the
// Boolean ParBoX curve (the down pass re-traverses only fragments a
// match crosses).

#include "bench_common.h"

#include "core/path_selection.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("X5", "path selection: //item[payment = \"Creditcard\"]",
              config);

  std::printf("%-10s %-12s %-12s %-10s %-14s %-12s\n", "machines",
              "select (s)", "parbox (s)", "selected", "traffic(B)",
              "max-visits");
  for (int machines = 2; machines <= 10; machines += 2) {
    Deployment d = MakeStar(machines, config.total_bytes, config.seed);
    auto selection =
        xpath::CompileSelection("//item[payment = \"Creditcard\"]");
    Check(selection.status());
    core::Session session = OpenSession(d);
    auto result = core::RunPathSelection(session, *selection);
    Check(result.status());
    // Boolean baseline over the same compiled query.
    core::PreparedQuery prepared =
        PrepareQuery(&session, &selection->query);
    core::RunReport boolean = Exec(&session, prepared);
    std::printf("%-10d %-12.4f %-12.4f %-10zu %-14llu %-12llu\n",
                machines, result->report.makespan_seconds,
                boolean.makespan_seconds, result->total_selected,
                static_cast<unsigned long long>(
                    result->report.network_bytes),
                static_cast<unsigned long long>(
                    result->report.max_visits_per_site()));
  }
  std::printf("\nshape check: selection stays within ~2x of Boolean "
              "ParBoX; max-visits never exceeds 2.\n");
  return 0;
}
