// parboxq — command-line distributed Boolean XPath evaluation.
//
//   parboxq --query='[//stock[code = "GOOG"]]' portfolio.xml
//   parboxq --query='[//a]' --split-label=site --algo=all doc.xml
//   cat doc.xml | parboxq --query='[//a]' --splits=8 --sites=4 -
//   parboxq --query='[//a]' --serve --splits=8 a.xml b.xml c.xml
//   parboxq --list
//
// Loads an XML document, fragments it (either at every element with a
// given label, or with N random splits), distributes the fragments
// over simulated sites, opens a core::Session, prepares the query
// once, and executes it with the chosen evaluator(s), printing answers
// and cost profiles. Evaluator names come straight from the
// EvaluatorRegistry — a newly registered algorithm shows up here with
// no tool changes.
//
// With --serve and SEVERAL input files, the tool opens a catalog: one
// shared execution substrate (--backend), one document per file, all
// served concurrently by a service::CatalogService, with per-document
// and aggregate metrics printed.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "core/evaluator.h"
#include "core/path_selection.h"
#include "core/selection.h"
#include "core/session.h"
#include "exec/backend.h"
#include "fragment/placement.h"
#include "fragment/strategies.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "service/catalog_service.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/normalize.h"

namespace {

using namespace parbox;

struct CliOptions {
  std::string query;
  std::vector<std::string> input_paths;
  std::string split_label;
  bool list = false;
  int random_splits = 0;
  int sites = 0;  // 0 = one site per fragment
  std::string algorithm = "parbox";
  std::string backend = exec::DefaultBackendSpec();
  uint64_t seed = 42;
  bool select = false;
  bool select_path = false;
  bool show_fragments = false;
  bool serve = false;
  int serve_queries = 64;
  int serve_clients = 8;
  double serve_think_ms = 0.0;
  std::string trace_path;  ///< --trace=FILE: Chrome trace JSON out
  bool statz = false;      ///< dump the metrics registry after the run
  double stats_interval = 1.0;  ///< --serve periodic line cadence
  /// --fair-share: catalog-wide DWRR admission across documents.
  bool fair_share = false;
  /// --fair-slots=N: global concurrent-round cap under fair share.
  size_t fair_slots = 4;
  /// --tenant=NAME:weight=W[,cap=C], repeatable (implies --fair-share).
  std::vector<std::pair<std::string, service::TenantConfig>> tenants;
};

/// Parse one --tenant=NAME:weight=W[,cap=C] spec. NAME is an input
/// path or the positional alias d<index> (d0 = first FILE).
Result<std::pair<std::string, service::TenantConfig>> ParseTenantSpec(
    const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument(
        "--tenant wants NAME:weight=W[,cap=C], got \"" + spec + "\"");
  }
  std::pair<std::string, service::TenantConfig> out;
  out.first = spec.substr(0, colon);
  std::stringstream rest(spec.substr(colon + 1));
  std::string kv;
  while (std::getline(rest, kv, ',')) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          "--tenant option \"" + kv + "\" wants key=value");
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "weight") {
      out.second.weight = std::atof(val.c_str());
    } else if (key == "cap") {
      out.second.max_in_flight =
          static_cast<size_t>(std::strtoull(val.c_str(), nullptr, 10));
    } else {
      return Status::InvalidArgument(
          "unknown --tenant key \"" + key + "\" (weight, cap)");
    }
  }
  PARBOX_RETURN_IF_ERROR(service::ValidateTenantConfig(out.second));
  return out;
}

int Usage(const char* argv0) {
  const std::string algos =
      core::EvaluatorRegistry::Instance().NamesJoined('|');
  const std::string backends =
      exec::ExecBackendRegistry::Instance().NamesJoined('|');
  std::fprintf(
      stderr,
      "usage: %s --query=QUERY [options] FILE...|-\n"
      "       %s --list\n"
      "\n"
      "options:\n"
      "  --list              print registered evaluators and backends\n"
      "                      to stdout and exit 0 (script-friendly)\n"
      "  --query=Q           Boolean XPath (XBL) query, e.g. '[//a[b]]'\n"
      "  --split-label=L     fragment at every element labelled L\n"
      "  --splits=N          N random splits (default: 0, one fragment)\n"
      "  --sites=N           round-robin fragments over N sites\n"
      "                      (default: one site per fragment)\n"
      "  --algo=A            registered evaluator, or all\n"
      "                      (registered: %s; default: parbox;\n"
      "                      --algorithm= is accepted as an alias)\n"
      "  --backend=B         execution substrate, e.g. sim, threads:8,\n"
      "                      or proc:4 — site daemons over sockets\n"
      "                      (registered: %s; default: sim;\n"
      "                      --serve honors it too)\n"
      "  --select            treat the query as a node predicate and\n"
      "                      list matching elements\n"
      "  --select-path       treat the query as a path and list the\n"
      "                      nodes it selects (Sec. 8 extension)\n"
      "  --show-fragments    dump each fragment before evaluating\n"
      "  --seed=N            RNG seed for --splits (default: 42)\n"
      "  --serve             run a QueryService: serve the query as a\n"
      "                      closed-loop stream (batched, cached) and\n"
      "                      print service-level metrics; with several\n"
      "                      FILEs, serve them all as one catalog on a\n"
      "                      shared backend (per-doc + aggregate stats)\n"
      "  --serve-queries=N   total queries to serve, per document\n"
      "                      (default: 64)\n"
      "  --serve-clients=N   concurrent clients (default: 8)\n"
      "  --serve-think-ms=T  per-client think time (default: 0)\n"
      "  --trace=FILE        trace every query; write Chrome\n"
      "                      trace_event JSON to FILE (load it in\n"
      "                      chrome://tracing or ui.perfetto.dev) and\n"
      "                      print the first query's span breakdown\n"
      "  --statz             dump the metrics registry (counters,\n"
      "                      gauges, histograms) after the run\n"
      "  --stats-interval=S  cadence of --serve's periodic one-line\n"
      "                      stats summaries (default: 1s of the\n"
      "                      backend clock)\n"
      "  --fair-share        catalog mode: admit rounds through the\n"
      "                      weighted fair-share scheduler (DWRR\n"
      "                      across documents) instead of FIFO\n"
      "  --fair-slots=N      global concurrent-round cap under\n"
      "                      --fair-share (default: 4)\n"
      "  --tenant=SPEC       per-document weight/cap, repeatable;\n"
      "                      SPEC = NAME:weight=W[,cap=C] where NAME\n"
      "                      is a FILE path or d<index> (d0 = first\n"
      "                      FILE). Implies --fair-share.\n",
      argv0, argv0, algos.c_str(), backends.c_str());
  std::fprintf(stderr, "\nregistered evaluators:\n");
  for (const std::string& name :
       core::EvaluatorRegistry::Instance().Names()) {
    auto evaluator = core::EvaluatorRegistry::Instance().Create(name);
    std::fprintf(stderr, "  %-12s %s\n", name.c_str(),
                 std::string(evaluator->description()).c_str());
  }
  return 2;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "parboxq: %s\n", status.ToString().c_str());
  return 1;
}

/// --list: the registries, on STDOUT, exit 0 — so scripts stop
/// scraping the usage error text for the names.
int ListRegistries() {
  std::printf("evaluators:\n");
  for (const std::string& name :
       core::EvaluatorRegistry::Instance().Names()) {
    auto evaluator = core::EvaluatorRegistry::Instance().Create(name);
    std::printf("  %-12s %s\n", name.c_str(),
                std::string(evaluator->description()).c_str());
  }
  std::printf("backends:\n");
  for (const std::string& name :
       exec::ExecBackendRegistry::Instance().Names()) {
    std::printf(
        "  %s\n",
        exec::ExecBackendRegistry::Instance().Grammar(name).c_str());
  }
  return 0;
}

/// Write the collected trace and show the first query's breakdown.
int DumpTrace(const obs::Tracer& tracer, const std::string& path) {
  Status written = tracer.WriteChromeJson(path);
  if (!written.ok()) return Fail(written);
  std::printf("\ntrace: %zu events -> %s", tracer.event_count(),
              path.c_str());
  if (tracer.dropped() > 0) {
    std::printf("  (%llu dropped at the event cap)",
                static_cast<unsigned long long>(tracer.dropped()));
  }
  std::printf("\n");
  const std::string breakdown = tracer.Breakdown(1);
  if (!breakdown.empty()) {
    std::printf("first query breakdown:\n%s", breakdown.c_str());
  }
  return 0;
}

/// Build the stdout-printing sink used by --serve.
obs::StatsSink MakeServeSink(double interval_seconds) {
  obs::StatsSinkOptions sink_options;
  sink_options.interval_seconds = interval_seconds;
  sink_options.write = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
  };
  return obs::StatsSink(sink_options);
}

/// A loaded input: the fragmented document plus its (mutable) h.
struct LoadedDoc {
  frag::FragmentSet set;
  frag::Placement placement;
};

Result<std::string> ReadInput(const std::string& path) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Parse + fragment + place one input per the CLI flags.
Result<LoadedDoc> LoadDoc(const CliOptions& options,
                          const std::string& path) {
  PARBOX_ASSIGN_OR_RETURN(std::string xml_text, ReadInput(path));
  PARBOX_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseXml(xml_text));
  PARBOX_ASSIGN_OR_RETURN(frag::FragmentSet set,
                          frag::FragmentSet::FromDocument(std::move(doc)));
  if (!options.split_label.empty()) {
    PARBOX_RETURN_IF_ERROR(
        frag::SplitAtAllLabeled(&set, options.split_label).status());
  }
  if (options.random_splits > 0) {
    Rng rng(options.seed);
    PARBOX_RETURN_IF_ERROR(
        frag::RandomSplits(&set, options.random_splits, &rng).status());
  }
  PARBOX_ASSIGN_OR_RETURN(
      frag::Placement placement,
      frag::Placement::Create(
          set, options.sites > 0
                   ? frag::AssignRoundRobin(set, options.sites)
                   : frag::AssignOneSitePerFragment(set)));
  return LoadedDoc{std::move(set), std::move(placement)};
}

/// --serve with several FILEs: one catalog, one shared backend, every
/// file a named document served closed-loop (--serve-queries per
/// document, --serve-clients concurrent streams, --serve-think-ms
/// between a completion and the client's next ask), per-document +
/// aggregate reports.
int ServeCatalog(const CliOptions& options) {
  catalog::CatalogOptions cat_options;
  cat_options.backend = options.backend;
  auto cat = catalog::Catalog::Create(cat_options);
  if (!cat.ok()) return Fail(cat.status());
  for (const std::string& path : options.input_paths) {
    auto loaded = LoadDoc(options, path);
    if (!loaded.ok()) return Fail(loaded.status());
    std::printf("%s: %zu elements, %zu fragments, %d sites\n",
                path.c_str(), loaded->set.TotalElements(),
                loaded->set.live_count(), loaded->placement.num_sites());
    auto opened = (*cat)->Open(path, std::move(loaded->set),
                               std::move(loaded->placement));
    if (!opened.ok()) return Fail(opened.status());
  }
  obs::Tracer tracer;
  obs::StatsSink sink = MakeServeSink(options.stats_interval);
  service::ServiceOptions svc_options;
  if (!options.trace_path.empty()) svc_options.tracer = &tracer;
  svc_options.sink = &sink;
  if (options.fair_share) {
    svc_options.enable_fair_share = true;
    svc_options.fair_share.max_in_flight = options.fair_slots;
  }
  auto svc = service::CatalogService::Create(cat->get(), svc_options);
  if (!svc.ok()) return Fail(svc.status());
  service::CatalogService* service = svc->get();
  for (const auto& [name, config] : options.tenants) {
    // --tenant NAME: an input path verbatim, or the d<index> alias.
    std::string doc = name;
    if (std::find(options.input_paths.begin(), options.input_paths.end(),
                  doc) == options.input_paths.end()) {
      char* end = nullptr;
      const long idx =
          name.size() > 1 && name[0] == 'd'
              ? std::strtol(name.c_str() + 1, &end, 10)
              : -1;
      if (end == nullptr || *end != '\0' || idx < 0 ||
          static_cast<size_t>(idx) >= options.input_paths.size()) {
        return Fail(Status::InvalidArgument(
            "--tenant names unknown document \"" + name +
            "\" (give a FILE path or d<index>)"));
      }
      doc = options.input_paths[static_cast<size_t>(idx)];
    }
    Status configured = service->ConfigureTenant(doc, config);
    if (!configured.ok()) return Fail(configured);
  }

  // Closed loop per document: `serve_clients` concurrent streams, a
  // client re-asking (after think time) only when its previous query
  // completes — the same drive as the single-document --serve path.
  const size_t per_doc =
      static_cast<size_t>(std::max(options.serve_queries, 0));
  const double think = options.serve_think_ms / 1e3;
  auto remaining = std::make_shared<std::vector<size_t>>(
      options.input_paths.size(), per_doc);
  auto failed = std::make_shared<Status>(Status::OK());
  // Each document's first completed answer, for the summary below.
  auto first_answer = std::make_shared<std::vector<std::optional<bool>>>(
      options.input_paths.size());
  auto ask = std::make_shared<std::function<void(size_t, double)>>();
  *ask = [&options, service, remaining, failed, first_answer, ask, think](
             size_t di, double delay) {
    if ((*remaining)[di] == 0 || !failed->ok()) return;
    --(*remaining)[di];
    auto q = xpath::CompileQuery(options.query);
    if (!q.ok()) {
      *failed = q.status();
      return;
    }
    const std::string& doc = options.input_paths[di];
    const double arrival =
        service->document_service(doc)->now() + delay;
    auto id = service->Submit(
        doc, std::move(*q), arrival,
        // A completion is this client asking again, after thinking.
        [first_answer, ask, di, think](const service::QueryOutcome& o) {
          if (!(*first_answer)[di].has_value()) {
            (*first_answer)[di] = o.answer;
          }
          (*ask)(di, think);
        });
    if (!id.ok()) *failed = id.status();
  };
  const int clients = std::max(options.serve_clients, 1);
  for (size_t di = 0; di < options.input_paths.size(); ++di) {
    for (int c = 0; c < clients; ++c) (*ask)(di, /*delay=*/0.0);
  }
  (*svc)->Run();
  *ask = {};  // break the callback's self-reference cycle
  if (!failed->ok()) return Fail(*failed);
  if (!(*svc)->status().ok()) return Fail((*svc)->status());
  obs::MetricsSnapshot statz;
  for (size_t di = 0; di < options.input_paths.size(); ++di) {
    const std::string& path = options.input_paths[di];
    service::QueryService* qs = service->document_service(path);
    qs->FlushStats();
    // Each call injects that document's substrate gauges into the
    // shared registry; the last snapshot carries them all.
    statz = qs->SnapshotMetrics();
    auto report = (*svc)->BuildReport(path);
    if (!report.ok()) return Fail(report.status());
    std::printf("\n--- %s (answer: %s) ---\n%s\n", path.c_str(),
                (*first_answer)[di].value_or(false) ? "true" : "false",
                report->ToString().c_str());
  }
  std::printf("\n=== catalog aggregate (%zu documents, backend %s) ===\n%s\n",
              options.input_paths.size(), options.backend.c_str(),
              (*svc)->BuildAggregateReport().ToString().c_str());
  if (options.statz) std::printf("\n%s", statz.ToString().c_str());
  if (!options.trace_path.empty()) {
    return DumpTrace(tracer, options.trace_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--query", &value)) {
      options.query = value;
    } else if (ParseFlag(argv[i], "--split-label", &value)) {
      options.split_label = value;
    } else if (ParseFlag(argv[i], "--splits", &value)) {
      options.random_splits = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--sites", &value)) {
      options.sites = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--algo", &value) ||
               ParseFlag(argv[i], "--algorithm", &value)) {
      options.algorithm = value;
    } else if (ParseFlag(argv[i], "--backend", &value)) {
      options.backend = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--serve-queries", &value)) {
      options.serve_queries = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--serve-clients", &value)) {
      options.serve_clients = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--serve-think-ms", &value)) {
      options.serve_think_ms = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      options.trace_path = value;
    } else if (ParseFlag(argv[i], "--stats-interval", &value)) {
      options.stats_interval = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--fair-slots", &value)) {
      options.fair_slots =
          static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
      options.fair_share = true;
    } else if (ParseFlag(argv[i], "--tenant", &value)) {
      auto spec = ParseTenantSpec(value);
      if (!spec.ok()) return Fail(spec.status());
      options.tenants.push_back(std::move(*spec));
      options.fair_share = true;
    } else if (std::strcmp(argv[i], "--fair-share") == 0) {
      options.fair_share = true;
    } else if (std::strcmp(argv[i], "--statz") == 0) {
      options.statz = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      options.serve = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      options.list = true;
    } else if (std::strcmp(argv[i], "--select") == 0) {
      options.select = true;
    } else if (std::strcmp(argv[i], "--select-path") == 0) {
      options.select_path = true;
    } else if (std::strcmp(argv[i], "--show-fragments") == 0) {
      options.show_fragments = true;
    } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage(argv[0]);
    } else {
      options.input_paths.emplace_back(argv[i]);
    }
  }
  if (options.list) return ListRegistries();
  if (options.query.empty() || options.input_paths.empty()) {
    return Usage(argv[0]);
  }
  if (options.input_paths.size() > 1) {
    if (!options.serve) {
      return Fail(Status::InvalidArgument(
          "several input files need --serve (catalog mode)"));
    }
    return ServeCatalog(options);
  }
  if (options.fair_share) {
    // Fair-share admission lives in the catalog layer; a one-document
    // catalog keeps --tenant/--fair-slots meaningful instead of
    // silently ignored.
    if (!options.serve) {
      return Fail(Status::InvalidArgument(
          "--fair-share/--tenant need --serve"));
    }
    return ServeCatalog(options);
  }

  // ---- Load + fragment + place (single document) ----
  auto loaded = LoadDoc(options, options.input_paths.front());
  if (!loaded.ok()) return Fail(loaded.status());
  frag::FragmentSet set_storage = std::move(loaded->set);
  frag::FragmentSet* set = &set_storage;
  if (options.show_fragments) {
    for (auto f : set->live_ids()) {
      std::printf("--- fragment F%d (%zu elements) ---\n%s\n", f,
                  set->FragmentElements(f),
                  xml::WriteXml(set->fragment(f).root, {.indent = true})
                      .c_str());
    }
  }

  // ---- Distribute: freeze h into the epoch-stamped snapshot ----
  auto st = loaded->placement.Snapshot(*set);
  if (!st.ok()) return Fail(st.status());
  std::printf("%zu elements, %zu fragments, %d sites\n",
              set->TotalElements(), set->live_count(), st->num_sites());

  // ---- Open a session, prepare the query once ----
  // An unknown --backend fails here, listing the registered backends —
  // the same UX as an unknown --algo.
  obs::Tracer tracer;
  core::SessionOptions session_options{.backend = options.backend};
  if (!options.trace_path.empty()) session_options.tracer = &tracer;
  auto session = core::Session::Create(&*set, &*st, session_options);
  if (!session.ok()) return Fail(session.status());
  auto prepared = session->Prepare(options.query);
  if (!prepared.ok()) return Fail(prepared.status());
  std::printf("query: %s  (|QList| = %zu)\n", options.query.c_str(),
              prepared->query().size());

  // ---- Serve ----
  if (options.serve) {
    obs::StatsSink sink = MakeServeSink(options.stats_interval);
    service::ServiceOptions svc_options;
    svc_options.backend = options.backend;
    if (!options.trace_path.empty()) svc_options.tracer = &tracer;
    svc_options.sink = &sink;
    service::QueryService svc(&*set, &*st, svc_options);
    std::vector<service::QueryOutcome> outcomes;
    auto report = service::RunClosedLoopWith(
        &svc, [&](size_t) { return xpath::CompileQuery(options.query); },
        static_cast<size_t>(std::max(options.serve_queries, 0)),
        options.serve_clients, options.serve_think_ms / 1e3, &outcomes);
    if (!report.ok()) return Fail(report.status());
    if (outcomes.empty()) {
      return Fail(Status::InvalidArgument("nothing served"));
    }
    svc.FlushStats();
    std::printf("answer: %s\n", outcomes.front().answer ? "true" : "false");
    std::printf("%s\n", report->ToString().c_str());
    if (options.statz) {
      std::printf("\n%s", svc.SnapshotMetrics().ToString().c_str());
    }
    if (!options.trace_path.empty()) {
      return DumpTrace(tracer, options.trace_path);
    }
    return 0;
  }

  // ---- Evaluate ----
  if (options.select || options.select_path) {
    // Both selections run on the session opened above: its --backend
    // and --trace.
    std::vector<const xml::Node*> selected;
    std::string report;
    if (options.select_path) {
      auto selection = xpath::CompileSelection(options.query);
      if (!selection.ok()) return Fail(selection.status());
      auto result = core::RunPathSelection(*session, *selection);
      if (!result.ok()) return Fail(result.status());
      std::printf("%zu nodes selected\n", result->total_selected);
      selected = result->AllSelected();
      report = result->report.ToString();
    } else {
      auto result = core::RunSelectionParBoX(*session, *prepared);
      if (!result.ok()) return Fail(result.status());
      std::printf("%zu elements match\n", result->total_selected);
      selected = result->AllSelected();
      report = result->report.ToString();
    }
    for (size_t i = 0; i < selected.size(); ++i) {
      if (i == 20) {
        std::printf("  ... (%zu more)\n", selected.size() - 20);
        break;
      }
      std::printf("  <%s>%s\n", std::string(selected[i]->label()).c_str(),
                  xml::DirectText(*selected[i]).substr(0, 40).c_str());
    }
    std::printf("%s\n", report.c_str());
    if (!options.trace_path.empty()) {
      return DumpTrace(tracer, options.trace_path);
    }
    return 0;
  }

  if (options.algorithm == "all") {
    bool first = true;
    for (const std::string& name :
         core::EvaluatorRegistry::Instance().Names()) {
      auto report = session->Execute(*prepared, {.evaluator = name});
      if (!report.ok()) return Fail(report.status());
      if (first) {
        std::printf("answer: %s\n", report->answer ? "true" : "false");
        first = false;
      }
      std::printf("  %s\n", report->ToString().c_str());
    }
    if (!options.trace_path.empty()) {
      return DumpTrace(tracer, options.trace_path);
    }
    return 0;
  }
  // Unknown names fail with the registered list in the message.
  auto report = session->Execute(*prepared, {.evaluator = options.algorithm});
  if (!report.ok()) return Fail(report.status());
  std::printf("answer: %s\n%s\n", report->answer ? "true" : "false",
              report->Detailed().c_str());
  if (!options.trace_path.empty()) {
    return DumpTrace(tracer, options.trace_path);
  }
  return 0;
}
