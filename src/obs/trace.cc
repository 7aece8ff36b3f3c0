#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

namespace parbox::obs {

TraceContext& CurrentTraceContext() {
  thread_local TraceContext current;
  return current;
}

Tracer::Tracer() : Tracer(Options()) {}

Tracer::Tracer(const Options& options)
    : enabled_(options.enabled), max_events_(options.max_events) {}

void Tracer::Record(TraceEvent event) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= max_events_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shards_.Local().events.push_back(std::move(event));
}

void Tracer::RecordInlineSpan(const char* name, int32_t site,
                              double start_seconds, double end_seconds,
                              uint64_t ops) {
  if (!enabled()) return;
  const TraceContext ctx = CurrentTraceContext();
  if (!ctx.active()) return;
  TraceEvent e;
  e.name = name;
  e.category = "site";
  e.trace_id = ctx.trace_id;
  e.span_id = MintSpanId();
  e.parent_id = ctx.span_id;
  e.site = site;
  e.ts_seconds = start_seconds;
  e.dur_seconds = end_seconds - start_seconds;
  e.args.emplace_back("ops", std::to_string(ops));
  Record(std::move(e));
}

namespace {
thread_local const char* g_next_compute_name = nullptr;
}  // namespace

void Tracer::SetNextComputeName(const char* name) {
  g_next_compute_name = name;
}

const char* Tracer::TakeNextComputeName() {
  const char* name = g_next_compute_name;
  g_next_compute_name = nullptr;
  return name;
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> all;
  shards_.ForEach([&](const Shard& shard) {
    all.insert(all.end(), shard.events.begin(), shard.events.end());
  });
  return all;
}

size_t Tracer::event_count() const {
  size_t n = 0;
  shards_.ForEach([&](const Shard& shard) { n += shard.events.size(); });
  return n;
}

void Tracer::Reset() {
  shards_.Clear();
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

namespace {

/// Microseconds with fixed sub-microsecond precision: deterministic
/// for deterministic inputs (the golden-trace contract).
std::string Micros(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (c == '\n') {
      *out += "\\n";
      continue;
    }
    out->push_back(c);
  }
}

void AppendEventJson(std::string* out, const TraceEvent& e) {
  *out += "{\"name\":\"";
  AppendJsonEscaped(out, e.name);
  *out += "\",\"cat\":\"";
  *out += e.category;
  *out += "\",\"ph\":\"";
  *out += e.dur_seconds < 0 ? "i\",\"s\":\"t" : "X";
  *out += "\",\"pid\":0,\"tid\":";
  *out += std::to_string(e.site < 0 ? 0 : e.site);
  *out += ",\"ts\":";
  *out += Micros(e.ts_seconds);
  if (e.dur_seconds >= 0) {
    *out += ",\"dur\":";
    *out += Micros(e.dur_seconds);
  }
  *out += ",\"args\":{\"trace\":\"";
  *out += std::to_string(e.trace_id);
  *out += "\",\"span\":\"";
  *out += std::to_string(e.span_id);
  *out += "\",\"parent\":\"";
  *out += std::to_string(e.parent_id);
  *out += "\"";
  for (const auto& [key, value] : e.args) {
    *out += ",\"";
    AppendJsonEscaped(out, key);
    *out += "\":\"";
    AppendJsonEscaped(out, value);
    *out += "\"";
  }
  *out += "}}";
}

}  // namespace

std::string Tracer::ToChromeJson(std::string_view process_name) const {
  std::string out = "[\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
                    "\"tid\":0,\"args\":{\"name\":\"";
  AppendJsonEscaped(&out, process_name);
  out += "\"}}";
  for (const TraceEvent& e : Collect()) {
    out += ",\n";
    AppendEventJson(&out, e);
  }
  out += "\n]\n";
  return out;
}

Status Tracer::WriteChromeJson(const std::string& path,
                               std::string_view process_name) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open trace file \"" + path +
                                   "\" for writing");
  }
  const std::string json = ToChromeJson(process_name);
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return Status::Internal("short write to trace file \"" + path + "\"");
  }
  return Status::OK();
}

namespace {

void AppendBreakdownLine(std::ostringstream* out, const TraceEvent& e,
                         double origin, int depth) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  *out << e.name << "  site " << e.site << "  @+"
       << Micros(e.ts_seconds - origin) << "us";
  if (e.dur_seconds >= 0) {
    *out << "  " << Micros(e.dur_seconds) << "us";
  } else {
    *out << "  (instant)";
  }
  for (const auto& [key, value] : e.args) {
    *out << "  " << key << "=" << value;
  }
  *out << "\n";
}

}  // namespace

std::string Tracer::Breakdown(uint64_t trace_id) const {
  std::vector<TraceEvent> events;
  for (TraceEvent& e : Collect()) {
    if (e.trace_id == trace_id) events.push_back(std::move(e));
  }
  std::ostringstream out;
  if (events.empty()) {
    out << "trace " << trace_id << ": no events\n";
    return out.str();
  }
  double origin = events[0].ts_seconds;
  double end = origin;
  for (const TraceEvent& e : events) {
    origin = std::min(origin, e.ts_seconds);
    end = std::max(end, e.ts_seconds +
                            (e.dur_seconds > 0 ? e.dur_seconds : 0.0));
  }
  out << "trace " << trace_id << ": " << events.size() << " events, "
      << Micros(end - origin) << "us\n";

  // parent span id -> children (insertion order preserved; ties in
  // virtual time keep their causal order).
  std::map<uint64_t, std::vector<const TraceEvent*>> children;
  std::map<uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& e : events) {
    if (e.span_id != 0) by_span.emplace(e.span_id, &e);
  }
  std::vector<const TraceEvent*> roots;
  for (const TraceEvent& e : events) {
    if (e.parent_id != 0 && by_span.count(e.parent_id) > 0) {
      children[e.parent_id].push_back(&e);
    } else {
      roots.push_back(&e);
    }
  }
  // Iterative DFS so a deep tree cannot overflow the stack.
  std::vector<std::pair<const TraceEvent*, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 1);
  }
  while (!stack.empty()) {
    auto [event, depth] = stack.back();
    stack.pop_back();
    AppendBreakdownLine(&out, *event, origin, depth);
    if (event->span_id == 0) continue;
    auto it = children.find(event->span_id);
    if (it == children.end()) continue;
    for (auto child = it->second.rbegin(); child != it->second.rend();
         ++child) {
      stack.emplace_back(*child, depth + 1);
    }
  }
  return out.str();
}

Tracer* DefaultTracer() {
  static Tracer* tracer = [] {
    const char* env = std::getenv("PARBOX_TRACE");
    if (env == nullptr || env[0] == '\0') {
      return static_cast<Tracer*>(nullptr);
    }
    return new Tracer();  // process lifetime, intentionally leaked
  }();
  return tracer;
}

}  // namespace parbox::obs
