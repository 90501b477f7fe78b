// Span analysis for traced runs: per-name totals and self times from the
// program's own trace (obs::trace_json), which holds both the spans the
// library records and the ones the benchmark wraps around its calls.
#include <algorithm>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace e2e {

namespace {

struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  double child_us = 0.0;
};

}  // namespace

const SpanTotals::Entry* SpanTotals::find(const std::string& name) const {
  for (const auto& [n, entry] : by_name) {
    if (n == name) {
      return &entry;
    }
  }
  return nullptr;
}

double SpanTotals::self_s(const std::string& name) const {
  const Entry* e = find(name);
  return e == nullptr ? 0.0 : e->self_ms * 1e-3;
}

SpanTotals collect_spans() {
  // trace_json() writes one event per line; parsing line by line keeps
  // memory flat on long traces.
  std::map<std::pair<long long, long long>, std::vector<Span>> lanes;
  std::istringstream in(aptq::obs::trace_json());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"ph\":\"X\"", 0) != 0) {
      continue;
    }
    if (line.back() == ',') {
      line.pop_back();
    }
    const aptq::net::JsonValue ev = aptq::net::parse_json(line);
    Span s;
    s.name = ev.find("name")->string;
    s.start_us = ev.find("ts")->number;
    s.dur_us = ev.find("dur")->number;
    const auto pid = static_cast<long long>(ev.find("pid")->number);
    const auto tid = static_cast<long long>(ev.find("tid")->number);
    lanes[{pid, tid}].push_back(std::move(s));
  }

  std::map<std::string, SpanTotals::Entry> totals;
  for (auto& [lane, spans] : lanes) {
    // Spans on one thread nest (RAII scopes): sort by start, outer first,
    // and charge each span's duration to its innermost enclosing span.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start_us != b.start_us ? a.start_us < b.start_us
                                      : a.dur_us > b.dur_us;
    });
    std::vector<Span*> stack;
    for (Span& s : spans) {
      while (!stack.empty() &&
             stack.back()->start_us + stack.back()->dur_us <= s.start_us) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        stack.back()->child_us += s.dur_us;
      }
      stack.push_back(&s);
    }
    for (const Span& s : spans) {
      SpanTotals::Entry& e = totals[s.name];
      ++e.count;
      e.self_ms += std::max(0.0, s.dur_us - s.child_us) * 1e-3;
      e.durations_ms.push_back(s.dur_us * 1e-3);
    }
  }
  SpanTotals out;
  for (auto& [name, entry] : totals) {
    out.by_name.emplace_back(name, std::move(entry));
  }
  return out;
}

void reset_observability() {
  aptq::obs::reset_trace_events();
  aptq::obs::reset_phase_totals();
  aptq::obs::reset_metrics();
  aptq::obs::reset_layer_stats();
}

void report_idle_net(Result& result) {
  result.set("net.round_trips_per_token", 0.0, "count");
  result.set("net.wire_bytes_per_token", 0.0, "B");
  result.set("net.rpc_ms_p50", 0.0, "ms");
  result.set("net.handshake_rtt_us", 0.0, "us");
  result.set("http.overhead_ms_p50", 0.0, "ms");
}

}  // namespace e2e
