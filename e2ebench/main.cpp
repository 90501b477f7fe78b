// End-to-end benchmark driver: quantize and serve the APTQ-75% packed
// serve-sim model. Usage:
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints a metric table, a `result {...}` line with the provenance block,
// and as its last line the JSON object {correct, attempted, failed,
// metrics}. Exits 3 when an output check fails, 1 on any other error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "util/threadpool.hpp"

namespace e2e {

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Result::fail_check(const std::string& why) {
  check_failures_.push_back(why);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void set_pool_threads(std::size_t threads) {
  aptq::ThreadPool::set_global_threads(
      std::min(threads, aptq::ThreadPool::hardware_threads()));
}

namespace {

// The metrics BENCHMARK.json declares, in its order, with their units.
// Every run reports each metric of its mode (end-to-end untraced,
// per-layer traced); other measurements go to the `result` line only.
struct Declared {
  const char* name;
  const char* unit;
};

const std::vector<Declared> kEndToEnd = {
    {"setup_s", "s"},        {"quantize_s", "s"},
    {"ppl_c4", "ppl"},       {"weight_mib", "MiB"},
    {"ttft_p50_ms", "ms"},   {"itl_p50_ms", "ms"},
    {"slo_attainment", "share"}, {"tokens_per_s", "1/s"}};

const std::vector<Declared> kPerLayer = {
    {"quant.calib_forward_s", "s"},
    {"quant.gamma_probe_s", "s"},
    {"quant.hessian_s", "s"},
    {"quant.gptq_s", "s"},
    {"quant.alloc_s", "s"},
    {"quant.pack_s", "s"},
    {"quant.layers_2bit", "count"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.prefill_ms_p50", "ms"},
    {"serve.step_ms_p50", "ms"},
    {"serve.step_ms_p99", "ms"},
    {"serve.prefill_step_share", "share"},
    {"serve.batch_rows_mean", "rows"},
    {"serve.busy_share", "share"},
    {"serve.evicted", "count"},
    {"serve.backpressure_steps", "count"},
    {"kv.mapped_share_mean", "share"},
    {"kv.peak_mapped_mib", "MiB"},
    {"prompt.shared_token_share", "share"},
    {"kern.gemv_ns_per_weight.2bit", "ns/weight"},
    {"kern.gemv_ns_per_weight.4bit", "ns/weight"},
    {"kern.gemv8_ns_per_weight.2bit", "ns/weight"},
    {"kern.gemv8_ns_per_weight.4bit", "ns/weight"},
    {"kern.gemm_ns_per_weight.2bit", "ns/weight"},
    {"kern.gemm_ns_per_weight.4bit", "ns/weight"},
    {"kern.weight_bytes_per_token", "B"},
    {"kern.weight_gbps", "GB/s"},
    {"kern.2bit_time_share", "share"},
    {"net.round_trips_per_token", "count"},
    {"net.wire_bytes_per_token", "B"},
    {"net.rpc_ms_p50", "ms"},
    {"net.handshake_rtt_us", "us"},
    {"http.overhead_ms_p50", "ms"},
    {"obs.trace_overhead_share", "ratio"},
    {"driver.late_p99_ms", "ms"}};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  return "\"" + aptq::obs::json_escape(s) + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string provenance_json(const Options& opt) {
  std::string out = "{";
  out += "\"cpu\":" + json_str(cpu_model());
  out += ",\"nproc\":" +
         std::to_string(aptq::ThreadPool::hardware_threads());
  out += ",\"compiler\":" + json_str(E2E_COMPILER);
  out += ",\"cmake_build_type\":" + json_str(E2E_BUILD_TYPE);
  // The benchmark always builds the portable baseline ISA.
  out += ",\"aptq_native\":" + json_str("OFF");
  out += ",\"flags\":" + json_str(E2E_FLAGS);
  out += ",\"git_sha\":" + json_str(env_or("E2E_GIT_SHA", "unknown"));
  out += ",\"source_digest\":" +
         json_str(env_or("E2E_SOURCE_DIGEST", "unknown"));
  out += ",\"pool_threads\":" +
         std::to_string(aptq::ThreadPool::global_thread_count());
  // CPUs the run's threads may use at the end of the run (tp2_http pins
  // its serving phase to one).
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const bool known = ::sched_getaffinity(0, sizeof cpus, &cpus) == 0;
  out += ",\"affinity_cpus\":" + std::to_string(known ? CPU_COUNT(&cpus) : 0);
  out += ",\"workload\":" + json_str(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"seconds\":" + json_number(opt.seconds);
  out += ",\"trace\":" + std::string(opt.trace ? "true" : "false");
  out += "}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload "
               "quantize_aptq|chat_shared_prefix|batch_decode|tp2_http "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else {
      return usage();
    }
  }
  const std::map<std::string, void (*)(const Options&, Result&)> workloads = {
      {"quantize_aptq", run_quantize_aptq},
      {"chat_shared_prefix", run_chat_shared_prefix},
      {"batch_decode", run_batch_decode},
      {"tp2_http", run_tp2_http}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end() || !(opt.seconds > 0.0)) {
    return usage();
  }
  aptq::obs::set_log_level(aptq::obs::LogLevel::kWarn);

  Result result;
  try {
    it->second(opt, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!opt.trace) {
    result.set("peak_rss_mib", peak_rss_mib(), "MiB");
  }
  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  result.set("error_rate", error_rate, "share");

  // Human-readable table: every metric the run measured, by name and unit.
  for (const Result::Metric& m : result.metrics()) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& why : result.check_failures()) {
    std::printf("OUTPUT CHECK FAILED: %s\n", why.c_str());
  }

  const std::vector<Declared>& wanted = opt.trace ? kPerLayer : kEndToEnd;
  std::string metrics = "{";
  std::string all = "{";
  bool complete = true;
  for (const Declared& d : wanted) {
    const Result::Metric* found = nullptr;
    for (const Result::Metric& m : result.metrics()) {
      if (m.name == d.name) {
        found = &m;
      }
    }
    if (found == nullptr || found->unit != d.unit ||
        !std::isfinite(found->value)) {
      std::fprintf(stderr,
                   "e2ebench: metric %s missing, not finite, or not in %s\n",
                   d.name, d.unit);
      complete = false;
      continue;
    }
    metrics += std::string(metrics.size() > 1 ? "," : "") + json_str(d.name) +
               ":{\"value\":" + json_number(found->value) +
               ",\"unit\":" + json_str(d.unit) + "}";
  }
  for (const Result::Metric& m : result.metrics()) {
    if (std::isfinite(m.value)) {
      all += std::string(all.size() > 1 ? "," : "") + json_str(m.name) + ":" +
             json_number(m.value);
    }
  }
  metrics += "}";
  all += "}";
  if (!complete) {
    return 1;
  }
  std::string checks = "[";
  for (const std::string& why : result.check_failures()) {
    checks += std::string(checks.size() > 1 ? "," : "") + json_str(why);
  }
  checks += "]";
  std::printf("result {\"provenance\":%s,\"all_metrics\":%s,"
              "\"check_failures\":%s}\n",
              provenance_json(opt).c_str(), all.c_str(), checks.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 3;
}
