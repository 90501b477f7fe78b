// Lock-sharded metrics registry: counters, gauges, histograms, and the
// per-layer quantization telemetry table behind run reports.
//
// Hot-path idiom — resolve once, then touch an atomic:
//
//   if (obs::telemetry_enabled()) {
//     static auto& tokens = obs::counter("hessian.tokens");
//     tokens.add(x.rows());
//   }
//
// counter()/gauge()/histogram() return references that stay valid for the
// life of the process (instruments are heap-allocated and never removed;
// reset_metrics() zeroes values but keeps the objects). Lookups hash the
// name to one of a fixed set of shards so concurrent registrations from
// pool workers don't serialize on one mutex.
//
// Naming scheme (see docs/OBSERVABILITY.md): dot-separated
// `<subsystem>.<what>[_<unit>]`, e.g. "gptq.cols_quantized",
// "decode.forward_ms", "eval.tokens".
//
// Quantization telemetry: layer_stat(layer, key, value) upserts one
// numeric fact about one layer ("hessian.avg_trace", "alloc.bits",
// "quant.mse", ...). It is a no-op unless telemetry is enabled, so
// instrumentation sites can call it unconditionally; sites should still
// gate any *expensive computation* of the value on telemetry_enabled().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/control.hpp"

namespace aptq::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed geometric buckets: bucket i holds values in
/// [upper_bound(i-1), upper_bound(i)) with upper_bound(i) = 1e-3 · 2^i,
/// i.e. 1 µs resolution at the bottom when recording milliseconds, ~4.4e9
/// at the top; the last bucket is unbounded and values ≤ 1e-3 (including
/// negatives) land in bucket 0. Percentiles interpolate linearly inside
/// the selected bucket, clamped to the observed [min, max] — so a
/// histogram whose samples are all equal reports that exact value at
/// every percentile.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 44;
  static double upper_bound(std::size_t i);

  void record(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  Snapshot snapshot() const;

  /// p in [0, 100]. Returns 0 when empty.
  double percentile(double p) const;

  void reset();

 private:
  double percentile_locked(double p) const;

  mutable std::mutex mutex_;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Find-or-create by name. References remain valid forever.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Deterministic JSON snapshot of every registered instrument, keys
/// sorted, timestamped with the (injectable) observability clock.
std::string metrics_snapshot_json();

/// Prometheus text exposition (format 0.0.4) of every registered
/// instrument, keys sorted. Names are prefixed "aptq_" with dots mapped
/// to underscores ("serve.ttft_ms" -> "aptq_serve_ttft_ms"); histograms
/// render as summaries (quantile series + _sum/_count/_min/_max), which
/// matches what the fixed-bucket Histogram can answer exactly. Served by
/// the HTTP front-end's GET /metrics route.
std::string metrics_prometheus();

/// Zeroes every instrument (objects and references survive).
void reset_metrics();

/// Upsert one numeric stat for one layer; no-op unless telemetry is on.
void layer_stat(const std::string& layer, const char* key, double value);

struct LayerStatRow {
  std::string name;
  std::vector<std::pair<std::string, double>> stats;  // sorted by key
};

/// All recorded layer stats, sorted by layer name (recording order is
/// thread-scheduling dependent; the snapshot is not).
std::vector<LayerStatRow> layer_stats_snapshot();

void reset_layer_stats();

}  // namespace aptq::obs
