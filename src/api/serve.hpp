#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "api/run.hpp"
#include "common/json.hpp"
#include "core/inference.hpp"

namespace bnsgcn::api {

/// Serving knobs of api::serve — the config-file spelling of
/// core::ServeOptions. JSON keys: batch_size, num_batches, seed,
/// record_logits (fail_rank is test-only, not serialized).
struct ServeConfig {
  int batch_size = 32;
  int num_batches = 8;
  std::uint64_t seed = 1;
  /// Keep the raw logits rows in the report (the determinism tests'
  /// bitwise oracle; floats round-trip the JSON artifact exactly).
  bool record_logits = false;
  /// Test-only: forwarded to core::ServeOptions::fail_rank. Not serialized.
  int fail_rank = -1;
};

/// The result of api::serve: training provenance, the table build's `load`
/// row, the per-batch latency/traffic rows and the answered queries.
/// Mirrors RunReport's conventions — stored fields round-trip the JSON
/// artifact exactly, the headline numbers are derived accessors recomputed
/// on read.
struct ServeReport {
  std::string method;   // always "bns" today
  std::string dataset;

  int batch_size = 0;
  int num_batches = 0;
  int num_classes = 0;
  core::ServeBatchStats load;  // the one full-graph forward per serve call
  std::vector<core::ServeBatchStats> batches;
  std::vector<NodeId> queries;     // global ids, flat across batches
  std::vector<int> predictions;    // argmax class per query
  std::vector<float> logits;       // queries × num_classes; empty unless
                                   // ServeConfig::record_logits
  double train_wall_s = 0.0;  // wall time of the weight-producing training
  double serve_wall_s = 0.0;  // wall time of the request loop (rank 0),
                              // excluding `load`
  comm::TimingSource timing = comm::TimingSource::kSimulated;

  [[nodiscard]] int total_queries() const {
    return static_cast<int>(queries.size());
  }
  /// Nearest-rank percentile over the per-batch latencies (p in [0,1]).
  [[nodiscard]] double latency_percentile_s(double p) const {
    if (batches.empty()) return 0.0;
    std::vector<double> lat;
    lat.reserve(batches.size());
    for (const auto& b : batches) lat.push_back(b.latency_s);
    std::sort(lat.begin(), lat.end());
    return lat[percentile_index(p)];
  }
  /// How many per-batch latency samples rank above the p-th percentile:
  /// a tail percentile backed by fewer than ~10 of them is one or two
  /// outliers, not a statistic.
  [[nodiscard]] std::size_t latency_samples_beyond(double p) const {
    if (batches.empty()) return 0;
    return batches.size() - 1 - percentile_index(p);
  }
  [[nodiscard]] double p50_latency_s() const {
    return latency_percentile_s(0.50);
  }
  [[nodiscard]] double p99_latency_s() const {
    return latency_percentile_s(0.99);
  }
  /// Served queries per second of request-handling time (sum of batch
  /// latencies, excluding `load`): each batch costs owner lookups plus one
  /// gather to rank 0, a fixed cost that a larger batch amortizes.
  [[nodiscard]] double qps() const {
    double busy = 0.0;
    for (const auto& b : batches) busy += b.latency_s;
    return busy > 0.0 ? static_cast<double>(total_queries()) / busy : 0.0;
  }

 private:
  /// Nearest-rank index of percentile p into the sorted latencies.
  [[nodiscard]] std::size_t percentile_index(double p) const {
    auto idx = static_cast<std::size_t>(p * static_cast<double>(batches.size()));
    if (idx > 0) --idx;
    return std::min(idx, batches.size() - 1);
  }
};

/// Train cfg end to end (always on the in-process mailbox — trained
/// weights are bit-identical across transports, so the snapshot serves on
/// any fabric), snapshot the weights, then answer scfg's query batches
/// over the live partitioned graph with the forward-only engine
/// (core::InferenceEngine). cfg.comm.transport picks the serving fabric:
/// mailbox serves in-process, uds/tcp serve one OS process per rank
/// through the shared piped-rank runtime. Only Method::kBns serves.
[[nodiscard]] ServeReport serve(const RunConfig& cfg, const ServeConfig& scfg);

/// Same, over a prebuilt dataset (partition built per cfg.partition through
/// the process-global cache).
[[nodiscard]] ServeReport serve(const Dataset& ds, const RunConfig& cfg,
                                const ServeConfig& scfg);

/// Same, over a prebuilt dataset and partitioning.
[[nodiscard]] ServeReport serve(const Dataset& ds, const Partitioning& part,
                                const RunConfig& cfg,
                                const ServeConfig& scfg);

/// ServeConfig / ServeReport (de)serialization, RunConfig conventions:
/// field-complete round-trip, absent keys keep the C++ defaults.
[[nodiscard]] json::Value to_json(const ServeConfig& scfg);
[[nodiscard]] ServeConfig serve_config_from_json(const json::Value& v);
[[nodiscard]] json::Value to_json(const ServeReport& r);
[[nodiscard]] ServeReport serve_report_from_json(const json::Value& v);
[[nodiscard]] std::string to_json_string(const ServeConfig& scfg,
                                         int indent = 2);
[[nodiscard]] ServeConfig serve_config_from_json_string(std::string_view text);
[[nodiscard]] std::string to_json_string(const ServeReport& r,
                                         int indent = 2);
[[nodiscard]] ServeReport serve_report_from_json_string(std::string_view text);

} // namespace bnsgcn::api
