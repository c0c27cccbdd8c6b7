#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "common/json.hpp"
#include "core/inference.hpp"

namespace perfbench {

/// One benchmark workload. All three share the graph (the reddit preset at
/// scale 0.5), the partition (3 METIS parts), the UDS runtime and one
/// kernel thread per rank; see perfbench/README.md for why each exists.
struct WorkloadSpec {
  std::string name;
  float sample_rate = 1.0f;  // boundary keep-rate p of the training runs
  bnsgcn::core::OverlapMode overlap = bnsgcn::core::OverlapMode::kBlocking;
  std::int64_t cache_mb = 0;
  bool serve = false;
};

[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Everything set-up builds, kept for the measured loop. Not movable: the
/// serving engine holds references into it.
struct Setup {
  bnsgcn::Dataset ds;
  bnsgcn::Partitioning part;
  // Serve only: the socket-trained snapshot and the engine over it.
  bnsgcn::core::WeightSnapshot weights;
  std::unique_ptr<bnsgcn::core::InferenceEngine> engine;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Run the workload and return the raw record (samples, counts, checks,
/// and with tracing the probe counters); perfbench/run.py reduces it.
[[nodiscard]] bnsgcn::json::Value run_workload(const RunArgs& args);

/// The training config of a workload at a given seed and epoch count.
[[nodiscard]] bnsgcn::api::RunConfig train_config(const WorkloadSpec& w,
                                                  std::uint64_t seed,
                                                  int epochs);

/// Per-layer probes (trace mode): spans around direct calls into each
/// module with the workload's own inputs; returns the counters.
[[nodiscard]] bnsgcn::json::Value run_probes(const WorkloadSpec& w,
                                             const Setup& setup,
                                             std::uint64_t seed);

} // namespace perfbench
