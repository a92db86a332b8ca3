// The benchmark's three workloads. Each builds its deployment from the
// repository's public store API, drives a closed loop for the measured
// window, checks every history and returns its metrics by name.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct run_args {
  std::string workload{};
  std::uint64_t seed{1};
  int seconds{10};
  /// Alternate untraced and flight-recorded slices and report the
  /// per-layer metrics instead of the end-to-end ones.
  bool trace{false};
  /// Scratch directory for persistence (created and removed here).
  std::string tmp_dir{};
};

struct run_result {
  bool correct{true};
  /// Seed, workload and failing key when !correct.
  std::string failure{};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, double> e2e{};
  std::map<std::string, double> layer{};
  /// Sample counts behind the percentiles, printed beside the result.
  std::map<std::string, double> samples{};
};

/// Runs `args.workload` ("fast_read", "durable_mix" or "sim_verify").
/// Throws std::invalid_argument for another name and std::runtime_error
/// when a metric cannot be reported (too few samples).
[[nodiscard]] run_result run_workload(const run_args& args);

}  // namespace perfbench
