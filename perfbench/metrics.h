// The benchmark's own metric code, kept apart from the workload drivers
// so metrics_test.cc can check it on synthetic inputs:
//  * percentiles that refuse to report a rank with fewer than ten
//    samples beyond it,
//  * the measured-window summary of an op log (warm-up and set-up ops
//    excluded by invoke time, failures counted against attempts),
//  * the hop ledger: per-round wire and server hops of each traced op,
//    rebuilt from flight-recorder events, plus the client residual.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeline.h"
#include "store/histories.h"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond its rank.
inline constexpr std::size_t k_min_beyond = 10;

/// Nearest-rank p-th percentile (p in (0, 100)); nullopt when fewer than
/// k_min_beyond samples lie beyond the rank. Sorts `samples`.
[[nodiscard]] std::optional<double> percentile(std::vector<double>& samples,
                                               double p);

/// Linearly interpolated q-quantile of `v`, q in [0, 1] (0 when empty).
/// Sorts `v`.
[[nodiscard]] double quantile(std::vector<double>& v, double q);

/// Median of `v` (0 when empty). Sorts `v`.
[[nodiscard]] double median(std::vector<double>& v);

/// A run's figure over its measured units (segments or blocks). Host
/// interference only ever slows a unit down, so the figure is taken at
/// the units' better quartile: the first quartile of times, the third of
/// rates. It tracks the program's own speed while up to six units in ten
/// were disturbed. Sorts `v`.
[[nodiscard]] double better_quartile(std::vector<double>& v,
                                     bool higher_is_better);

/// One op of a deployment's op log, flattened out of its per-key history.
struct op_sample {
  std::string client{};  ///< process name, as the flight recorder prints it
  std::uint64_t obj{0};  ///< object id of the key
  bool is_put{false};
  std::uint64_t t0{0};   ///< invoke stamp (ns)
  std::optional<std::uint64_t> t1{};  ///< response stamp; nullopt = incomplete
  int rounds{0};
};

[[nodiscard]] std::vector<op_sample> flatten(
    const fastreg::store::store_histories& h);

/// Latencies and failure counts of the ops invoked in [start, end).
struct window_summary {
  std::vector<double> get_us{};
  std::vector<double> put_us{};
  /// Ops invoked in the window plus submissions that never got in.
  std::uint64_t attempted{0};
  /// Incomplete ops invoked in the window plus refused submissions.
  std::uint64_t failed{0};
  double get_rounds_mean{0};
  double put_rounds_mean{0};

  [[nodiscard]] std::uint64_t completed() const { return attempted - failed; }
  /// completed / attempted (1 when nothing was attempted).
  [[nodiscard]] double completed_share() const;
  /// Pools another window's samples and counts into this one.
  void absorb(const window_summary& o);
};

/// `submit_failures`: submissions in the window that timed out before the
/// op log saw them.
[[nodiscard]] window_summary summarize(const std::vector<op_sample>& ops,
                                       std::uint64_t start, std::uint64_t end,
                                       std::uint64_t submit_failures);

/// Nanoseconds of [lo, hi] covered by the union of `spans`.
[[nodiscard]] std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans,
    std::uint64_t lo, std::uint64_t hi);

/// Hop ledger of traced ops. Each round's critical path is the server
/// whose reply was the quorum-th the client received; its hops are
/// client send -> server recv (c2s), server recv -> server reply send
/// (server) and reply send -> client recv (s2c). The residual is the
/// op's latency minus the part of it the critical paths cover: caller
/// wakeup, quorum bookkeeping and anything else on the client.
struct hop_ledger {
  std::vector<double> c2s_us{};
  std::vector<double> server_us{};
  std::vector<double> s2c_us{};
  std::vector<double> residual_us{};
  /// Ops whose every round was found whole in the rings.
  std::size_t ops_used{0};
  /// Traces dropped: no matching op, or rounds lost to ring wrap.
  std::size_t ops_skipped{0};
};

[[nodiscard]] hop_ledger build_ledger(
    const std::vector<fastreg::obs::timeline_event>& merged,
    const std::vector<op_sample>& ops, std::uint32_t quorum);

}  // namespace perfbench
