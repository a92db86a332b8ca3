// Machine-floor row, taken in every run next to the workload: the costs
// no change to the store can lower, so a moved workload figure can be
// told apart from a slower or faster machine.
#pragma once

#include <string>

namespace perfbench {

struct floor_row {
  /// Raw 64-byte TCP ping-pong over loopback, median round trip.
  double loopback_rtt_p50_us{0};
  /// net::append_msg_frame / net::frame_buffer per message.
  double frame_encode_ns{0};
  double frame_decode_ns{0};
  /// persist::wal::append (no fsync) and wal::sync after one record.
  double wal_append_ns{0};
  double wal_fsync_p50_us{0};
  /// A timed benchutil::run_store_measured call: wall ns per simulated
  /// message, and messages per op.
  double sim_ns_per_msg{0};
  double sim_msgs_per_op{0};
  /// Filesystem type of the temp dir the persist workload writes to.
  std::string tmp_fs{};
};

/// Measures the row; WAL files go under `tmp_dir` (created if missing).
[[nodiscard]] floor_row measure_floor(const std::string& tmp_dir);

}  // namespace perfbench
