// perfbench: the repository benchmark's measuring program. run.py builds
// it and runs
//
//   perfbench --workload <fast_read|durable_mix|sim_verify> --seed <n>
//             --seconds <s> --trace <0|1> --git-sha <sha> --tmp <dir>
//
// --seconds is at least 3, one measured segment; --tmp is a scratch
// directory for persistence files, emptied first and removed after a run
// that checked out.
//
// It prints a machine-floor row, the sample counts, and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}, where
// metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1), each {"value", "unit"}. Exit 0 when every history
// checked out, 1 when one did not (the result line still prints), 2 on
// a usage or measurement error (no result line).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "floor.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

struct metric_def {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; selftest.py checks both directions.
constexpr metric_def k_end_to_end[] = {
    {"get_p50_us", "us"},  {"get_p99_us", "us"},
    {"put_p50_us", "us"},  {"put_p99_us", "us"},
    {"ops_per_s", "1/s"},  {"completed_share", "share"},
    {"setup_s", "s"},
};

constexpr metric_def k_per_layer[] = {
    {"net.loopback_rtt_p50_us", "us"},
    {"net.frame_encode_ns", "ns"},
    {"net.frame_decode_ns", "ns"},
    {"net.frames_out_per_op", "count"},
    {"net.bytes_out_per_op", "bytes"},
    {"net.frames_per_writev", "count"},
    {"net.flush_ns_p50", "ns"},
    {"net.c2s_us_p50", "us"},
    {"net.s2c_us_p50", "us"},
    {"store.serve_ns_p50", "ns"},
    {"store.server_hop_us_p50", "us"},
    {"store.client_residual_us_p50", "us"},
    {"store.admission_wait_us_p50", "us"},
    {"store.window_full_share", "share"},
    {"store.key_busy_share", "share"},
    {"registers.get_rounds_mean", "count"},
    {"registers.put_rounds_mean", "count"},
    {"persist.fsyncs_per_op", "count"},
    {"persist.log_bytes_per_op", "bytes"},
    {"persist.snapshots_per_kop", "count"},
    {"persist.append_ns", "ns"},
    {"persist.fsync_us_p50", "us"},
    {"persist.restart_ms", "ms"},
    {"persist.replayed_records", "count"},
    {"checker.verify_ns_per_op", "ns"},
    {"sim.ns_per_msg", "ns"},
    {"sim.msgs_per_op", "count"},
    {"reconfig.parks_per_kop", "count"},
    {"reconfig.epoch_nacks_per_kop", "count"},
    {"obs.record_overhead_pct", "%"},
};

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(k) + ": " + num(v);
  }
  return out + "}";
}

std::uint64_t parse_u64(const std::string& flag, const char* v) {
  std::uint64_t out = 0;
  const char* end = v + std::char_traits<char>::length(v);
  const auto r = std::from_chars(v, end, out);
  if (r.ec != std::errc() || r.ptr != end) {
    throw std::invalid_argument(flag + " needs a non-negative integer");
  }
  return out;
}

int run(int argc, char** argv) {
  perfbench::run_args a;
  std::string git_sha;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      const auto s = parse_u64(flag, v);
      if (s < 3 || s > 120) {
        throw std::invalid_argument("--seconds must be in [3, 120]");
      }
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      const auto t = parse_u64(flag, v);
      if (t > 1) throw std::invalid_argument("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--git-sha") {
      git_sha = v;
    } else if (flag == "--tmp") {
      a.tmp_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || git_sha.empty() || a.tmp_dir.empty()) {
    throw std::invalid_argument("--workload, --git-sha and --tmp are required");
  }
  std::filesystem::remove_all(a.tmp_dir);
  std::filesystem::create_directories(a.tmp_dir);

  // The workload runs first, in a fresh process: its set-ups are timed
  // from the same allocator and page-cache state on every run.
  auto res = perfbench::run_workload(a);
  const auto fl = perfbench::measure_floor(a.tmp_dir);
  std::printf(
      "{\"floor\": {\"loopback_rtt_p50_us\": %s, \"frame_encode_ns\": %s, "
      "\"frame_decode_ns\": %s, \"wal_append_ns\": %s, "
      "\"wal_fsync_p50_us\": %s, \"sim_ns_per_msg\": %s}, \"tmp_fs\": %s, "
      "\"git_sha\": %s, \"build_type\": %s, \"nproc\": %u}\n",
      num(fl.loopback_rtt_p50_us).c_str(), num(fl.frame_encode_ns).c_str(),
      num(fl.frame_decode_ns).c_str(), num(fl.wal_append_ns).c_str(),
      num(fl.wal_fsync_p50_us).c_str(), num(fl.sim_ns_per_msg).c_str(),
      json_str(fl.tmp_fs).c_str(), json_str(git_sha).c_str(),
      json_str(PERFBENCH_BUILD_TYPE).c_str(),
      std::thread::hardware_concurrency());
  std::fflush(stdout);

  res.layer["net.loopback_rtt_p50_us"] = fl.loopback_rtt_p50_us;
  res.layer["net.frame_encode_ns"] = fl.frame_encode_ns;
  res.layer["net.frame_decode_ns"] = fl.frame_decode_ns;
  res.layer["persist.append_ns"] = fl.wal_append_ns;
  res.layer["persist.fsync_us_p50"] = fl.wal_fsync_p50_us;
  res.layer["sim.ns_per_msg"] = fl.sim_ns_per_msg;
  res.layer["sim.msgs_per_op"] = fl.sim_msgs_per_op;

  std::printf("{\"samples\": %s}\n", json_map(res.samples).c_str());
  if (!res.correct) {
    std::fprintf(stderr, "perfbench: %s: %s\n", a.workload.c_str(),
                 res.failure.c_str());
    std::printf("{\"failure\": %s}\n", json_str(res.failure).c_str());
  }

  const auto& values = a.trace ? res.layer : res.e2e;
  std::string metrics = "{";
  for (const auto& [name, unit] : a.trace ? std::span<const metric_def>(k_per_layer)
                                          : std::span<const metric_def>(k_end_to_end)) {
    const auto it = values.find(name);
    if (it == values.end()) {
      throw std::runtime_error(std::string("metric not measured: ") + name);
    }
    if (metrics.size() > 1) metrics += ", ";
    metrics += json_str(name) + ": {\"value\": " + num(it->second) +
               ", \"unit\": " + json_str(unit) + "}";
  }
  metrics += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      res.correct ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  if (res.correct) std::filesystem::remove_all(a.tmp_dir);
  return res.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Rings large enough to hold the last recorded slice of every node
  // (64-byte slots); read once, when the first ring is created.
  ::setenv("FASTREG_OBS_RING", "32768", /*overwrite=*/0);
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
