#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "benchutil/stress.h"
#include "benchutil/workload.h"
#include "common/rng.h"
#include "metrics.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "store/async_client.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"

namespace perfbench {
namespace {

using fastreg::rng;
using fastreg::store::async_session;
using fastreg::store::submit_status;
using fastreg::store::verify_mode;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

std::string key_name(std::uint32_t i) { return "k" + std::to_string(i); }

/// Independent rng stream `stream` of the run's seed.
rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return rng(seed ^ (0x9e3779b97f4a7c15ull * (stream + 1)));
}

/// Each run cuts its window into segments of this length, each on a fresh
/// deployment. On a small shared VM, where the reactor threads land and
/// how busy the host is both move latency by 10-50% or more for seconds
/// at a time; a figure taken per segment and reported at the segments'
/// better quartile (see better_quartile) keeps the run-to-run spread
/// down. One segment holds enough ops of every workload for its 99th
/// percentiles.
constexpr std::uint64_t k_segment_ns = 3'000'000'000;

int segment_count(int seconds) {
  return std::max(1, static_cast<int>(static_cast<std::uint64_t>(seconds) *
                                      1'000'000'000 / k_segment_ns));
}

// ------------------------------------------------------------ slices --

/// In a traced run each segment runs one half untraced and the other with
/// the flight recorder on, so the overhead compares halves that saw the
/// same deployment. Even segments record their second half, odd ones
/// their first, so warm-up and drift within a segment cancel in the
/// pooled comparison.
class slice_plan {
 public:
  slice_plan(std::uint64_t start, std::uint64_t segment_ns, bool trace,
             int segment)
      : half_(start + segment_ns / 2), on_(trace), second_(segment % 2 == 0) {}

  [[nodiscard]] bool traced(std::uint64_t t) const {
    return on_ && (t >= half_) == second_;
  }

  /// Turns the recorder on or off to match the half `now` falls in.
  void apply(std::uint64_t now) const {
    const bool want = traced(now);
    if (fastreg::obs::recording_active() != want) {
      fastreg::obs::set_recording(want);
    }
  }

 private:
  std::uint64_t half_;
  bool on_;
  bool second_;
};

// ---------------------------------------------------- registry rows --

using rows_t = std::vector<fastreg::obs::sample>;

bool row_is(const std::string& row, const std::string& base) {
  return row.compare(0, base.size(), base) == 0 &&
         (row.size() == base.size() || row[base.size()] == '{');
}

/// Sum of `base` over every label set whose labels contain `label`.
double sum_rows(const rows_t& rows, const std::string& base,
                const std::string& label = "") {
  double s = 0;
  for (const auto& r : rows) {
    if (row_is(r.name, base) &&
        (label.empty() || r.name.find(label) != std::string::npos)) {
      s += r.value;
    }
  }
  return s;
}

/// Median over label sets of histogram `base`'s p50, skipping label sets
/// that saw no samples.
double median_p50(const rows_t& rows, const std::string& base) {
  std::unordered_map<std::string, double> count;
  for (const auto& r : rows) {
    if (row_is(r.name, base + "_count")) {
      count[r.name.substr(base.size() + 6)] = r.value;
    }
  }
  std::vector<double> p50s;
  for (const auto& r : rows) {
    if (!row_is(r.name, base + "_p50")) continue;
    const auto it = count.find(r.name.substr(base.size() + 4));
    if (it != count.end() && it->second > 0) p50s.push_back(r.value);
  }
  return median(p50s);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Samples a unit needs for its 99th percentile to be reported.
constexpr std::uint64_t k_p99_ops = 100 * k_min_beyond;

double required(std::optional<double> v, const std::string& what) {
  if (!v) {
    throw std::runtime_error("too few samples for " + what + " (need " +
                             std::to_string(k_min_beyond) +
                             " beyond the percentile)");
  }
  return *v;
}

/// Registry deltas of the measured intervals of a run, summed; histogram
/// medians are kept per interval and reported as their median.
struct layer_counts {
  double frames{0}, bytes{0}, writevs{0};
  double admissions{0}, window_full{0}, key_busy{0};
  double fsyncs{0}, log_bytes{0}, snapshots{0};
  double parks{0}, nacks{0};
  std::vector<double> flush_p50{}, serve_p50{};

  void add(const rows_t& rows) {
    frames += sum_rows(rows, "fastreg_net_frames_out_total");
    bytes += sum_rows(rows, "fastreg_net_bytes_out_total");
    writevs += sum_rows(rows, "fastreg_net_writev_calls_total");
    const std::string adm = "fastreg_store_admission_total";
    admissions += sum_rows(rows, adm);
    window_full += sum_rows(rows, adm, "window_full");
    key_busy += sum_rows(rows, adm, "key_busy");
    fsyncs += sum_rows(rows, "fastreg_persist_fsyncs_total");
    log_bytes += sum_rows(rows, "fastreg_persist_log_bytes_total");
    snapshots += sum_rows(rows, "fastreg_persist_snapshots_total");
    parks += sum_rows(rows, "fastreg_store_parks_total");
    nacks += sum_rows(rows, "fastreg_store_epoch_nacks_total");
    flush_p50.push_back(median_p50(rows, "fastreg_net_flush_ns"));
    serve_p50.push_back(median_p50(rows, "fastreg_store_serve_ns"));
  }

  void report(double ops, run_result& out) {
    out.layer["net.frames_out_per_op"] = ratio(frames, ops);
    out.layer["net.bytes_out_per_op"] = ratio(bytes, ops);
    out.layer["net.frames_per_writev"] = ratio(frames, writevs);
    out.layer["net.flush_ns_p50"] = median(flush_p50);
    out.layer["store.serve_ns_p50"] = median(serve_p50);
    out.layer["store.window_full_share"] = ratio(window_full, admissions);
    out.layer["store.key_busy_share"] = ratio(key_busy, admissions);
    out.layer["persist.fsyncs_per_op"] = ratio(fsyncs, ops);
    out.layer["persist.log_bytes_per_op"] = ratio(log_bytes, ops);
    out.layer["persist.snapshots_per_kop"] = 1000 * ratio(snapshots, ops);
    out.layer["reconfig.parks_per_kop"] = 1000 * ratio(parks, ops);
    out.layer["reconfig.epoch_nacks_per_kop"] = 1000 * ratio(nacks, ops);
  }
};

/// End-to-end figures of a run's measured units: its segments on TCP, its
/// probe blocks on sim_verify. Each metric is reported at the better
/// quartile over the units of that unit's figure, so units disturbed by
/// the host do not move the run's number; counts and rounds are pooled.
struct segment_stats {
  std::vector<double> get_p50{}, get_p99{}, put_p50{}, put_p99{};
  std::vector<double> ops_per_s{};
  window_summary pooled{};

  void add(window_summary w, double ops_per_second) {
    get_p50.push_back(required(percentile(w.get_us, 50), "get_p50_us"));
    get_p99.push_back(required(percentile(w.get_us, 99), "get_p99_us"));
    put_p50.push_back(required(percentile(w.put_us, 50), "put_p50_us"));
    put_p99.push_back(required(percentile(w.put_us, 99), "put_p99_us"));
    ops_per_s.push_back(ops_per_second);
    pooled.absorb(w);
  }

  void report(run_result& out) {
    out.attempted = pooled.attempted;
    out.failed = pooled.failed;
    out.samples["get_ops"] = static_cast<double>(pooled.get_us.size());
    out.samples["put_ops"] = static_cast<double>(pooled.put_us.size());
    out.samples["units"] = static_cast<double>(ops_per_s.size());
    out.e2e["get_p50_us"] = better_quartile(get_p50, false);
    out.e2e["get_p99_us"] = better_quartile(get_p99, false);
    out.e2e["put_p50_us"] = better_quartile(put_p50, false);
    out.e2e["put_p99_us"] = better_quartile(put_p99, false);
    out.e2e["ops_per_s"] = better_quartile(ops_per_s, true);
    out.e2e["completed_share"] = pooled.completed_share();
    out.layer["registers.get_rounds_mean"] = pooled.get_rounds_mean;
    out.layer["registers.put_rounds_mean"] = pooled.put_rounds_mean;
  }
};

/// Get latencies of recorded and untraced slices, for
/// obs.record_overhead_pct.
struct overhead_split {
  std::vector<double> on{}, off{};

  void add(const std::vector<op_sample>& ops, std::uint64_t start,
           std::uint64_t end, const slice_plan& plan) {
    for (const auto& op : ops) {
      if (op.is_put || !op.t1 || op.t0 < start || op.t0 >= end) continue;
      (plan.traced(op.t0) ? on : off)
          .push_back(static_cast<double>(*op.t1 - op.t0) / 1e3);
    }
  }

  void report(run_result& out) {
    const double p_on = required(percentile(on, 50), "traced get p50");
    const double p_off = required(percentile(off, 50), "untraced get p50");
    out.layer["obs.record_overhead_pct"] = (p_on / p_off - 1) * 100;
  }
};

/// Checks `hist` with `mode`, adding the checker's time and op count to
/// `ns` and `ops`; the first failure, with the seed and the failing key,
/// lands in `out`.
void verify_into(const fastreg::store::store_histories& hist,
                 verify_mode mode, std::uint64_t seed, double& ns,
                 double& ops, run_result& out) {
  std::string bad_key;
  const std::uint64_t t0 = now_ns();
  const auto check = hist.verify(mode, &bad_key);
  ns += static_cast<double>(now_ns() - t0);
  ops += static_cast<double>(hist.total_ops());
  if (!check.ok && out.correct) {
    out.correct = false;
    out.failure = "history not linearizable: seed=" + std::to_string(seed) +
                  " key=" + bad_key + ": " + check.error;
  }
}

// ------------------------------------------------------------- TCP --

struct tcp_spec {
  std::uint32_t S, t, R, W;
  const char* protocol;
  std::uint32_t num_keys;
  /// Per-session window; fast_read keeps one op outstanding overall.
  std::uint32_t depth;
  bool persist;
  verify_mode mode;
};

/// Sessions are declared after the store so they are destroyed first.
struct deployment {
  std::unique_ptr<fastreg::store::tcp_store> ts;
  std::vector<std::unique_ptr<async_session>> writers;
  std::vector<std::unique_ptr<async_session>> readers;

  void teardown() {
    readers.clear();
    writers.clear();
    if (ts) ts->stop();
    ts.reset();
  }
};

/// One op: a non-blocking admission attempt, then the blocking submit
/// when the window or the key pushed back. False when that timed out.
bool submit(async_session& s, const std::string& key, bool is_put,
            const std::string& v) {
  const auto st = is_put ? s.try_put(key, v) : s.try_get(key);
  if (st == submit_status::submitted) return true;
  return is_put ? s.put(key, v) : s.get(key);
}

/// Builds, starts, connects and seeds one deployment: every key is put
/// once and every reader reads once, so every client holds a connection
/// to every server before the window opens.
deployment deploy(const tcp_spec& sp, const std::string& dir) {
  fastreg::store::store_config cfg;
  cfg.base.servers = sp.S;
  cfg.base.t_failures = sp.t;
  cfg.base.readers = sp.R;
  cfg.base.writers = sp.W;
  cfg.num_shards = 4;
  cfg.shard_protocols = {sp.protocol};
  if (sp.persist) {
    std::filesystem::create_directories(dir);
    cfg.persist.dir = dir;
    cfg.persist.fsync = fastreg::persist::fsync_policy::every_op;
  }
  fastreg::net::node_options nopt;  // batch window 0: flush every step
  nopt.reactors = 1;
  fastreg::net::cluster_options copt;
  copt.client_hub = true;
  copt.hub_reactors = 1;
  copt.server_reactors = 1;

  deployment d;
  d.ts = std::make_unique<fastreg::store::tcp_store>(cfg, nopt, copt);
  d.ts->start();
  for (std::uint32_t j = 0; j < sp.W; ++j) {
    d.writers.push_back(d.ts->open_session(fastreg::writer_id(j), sp.depth));
  }
  for (std::uint32_t i = 0; i < sp.R; ++i) {
    d.readers.push_back(d.ts->open_session(fastreg::reader_id(i), sp.depth));
  }
  for (std::uint32_t k = 0; k < sp.num_keys; ++k) {
    if (!submit(*d.writers[k % sp.W], key_name(k), true,
                "seed:" + std::to_string(k))) {
      throw std::runtime_error("seeding put timed out");
    }
  }
  for (auto* group : {&d.writers, &d.readers}) {
    for (auto& s : *group) {
      if (s->client_id().is_reader() && !submit(*s, key_name(0), false, "")) {
        throw std::runtime_error("connection get timed out");
      }
      if (!s->drain()) throw std::runtime_error("seeding did not drain");
      (void)s->take_results();
    }
  }
  return d;
}

/// After the window: kill the last server, time its restart (replaying
/// its log and snapshot when persistence is on), then check a put and a
/// get of the same key through the rejoined fleet.
bool restart_probe(deployment& d, const tcp_spec& sp, std::uint64_t seed,
                   run_result& out) {
  const std::string replayed = "fastreg_persist_replayed_records_total";
  const double before = sum_rows(fastreg::obs::snapshot(), replayed);
  const std::uint32_t victim = sp.S - 1;
  d.ts->cluster().server(victim).stop();
  const std::uint64_t t0 = now_ns();
  d.ts->restart_server(victim);
  out.layer["persist.restart_ms"] = static_cast<double>(now_ns() - t0) / 1e6;
  out.layer["persist.replayed_records"] =
      sum_rows(fastreg::obs::snapshot(), replayed) - before;
  const std::string val = "probe:" + std::to_string(seed);
  if (!d.ts->put(0, key_name(0), val)) return false;
  const auto got = d.ts->get(0, key_name(0));
  return got && got->val == val;
}

/// Hop ledger over what the rings hold of a segment's recorded slice,
/// merged across nodes with the timeline tools, appended to `led`.
void add_ledger(const std::vector<op_sample>& ops, std::uint32_t quorum,
                hop_ledger& led) {
  std::vector<std::vector<fastreg::obs::timeline_event>> per_node;
  for (const auto& [node, text] : fastreg::obs::recorder_dump_all()) {
    per_node.push_back(fastreg::obs::parse_recorder_dump(text));
  }
  auto seg = build_ledger(fastreg::obs::merge_events(std::move(per_node)),
                          ops, quorum);
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(led.c2s_us, seg.c2s_us);
  append(led.server_us, seg.server_us);
  append(led.s2c_us, seg.s2c_us);
  append(led.residual_us, seg.residual_us);
  led.ops_used += seg.ops_used;
  led.ops_skipped += seg.ops_skipped;
}

void report_ledger(hop_ledger& led, run_result& out) {
  out.samples["ledger_ops"] = static_cast<double>(led.ops_used);
  out.samples["ledger_skipped"] = static_cast<double>(led.ops_skipped);
  out.layer["net.c2s_us_p50"] = required(percentile(led.c2s_us, 50), "c2s");
  out.layer["net.s2c_us_p50"] = required(percentile(led.s2c_us, 50), "s2c");
  out.layer["store.server_hop_us_p50"] =
      required(percentile(led.server_us, 50), "server hop");
  out.layer["store.client_residual_us_p50"] =
      required(percentile(led.residual_us, 50), "client residual");
}

/// What a workload's closed loop reports back from one segment.
struct segment_load {
  std::uint64_t end{0};  ///< window end: later invocations are not counted
  std::uint64_t submit_failures{0};
  std::vector<double> admission_us{};
};

/// Drives one deployment's closed loop from now until `stop` with op
/// streams derived from `seed`, applying `plan` to the recorder, and
/// drains every session before returning.
using load_fn = segment_load (*)(deployment&, const tcp_spec&,
                                 std::uint64_t seed, std::uint64_t stop,
                                 const slice_plan& plan);

/// fast_read's loop: one driver thread keeps exactly one op outstanding,
/// 90% gets spread over the readers, 10% puts by the single writer,
/// uniform over the keys. A segment that the host slowed so much that it
/// holds too few puts for their 99th percentile runs on until it does, for
/// at most twice its length again, so a run still ends in time.
segment_load fast_read_load(deployment& d, const tcp_spec& sp,
                            std::uint64_t seed, std::uint64_t stop,
                            const slice_plan& plan) {
  segment_load out;
  const std::uint64_t last_stop = stop + 2 * (stop - now_ns());
  rng r = stream_rng(seed, 0);
  std::uint64_t puts = 0, completed_puts = 0;
  std::uint32_t next_reader = 0;
  for (;;) {
    const std::uint64_t t = now_ns();
    if (t >= last_stop || (t >= stop && completed_puts >= k_p99_ops)) {
      out.end = t;
      break;
    }
    plan.apply(t);
    const bool is_put = r.below(100) < 10;
    const std::string key =
        key_name(static_cast<std::uint32_t>(r.below(sp.num_keys)));
    auto& s = is_put ? *d.writers[0] : *d.readers[next_reader++ % sp.R];
    const std::string val = is_put ? "v" + std::to_string(++puts) : "";
    if (!submit(s, key, is_put, val)) {
      ++out.submit_failures;
      continue;
    }
    out.admission_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
    // An op still in flight after the drain counts as failed.
    if (s.drain() && is_put) ++completed_puts;
    (void)s.take_results();
  }
  return out;
}

/// durable_mix's loop: two driver threads each alternate between one
/// writer session (puts) and one reader session (gets), keys Zipf(0.99);
/// the calling thread keeps time and switches the recorder.
segment_load durable_mix_load(deployment& d, const tcp_spec& sp,
                              std::uint64_t seed, std::uint64_t stop,
                              const slice_plan& plan) {
  const fastreg::benchutil::zipf_sampler zipf(sp.num_keys, 0.99);
  constexpr std::uint32_t k_threads = 2;
  std::atomic<bool> stop_flag{false};
  std::atomic<std::uint64_t> submit_failures{0};
  std::vector<std::vector<double>> adm(k_threads);
  plan.apply(now_ns());
  std::vector<std::thread> threads;
  for (std::uint32_t th = 0; th < k_threads; ++th) {
    threads.emplace_back([&, th] {
      async_session* ses[2] = {d.writers[th].get(), d.readers[th].get()};
      rng rs[2] = {stream_rng(seed, 2 * th), stream_rng(seed, 2 * th + 1)};
      std::uint64_t seq = 0;
      const std::string tag = "w" + std::to_string(th) + ":";
      while (!stop_flag.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 2; ++k) {
          const bool is_put = k == 0;
          const std::string key = key_name(zipf.sample(rs[k]));
          const std::string val = is_put ? tag + std::to_string(++seq) : "";
          const std::uint64_t t = now_ns();
          if (!submit(*ses[k], key, is_put, val)) {
            submit_failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          adm[th].push_back(static_cast<double>(now_ns() - t) / 1e3);
          (void)ses[k]->take_results();
        }
      }
    });
  }
  for (std::uint64_t t = now_ns(); t < stop; t = now_ns()) {
    plan.apply(t);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<std::uint64_t>(10, (stop - t) / 1'000'000 + 1)));
  }
  stop_flag.store(true);
  segment_load out;
  out.end = now_ns();
  for (auto& t : threads) t.join();
  for (auto* group : {&d.writers, &d.readers}) {
    for (auto& s : *group) {
      (void)s->drain();  // ops still in flight count as failed
      (void)s->take_results();
    }
  }
  out.submit_failures = submit_failures.load();
  for (auto& v : adm) {
    out.admission_us.insert(out.admission_us.end(), v.begin(), v.end());
  }
  return out;
}

/// A TCP workload: segments of about k_segment_ns, each on a freshly
/// deployed and seeded fleet, share the window. Latency samples, failures
/// and registry deltas are pooled over the segments; the restart probe
/// runs on the last one. A traced run records half of every segment.
run_result run_tcp(const run_args& a, const tcp_spec& sp, load_fn load) {
  run_result out;
  const std::string dir = a.tmp_dir + "/persist";
  const int segments = segment_count(a.seconds);
  const std::uint64_t seg_ns =
      static_cast<std::uint64_t>(a.seconds) * 1'000'000'000 / segments;
  std::vector<double> setup_s, admission_us;
  segment_stats segs;
  layer_counts counts;
  overhead_split overhead;
  hop_ledger led;
  double verify_ns = 0, verified_ops = 0;
  bool probe_ok = true;
  for (int seg = 0; seg < segments; ++seg) {
    std::filesystem::remove_all(dir);
    const std::uint64_t t0 = now_ns();
    deployment d = deploy(sp, dir);
    setup_s.push_back(seconds_since(t0));

    // Histograms are levels: zero them so each segment's medians cover
    // its window only; counters are read as interval deltas.
    fastreg::obs::reset_metrics();
    fastreg::obs::recorder_reset_all();
    fastreg::obs::interval_scrape scrape;
    const std::uint64_t start = now_ns();
    const slice_plan plan(start, seg_ns, a.trace, seg);
    const auto seg_load =
        load(d, sp, a.seed * 1'000'003 + seg, start + seg_ns, plan);
    fastreg::obs::set_recording(false);
    counts.add(scrape.take());
    d.readers.clear();
    d.writers.clear();
    if (seg == segments - 1) probe_ok = restart_probe(d, sp, a.seed, out);

    const auto hist = d.ts->gather();
    const auto ops = flatten(hist);
    const auto w =
        summarize(ops, start, seg_load.end, seg_load.submit_failures);
    segs.add(w, static_cast<double>(w.completed()) * 1e9 /
                    static_cast<double>(seg_load.end - start));
    admission_us.insert(admission_us.end(), seg_load.admission_us.begin(),
                        seg_load.admission_us.end());
    verify_into(hist, sp.mode, a.seed, verify_ns, verified_ops, out);
    if (a.trace) {
      overhead.add(ops, start, seg_load.end, plan);
      add_ledger(ops, sp.S - sp.t, led);
    }
    d.teardown();
  }
  std::filesystem::remove_all(dir);
  if (!probe_ok && out.correct) {
    out.correct = false;
    out.failure = "post-restart probe did not read its own put: seed=" +
                  std::to_string(a.seed) + " key=" + key_name(0);
  }

  out.e2e["setup_s"] = better_quartile(setup_s, false);
  segs.report(out);
  counts.report(static_cast<double>(segs.pooled.completed()), out);
  out.layer["checker.verify_ns_per_op"] = ratio(verify_ns, verified_ops);
  out.layer["store.admission_wait_us_p50"] =
      required(percentile(admission_us, 50), "admission wait");
  if (a.trace) {
    overhead.report(out);
    report_ledger(led, out);
  }
  return out;
}

// ------------------------------------------------------------- sim --

/// The probe deployment of sim_verify: the stress configuration without
/// faults, driven one op at a time through blocking sim sessions, so
/// get/put latencies are wall-clock times of one simulated op.
struct sim_probe {
  static constexpr std::uint32_t k_keys = 64;

  fastreg::store::sim_store s;
  rng r;
  fastreg::store::sim_frontend fe;
  std::vector<std::unique_ptr<async_session>> writers, readers;

  sim_probe(const fastreg::store::store_config& cfg, std::uint64_t seed)
      : s(cfg), r(seed), fe(s, r) {
    for (std::uint32_t j = 0; j < cfg.base.W(); ++j) {
      writers.push_back(fe.open_session(fastreg::writer_id(j), 1));
    }
    for (std::uint32_t i = 0; i < cfg.base.R(); ++i) {
      readers.push_back(fe.open_session(fastreg::reader_id(i), 1));
    }
    for (std::uint32_t k = 0; k < k_keys; ++k) {
      if (!one(*writers[k % writers.size()], key_name(k), true,
               "seed:" + std::to_string(k))) {
        throw std::runtime_error("sim seeding wedged");
      }
    }
  }
  sim_probe(const sim_probe&) = delete;
  sim_probe& operator=(const sim_probe&) = delete;

  /// One blocking op run to completion; false if the schedule wedged.
  static bool one(async_session& ses, const std::string& key, bool is_put,
                  const std::string& v) {
    const bool ok = (is_put ? ses.put(key, v) : ses.get(key)) && ses.drain();
    (void)ses.take_results();
    return ok;
  }
};

/// Restart probe on the sim deployment: crash the last server, time its
/// rebuild, then read back a fresh put through the rejoined fleet.
bool sim_restart_probe(sim_probe& p, std::uint64_t seed, run_result& out) {
  const std::uint32_t victim = p.s.config().base.S() - 1;
  p.s.world().crash(fastreg::server_id(victim));
  const std::uint64_t t0 = now_ns();
  p.s.restart_server(victim);
  out.layer["persist.restart_ms"] = static_cast<double>(now_ns() - t0) / 1e6;
  out.layer["persist.replayed_records"] = 0;
  const std::string val = "probe:" + std::to_string(seed);
  bool read_own = false;
  if (sim_probe::one(*p.writers[0], key_name(0), true, val) &&
      p.readers[0]->get(key_name(0)) && p.readers[0]->drain()) {
    for (const auto& res : p.readers[0]->take_results()) {
      read_own = res.val == val;
    }
  }
  return read_own;
}

/// Pins the calling thread to each CPU it may run on, in turn, and gives
/// it its whole set back when destroyed. On a shared VM each vCPU's speed
/// moves by up to 2x for seconds to minutes at a time, independently of
/// the others; single-threaded work that visits every vCPU sees their
/// average instead of the one the scheduler happened to keep it on.
class cpu_rotation {
 public:
  cpu_rotation() {
    CPU_ZERO(&all_);
    if (::sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~cpu_rotation() {
    if (!cpus_.empty()) (void)::sched_setaffinity(0, sizeof(all_), &all_);
  }
  cpu_rotation(const cpu_rotation&) = delete;
  cpu_rotation& operator=(const cpu_rotation&) = delete;

  /// Moves the calling thread to the next CPU.
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)::sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_{};
  std::size_t next_{0};
};

/// sim_verify: repeated run_sim_stress calls (adversarial reordering, a
/// server crash at 1/3 of each call, a concurrent live reshard 4 -> 8
/// shards, MWMR check of every key) on one thread, each followed by a
/// block of probe ops whose wall-clock spans give the op latencies. Each
/// call and its block run on the next CPU in turn, and each block is one
/// measured unit. The window is cut into segments like the TCP ones; each
/// segment gets a fresh probe deployment.
run_result sim_verify(const run_args& a) {
  run_result out;
  fastreg::store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 3;
  cfg.base.writers = 2;
  cfg.num_shards = 4;
  cfg.shard_protocols = {"mwmr"};

  fastreg::benchutil::stress_options so;
  so.protocol = "mwmr";
  so.num_shards = 4;
  so.num_keys = 64;
  so.S = 5;
  so.t = 1;
  so.R = 3;
  so.W = 2;
  so.puts_per_writer = 1500;
  so.gets_per_reader = 1500;
  so.crash_servers = 1;
  so.reshard = true;
  so.reshard_num_shards = 8;
  so.label = a.tmp_dir + "/sim_verify";

  // A block holds about 1250 gets and 1250 puts: more than ten of each
  // beyond its 99th percentile.
  constexpr int k_probe_ops = 2500;
  // A sim set-up takes about a millisecond: time several per segment, on
  // every CPU in turn, so the run's set-up figure spans the run.
  constexpr int k_setups = 12;
  cpu_rotation cpus;
  rng r = stream_rng(a.seed, 0);
  std::vector<double> setup_s, admission_us;
  std::uint64_t stress_ops = 0, stress_failures = 0, call = 0;
  segment_stats blocks;
  overhead_split overhead;
  layer_counts counts, first_call;
  double first_call_ops = 0;
  window_summary rounds;
  double verify_ns = 0, verified_ops = 0;
  bool read_own = false;
  std::unique_ptr<sim_probe> probe;
  const int segments = segment_count(a.seconds);
  const std::uint64_t seg_ns =
      static_cast<std::uint64_t>(a.seconds) * 1'000'000'000 / segments;
  for (int seg = 0; seg < segments; ++seg) {
    for (int i = 0; i < k_setups; ++i) {
      cpus.next();
      probe.reset();
      const std::uint64_t t0 = now_ns();
      probe = std::make_unique<sim_probe>(cfg, a.seed + seg);
      setup_s.push_back(seconds_since(t0));
    }
    fastreg::obs::reset_metrics();
    fastreg::obs::recorder_reset_all();
    fastreg::obs::interval_scrape scrape;
    const std::uint64_t start = now_ns();
    const slice_plan plan(start, seg_ns, a.trace, seg);
    std::uint64_t end = start;
    do {
      cpus.next();
      plan.apply(now_ns());
      so.seed = a.seed * 1'000'003 + call;
      fastreg::obs::interval_scrape call_scrape;
      const std::uint64_t t0 = now_ns();
      const auto rep = fastreg::benchutil::run_sim_stress(so);
      const std::uint64_t stress_ns = now_ns() - t0;
      if (call++ == 0) {
        // One seed-determined call, so reconfig.* repeat exactly per seed.
        first_call.add(call_scrape.take());
        first_call_ops = static_cast<double>(rep.total_ops);
      }
      stress_ops += rep.total_ops;
      stress_failures += rep.op_failures;
      if (!rep.ok() && out.correct) {
        out.correct = false;
        out.failure = "stress contract failed: " + rep.describe();
      }
      std::vector<op_sample> block;
      block.reserve(k_probe_ops);
      const std::uint64_t block_start = now_ns();
      for (int i = 0; i < k_probe_ops; ++i) {
        const bool is_put = r.below(2) == 0;
        const std::string key =
            key_name(static_cast<std::uint32_t>(r.below(sim_probe::k_keys)));
        auto& ses = is_put ? *probe->writers[r.below(probe->writers.size())]
                           : *probe->readers[r.below(probe->readers.size())];
        std::string val = "p";
        val += std::to_string(call);
        val += ':';
        val += std::to_string(i);
        op_sample op;
        op.is_put = is_put;
        op.t0 = now_ns();
        const bool ok = is_put ? ses.put(key, val) : ses.get(key);
        admission_us.push_back(static_cast<double>(now_ns() - op.t0) / 1e3);
        if (ok && ses.drain()) op.t1 = now_ns();
        (void)ses.take_results();
        block.push_back(op);
      }
      end = now_ns();
      blocks.add(summarize(block, block_start, end, 0),
                 static_cast<double>(rep.total_ops) * 1e9 /
                     static_cast<double>(stress_ns));
      if (a.trace) overhead.add(block, block_start, end, plan);
    } while (end < start + seg_ns);
    fastreg::obs::set_recording(false);
    counts.add(scrape.take());
    if (seg == segments - 1) read_own = sim_restart_probe(*probe, a.seed, out);
    // The probe's own history (simulator stamps) is what the checker
    // verifies and where rounds per op come from.
    const auto& hist = probe->s.histories();
    verify_into(hist, verify_mode::mwmr, a.seed, verify_ns, verified_ops, out);
    rounds.absorb(summarize(flatten(hist), 0, ~0ull, 0));
  }
  out.e2e["setup_s"] = better_quartile(setup_s, false);
  if (!read_own && out.correct) {
    out.correct = false;
    out.failure = "post-restart probe did not read its own put: seed=" +
                  std::to_string(a.seed) + " key=" + key_name(0);
  }

  blocks.report(out);
  out.layer["registers.get_rounds_mean"] = rounds.get_rounds_mean;
  out.layer["registers.put_rounds_mean"] = rounds.put_rounds_mean;
  out.attempted += stress_ops + stress_failures;
  out.failed += stress_failures;
  out.e2e["completed_share"] =
      ratio(static_cast<double>(out.attempted - out.failed),
            static_cast<double>(out.attempted));
  out.samples["stress_ops"] = static_cast<double>(stress_ops);

  counts.report(static_cast<double>(stress_ops + blocks.pooled.completed()),
                out);
  out.layer["reconfig.parks_per_kop"] =
      1000 * ratio(first_call.parks, first_call_ops);
  out.layer["reconfig.epoch_nacks_per_kop"] =
      1000 * ratio(first_call.nacks, first_call_ops);
  out.layer["checker.verify_ns_per_op"] = ratio(verify_ns, verified_ops);
  out.layer["store.admission_wait_us_p50"] =
      required(percentile(admission_us, 50), "admission wait");
  if (a.trace) {
    overhead.report(out);
    // No wire and no reactor: the hop ledger has nothing to split.
    for (const char* n : {"net.c2s_us_p50", "net.s2c_us_p50",
                          "store.server_hop_us_p50",
                          "store.client_residual_us_p50"}) {
      out.layer[n] = 0;
    }
  }
  return out;
}

}  // namespace

run_result run_workload(const run_args& a) {
  if (a.workload == "fast_read") {
    return run_tcp(a,
                   {5, 1, 2, 1, "fast_swmr", 256, 1, false,
                    verify_mode::swmr_atomic},
                   fast_read_load);
  }
  if (a.workload == "durable_mix") {
    return run_tcp(a, {3, 1, 2, 2, "mwmr", 1024, 8, true, verify_mode::mwmr},
                   durable_mix_load);
  }
  if (a.workload == "sim_verify") return sim_verify(a);
  throw std::invalid_argument("unknown workload: " + a.workload);
}

}  // namespace perfbench
