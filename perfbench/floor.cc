#include "floor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "benchutil/workload.h"
#include "metrics.h"
#include "net/framing.h"
#include "net/socket.h"
#include "persist/wal.h"

namespace perfbench {
namespace {

using clock_type = std::chrono::steady_clock;

double since_ns(clock_type::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() -
                                                           t0)
          .count());
}

bool full_io(int fd, char* buf, std::size_t n, bool write_side) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = write_side ? ::write(fd, buf + done, n - done)
                                 : ::read(fd, buf + done, n - done);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

/// Blocking 64-byte ping-pong between this thread and an echo thread.
double loopback_rtt_p50_us() {
  constexpr std::size_t k_msg = 64;
  constexpr int k_trips = 4000;
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  fastreg::net::unique_fd listener(lfd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (lfd < 0 ||
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("floor: cannot listen on loopback");
  }
  fastreg::net::unique_fd client(
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!client.valid() ||
      ::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw std::runtime_error("floor: cannot connect on loopback");
  }
  fastreg::net::unique_fd server(::accept(lfd, nullptr, nullptr));
  if (!server.valid()) throw std::runtime_error("floor: accept failed");
  fastreg::net::set_nodelay(client.get());
  fastreg::net::set_nodelay(server.get());

  std::thread echo([fd = server.get()] {
    char buf[k_msg];
    while (full_io(fd, buf, k_msg, false) && full_io(fd, buf, k_msg, true)) {
    }
  });
  char buf[k_msg] = {};
  std::vector<double> us;
  us.reserve(k_trips);
  for (int i = 0; i < k_trips; ++i) {
    const auto t0 = clock_type::now();
    if (!full_io(client.get(), buf, k_msg, true) ||
        !full_io(client.get(), buf, k_msg, false)) {
      break;
    }
    us.push_back(since_ns(t0) / 1e3);
  }
  ::shutdown(client.get(), SHUT_RDWR);
  echo.join();
  return median(us);
}

fastreg::message sample_message() {
  fastreg::message m;
  m.type = fastreg::msg_type::read_ack;
  m.obj = 0x1234567890abcdefull;
  m.trace = 42;
  m.ts = 1000;
  m.val = "value-0123456789";
  m.prev = "value-9876543210";
  return m;
}

void codec_ns(double& encode_ns, double& decode_ns) {
  constexpr int k_frames = 200'000;
  const auto from = fastreg::server_id(0);
  const auto m = sample_message();
  std::vector<std::uint8_t> out;
  std::size_t bytes = 0;
  auto t0 = clock_type::now();
  for (int i = 0; i < k_frames; ++i) {
    out.clear();
    bytes += fastreg::net::append_msg_frame(out, from, m);
  }
  encode_ns = since_ns(t0) / k_frames;
  if (bytes == 0) throw std::runtime_error("floor: empty frames");

  constexpr int k_stream = 2000;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < k_stream; ++i) {
    (void)fastreg::net::append_msg_frame(stream, from, m);
  }
  std::size_t frames = 0;
  t0 = clock_type::now();
  for (int rep = 0; rep < k_frames / k_stream; ++rep) {
    fastreg::net::frame_buffer fb;
    fb.drain(stream.data(), stream.size(),
             [&frames](fastreg::net::frame&&) { ++frames; });
  }
  decode_ns = since_ns(t0) / static_cast<double>(frames);
  if (frames != static_cast<std::size_t>(k_frames)) {
    throw std::runtime_error("floor: frame decode lost frames");
  }
}

void wal_costs(const std::string& dir, double& append_ns,
               double& fsync_p50_us) {
  const std::string path = dir + "/floor.log";
  std::filesystem::remove(path);
  fastreg::persist::log_record rec;
  rec.obj = 7;
  rec.snap.ts = 1;
  rec.snap.val = "value-0123456789";
  {
    fastreg::persist::wal w(path, fastreg::persist::fsync_policy::never, 0);
    constexpr int k_appends = 20'000;
    const auto t0 = clock_type::now();
    for (int i = 0; i < k_appends; ++i) {
      rec.snap.ts = i + 1;
      w.append(rec);
    }
    append_ns = since_ns(t0) / k_appends;
    if (w.records_appended() != static_cast<std::uint64_t>(k_appends)) {
      throw std::runtime_error("floor: wal append failed in " + dir);
    }
    std::vector<double> us;
    for (int i = 0; i < 64; ++i) {
      w.append(rec);
      const auto t1 = clock_type::now();
      w.sync();
      us.push_back(since_ns(t1) / 1e3);
    }
    fsync_p50_us = median(us);
  }
  std::filesystem::remove(path);
}

void sim_costs(double& ns_per_msg, double& msgs_per_op) {
  fastreg::store::store_config cfg;
  cfg.base.servers = 5;
  cfg.base.t_failures = 1;
  cfg.base.readers = 3;
  cfg.base.writers = 2;
  cfg.num_shards = 4;
  cfg.shard_protocols = {"mwmr"};
  fastreg::benchutil::store_workload_options opt;
  opt.num_keys = 64;
  opt.gets_per_reader = 400;
  opt.puts_per_writer = 400;
  std::vector<double> per_msg;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock_type::now();
    const auto r = fastreg::benchutil::run_store_measured(cfg, opt);
    const double ns = since_ns(t0);
    const double ops = static_cast<double>(r.hist.total_ops());
    if (!r.all_complete || ops == 0 || r.msgs_per_op == 0) {
      throw std::runtime_error("floor: sim workload did not complete");
    }
    per_msg.push_back(ns / (ops * r.msgs_per_op));
    msgs_per_op = r.msgs_per_op;
  }
  ns_per_msg = median(per_msg);
}

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x794c7630ul: return "overlayfs";
    default: return "other";
  }
}

}  // namespace

floor_row measure_floor(const std::string& tmp_dir) {
  std::filesystem::create_directories(tmp_dir);
  floor_row f;
  f.loopback_rtt_p50_us = loopback_rtt_p50_us();
  codec_ns(f.frame_encode_ns, f.frame_decode_ns);
  wal_costs(tmp_dir, f.wal_append_ns, f.wal_fsync_p50_us);
  sim_costs(f.sim_ns_per_msg, f.sim_msgs_per_op);
  f.tmp_fs = fs_type(tmp_dir);
  return f;
}

}  // namespace perfbench
