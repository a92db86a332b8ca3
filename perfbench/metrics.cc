#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "store/shard_map.h"

namespace perfbench {

std::optional<double> percentile(std::vector<double>& samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || p <= 0 || p >= 100) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));  // 1-based
  if (rank < 1 || n - rank < k_min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[rank - 1];
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double median(std::vector<double>& v) { return quantile(v, 0.5); }

double better_quartile(std::vector<double>& v, bool higher_is_better) {
  return quantile(v, higher_is_better ? 0.75 : 0.25);
}

std::vector<op_sample> flatten(const fastreg::store::store_histories& h) {
  std::vector<op_sample> out;
  out.reserve(h.total_ops());
  for (const auto& [key, hist] : h.all()) {
    const std::uint64_t obj = fastreg::store::key_object_id(key);
    for (const auto& op : hist.ops()) {
      out.push_back(op_sample{fastreg::to_string(op.client), obj, op.is_write,
                              op.invoke_time, op.response_time, op.rounds});
    }
  }
  return out;
}

double window_summary::completed_share() const {
  if (attempted == 0) return 1;
  return static_cast<double>(completed()) / static_cast<double>(attempted);
}

void window_summary::absorb(const window_summary& o) {
  const auto mean = [](double a, std::size_t na, double b, std::size_t nb) {
    return na + nb == 0 ? 0.0
                        : (a * static_cast<double>(na) +
                           b * static_cast<double>(nb)) /
                              static_cast<double>(na + nb);
  };
  get_rounds_mean =
      mean(get_rounds_mean, get_us.size(), o.get_rounds_mean, o.get_us.size());
  put_rounds_mean =
      mean(put_rounds_mean, put_us.size(), o.put_rounds_mean, o.put_us.size());
  get_us.insert(get_us.end(), o.get_us.begin(), o.get_us.end());
  put_us.insert(put_us.end(), o.put_us.begin(), o.put_us.end());
  attempted += o.attempted;
  failed += o.failed;
}

window_summary summarize(const std::vector<op_sample>& ops,
                         std::uint64_t start, std::uint64_t end,
                         std::uint64_t submit_failures) {
  window_summary w;
  w.attempted = submit_failures;
  w.failed = submit_failures;
  double get_rounds = 0;
  double put_rounds = 0;
  for (const auto& op : ops) {
    if (op.t0 < start || op.t0 >= end) continue;
    ++w.attempted;
    if (!op.t1) {
      ++w.failed;
      continue;
    }
    const double us = static_cast<double>(*op.t1 - op.t0) / 1e3;
    if (op.is_put) {
      w.put_us.push_back(us);
      put_rounds += op.rounds;
    } else {
      w.get_us.push_back(us);
      get_rounds += op.rounds;
    }
  }
  if (!w.get_us.empty()) {
    w.get_rounds_mean = get_rounds / static_cast<double>(w.get_us.size());
  }
  if (!w.put_us.empty()) {
    w.put_rounds_mean = put_rounds / static_cast<double>(w.put_us.size());
  }
  return w;
}

std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans,
    std::uint64_t lo, std::uint64_t hi) {
  std::sort(spans.begin(), spans.end());
  std::uint64_t total = 0;
  std::uint64_t reach = lo;  // everything below is already counted
  for (auto [a, b] : spans) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (a >= b) continue;
    total += b - a;
    reach = b;
  }
  return total;
}

namespace {

/// Reply type -> the request type whose round it closes. Other types
/// (epoch nacks, reconfiguration traffic) are not rounds of an op.
const std::map<std::string, std::string>& request_of_reply() {
  static const std::map<std::string, std::string> m = {
      {"WRITEACK", "WRITE"}, {"READACK", "READ"},
      {"WBACK", "WB"},       {"QUERYACK", "QUERY"}};
  return m;
}

bool is_request(const std::string& type) {
  return type == "WRITE" || type == "READ" || type == "WB" ||
         type == "QUERY";
}

bool is_client(const std::string& node) {
  return !node.empty() && (node[0] == 'r' || node[0] == 'w');
}

/// Per-server stamps of one round: earliest client send, server recv,
/// server reply send and client reply recv.
struct round_stamps {
  std::map<std::string, std::uint64_t> cs, sr, ss, cr;
};

void keep_min(std::map<std::string, std::uint64_t>& m, const std::string& k,
              std::uint64_t t) {
  auto [it, fresh] = m.emplace(k, t);
  if (!fresh) it->second = std::min(it->second, t);
}

}  // namespace

hop_ledger build_ledger(
    const std::vector<fastreg::obs::timeline_event>& merged,
    const std::vector<op_sample>& ops, std::uint32_t quorum) {
  hop_ledger led;
  if (quorum == 0) return led;

  std::map<std::pair<std::string, std::uint64_t>,
           std::vector<const op_sample*>>
      by_client_obj;
  for (const auto& op : ops) {
    if (op.t1) by_client_obj[{op.client, op.obj}].push_back(&op);
  }
  for (auto& [k, v] : by_client_obj) {
    std::sort(v.begin(), v.end(),
              [](const op_sample* a, const op_sample* b) { return a->t0 < b->t0; });
  }

  std::unordered_map<std::uint64_t,
                     std::vector<const fastreg::obs::timeline_event*>>
      by_trace;
  for (const auto& e : merged) {
    if (e.trace != 0 && !e.sim_domain) by_trace[e.trace].push_back(&e);
  }

  const auto& replies = request_of_reply();
  for (const auto& [trace, evs] : by_trace) {
    std::string client;
    std::uint64_t obj = 0;
    for (const auto* e : evs) {
      if (is_client(e->node)) {
        client = e->node;
        obj = e->obj;
        break;
      }
    }
    if (client.empty()) continue;  // the client's ring lost this trace

    std::map<std::pair<std::uint32_t, std::string>, round_stamps> rounds;
    for (const auto* e : evs) {
      const bool from_client = e->node == client;
      if (!from_client && e->peer != client) continue;
      const auto reply = replies.find(e->type);
      if (from_client && e->ev == "send" && is_request(e->type)) {
        keep_min(rounds[{e->span, e->type}].cs, e->peer, e->t);
      } else if (from_client && e->ev == "recv" && reply != replies.end()) {
        keep_min(rounds[{e->span, reply->second}].cr, e->peer, e->t);
      } else if (!from_client && e->ev == "recv" && is_request(e->type)) {
        keep_min(rounds[{e->span, e->type}].sr, e->node, e->t);
      } else if (!from_client && e->ev == "send" && reply != replies.end()) {
        keep_min(rounds[{e->span, reply->second}].ss, e->node, e->t);
      }
    }

    struct hop {
      std::uint64_t cs, sr, ss, cr;
    };
    std::vector<hop> path;
    bool whole = true;
    for (const auto& [key, r] : rounds) {
      if (r.cs.empty()) continue;  // replies whose round left the ring
      std::vector<std::pair<std::uint64_t, std::string>> acks;
      for (const auto& [srv, t] : r.cr) acks.emplace_back(t, srv);
      std::sort(acks.begin(), acks.end());
      if (acks.size() < quorum) {
        whole = false;
        break;
      }
      const std::string& srv = acks[quorum - 1].second;
      const auto cs = r.cs.find(srv);
      const auto sr = r.sr.find(srv);
      const auto ss = r.ss.find(srv);
      if (cs == r.cs.end() || sr == r.sr.end() || ss == r.ss.end() ||
          !(cs->second <= sr->second && sr->second <= ss->second &&
            ss->second <= acks[quorum - 1].first)) {
        whole = false;
        break;
      }
      path.push_back({cs->second, sr->second, ss->second,
                      acks[quorum - 1].first});
    }
    const op_sample* op = nullptr;
    if (whole && !path.empty()) {
      std::uint64_t first = path.front().cs;
      for (const auto& h : path) first = std::min(first, h.cs);
      const auto it = by_client_obj.find({client, obj});
      if (it != by_client_obj.end()) {
        const auto& v = it->second;
        auto pos = std::upper_bound(
            v.begin(), v.end(), first,
            [](std::uint64_t t, const op_sample* o) { return t < o->t0; });
        if (pos != v.begin() && *(*std::prev(pos))->t1 >= first) {
          op = *std::prev(pos);
        }
      }
    }
    if (op == nullptr ||
        (op->rounds > 0 && path.size() != static_cast<std::size_t>(op->rounds))) {
      ++led.ops_skipped;
      continue;
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    for (const auto& h : path) {
      led.c2s_us.push_back(static_cast<double>(h.sr - h.cs) / 1e3);
      led.server_us.push_back(static_cast<double>(h.ss - h.sr) / 1e3);
      led.s2c_us.push_back(static_cast<double>(h.cr - h.ss) / 1e3);
      spans.emplace_back(h.cs, h.cr);
    }
    const std::uint64_t lat = *op->t1 - op->t0;
    const std::uint64_t hops = covered_ns(std::move(spans), op->t0, *op->t1);
    led.residual_us.push_back(static_cast<double>(lat - hops) / 1e3);
    ++led.ops_used;
  }
  return led;
}

}  // namespace perfbench
