// Benchmark driver: runs one workload for a wall-time budget and prints one
// JSON line of medians, counts and a result digest (run.py turns it into the
// benchmark's result line and checks the digest).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--size full|tiny] [--work-dir <dir>]
//
// Workloads (layers.json says why each was chosen):
//   perm_ndp_k32     k=32 FatTree, one finite NDP flow per host to a seeded
//                    permutation partner, run to completion.
//   campaign_mix_k4  campaign_runner over k=4 incast jobs,
//                    {NDP, TCP, DCQCN} x fan-in x seed, 4 workers.
//   rpc_churn_k8     k=8 FatTree, open-loop Poisson arrivals of NDP flows
//                    with web sizes through flow_recycler.  Not in
//                    BENCHMARK.json: the simulator fails it on some seeds
//                    (layers.json, "dropped_because").
//
// A run repeats its workload (set-up included) until the budget is spent and
// reports medians over the repetitions.  Every repetition of one seed must
// reproduce the same digest and the same simulator counts; the driver fails
// the run otherwise.  With --trace 1 it alternates untraced and traced
// repetitions: traced ones record spans around the calls into each layer and
// attach a telemetry plane, and must still reproduce the untraced digest.
// Spans are kept in memory and written to <work-dir>/spans-*.json at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness/campaign_runner.h"
#include "harness/experiments.h"
#include "harness/flow_recycler.h"
#include "sim/telemetry.h"
#include "topo/path_table.h"
#include "workload/size_distributions.h"
#include "workload/traffic_matrix.h"

using namespace ndpsim;
namespace fs = std::filesystem;

namespace {

using steady = std::chrono::steady_clock;
const steady::time_point g_t0 = steady::now();

double wall_now() {
  return std::chrono::duration<double>(steady::now() - g_t0).count();
}

/// Process CPU seconds (all threads, user + system).
double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return fnv1a_64(&v, sizeof v, h);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans: (name, start, end, parent), kept in memory while a traced
// repetition runs.  A null tracer records nothing, so untraced repetitions
// pay one branch per layer call.
// ---------------------------------------------------------------------------

struct span {
  std::string name;
  double start = 0;
  double end = -1;
  int parent = -1;
};

class tracer {
 public:
  int open(std::string name, int parent) {
    const double t = wall_now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(span{std::move(name), t, -1, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const double t = wall_now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  /// Summed duration of spans named `name` opened at index >= `from`.
  double total(const std::string& name, std::size_t from) {
    std::lock_guard<std::mutex> lk(mu_);
    double s = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].name == name) s += spans_[i].end - spans_[i].start;
    }
    return s;
  }
  /// Writes, per span name, the count, total and self time over every
  /// traced repetition, and the raw spans of the last one.  A span's self
  /// time is its duration minus the union of its children's intervals
  /// (campaign jobs overlap across workers).
  void write(const std::string& path, const std::string& header) {
    std::vector<std::vector<int>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        kids[static_cast<std::size_t>(spans_[i].parent)].push_back(
            static_cast<int>(i));
      }
    }
    struct agg {
      std::size_t count = 0;
      double total = 0;
      double self = 0;
    };
    std::map<std::string, agg> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::vector<std::pair<double, double>> iv;
      for (int k : kids[i]) {
        const span& c = spans_[static_cast<std::size_t>(k)];
        iv.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      double lo = 0;
      double hi = -1;
      for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
      agg& g = by_name[s.name];
      ++g.count;
      g.total += s.end - s.start;
      g.self += (s.end - s.start) - covered;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{%s,\n\"self_time\": {", header.c_str());
    bool first = true;
    for (const auto& [name, g] : by_name) {
      std::fprintf(f, "%s\n  \"%s\": {\"count\": %zu, \"total_s\": %.9g, "
                   "\"self_s\": %.9g}",
                   first ? "" : ",", name.c_str(), g.count, g.total, g.self);
      first = false;
    }
    // Raw spans of the last repetition only: a campaign repetition alone
    // holds thousands.
    std::size_t last_root = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) last_root = i;
    }
    std::fprintf(f, "},\n\"spans_of_last_repetition\": [");
    for (std::size_t i = last_root; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": "
                   "%.9f, \"end_s\": %.9f, \"parent\": %d}",
                   i == last_root ? "" : ",", i, s.name.c_str(), s.start,
                   s.end, s.parent);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  std::mutex mu_;
  std::vector<span> spans_;
};

/// RAII span; a no-op when `t` is null.
class scoped_span {
 public:
  scoped_span(tracer* t, const char* name, int parent)
      : t_(t), id_(t != nullptr ? t->open(name, parent) : -1) {}
  ~scoped_span() {
    if (t_ != nullptr) t_->close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// One repetition's measurements.
// ---------------------------------------------------------------------------

using metric_map = std::map<std::string, double>;

struct rep_result {
  // Host cost (end-to-end).
  double setup_s = 0;
  double run_cpu_s = 0;
  double jobs_per_s = 0;
  // Modelled network: a pure function of the seed.
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;  ///< flows started
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< flows incomplete, or of failed jobs
  bool flat_dispatch = false;   ///< every env ran with flat dispatch on
  metric_map sim;               ///< sim_* end-to-end metrics
  // Per layer.
  metric_map exact;   ///< sim.*, ndp.*, net.* counts: must repeat exactly
  metric_map layer;   ///< timings, sizes and other per-layer values
};

/// Where a workload's per-layer counters come from.
struct counters {
  event_list::dispatch_counters dispatch;
  ndp_source_stats ndp;
  telemetry_counters queues;
  telemetry_counters pipes;
  telemetry_counters demuxes;
  std::size_t pool_capacity = 0;
  std::uint64_t stale_drops = 0;
  bool flat_dispatch = true;  ///< every env ran with flat dispatch on

  void add_env(const sim_env& env) {
    flat_dispatch = flat_dispatch && env.events.flat_dispatch_enabled();
    const auto& d = env.events.dispatch_stats();
    dispatch.heap_events += d.heap_events;
    dispatch.lane_events += d.lane_events;
    dispatch.flat_events += d.flat_events;
    dispatch.flat_runs += d.flat_runs;
    pool_capacity = std::max(pool_capacity, env.pool.capacity());
  }
  void add_ndp(const ndp_source_stats& s) {
    ndp.packets_sent += s.packets_sent;
    ndp.rtx_sent += s.rtx_sent;
    ndp.rtx_after_nack += s.rtx_after_nack;
    ndp.rtx_after_bounce += s.rtx_after_bounce;
    ndp.rtx_after_timeout += s.rtx_after_timeout;
    ndp.pulls_received += s.pulls_received;
  }
  void add_flows(const flow_factory& ff) {
    for (const auto& f : ff.flows()) {
      if (f != nullptr && f->ndp_src() != nullptr) add_ndp(f->ndp_src()->stats());
    }
  }
  void add_plane(const telemetry_plane& p) {
    add_counters(queues, p.totals(telemetry_kind::queue));
    add_counters(pipes, p.totals(telemetry_kind::pipe));
    add_counters(demuxes, p.totals(telemetry_kind::demux));
  }
  void add(const counters& o) {
    dispatch.heap_events += o.dispatch.heap_events;
    dispatch.lane_events += o.dispatch.lane_events;
    dispatch.flat_events += o.dispatch.flat_events;
    dispatch.flat_runs += o.dispatch.flat_runs;
    add_ndp(o.ndp);
    add_counters(queues, o.queues);
    add_counters(pipes, o.pipes);
    add_counters(demuxes, o.demuxes);
    pool_capacity = std::max(pool_capacity, o.pool_capacity);
    stale_drops += o.stale_drops;
    flat_dispatch = flat_dispatch && o.flat_dispatch;
  }
  static void add_counters(telemetry_counters& a, const telemetry_counters& b) {
    a.enq_pkts += b.enq_pkts;
    a.deq_pkts += b.deq_pkts;
    a.drop_pkts += b.drop_pkts;
    a.trim_pkts += b.trim_pkts;
    a.bounce_pkts += b.bounce_pkts;
    a.mark_pkts += b.mark_pkts;
    a.stale_drops += b.stale_drops;
  }

  /// sim.*, ndp.* and (traced) net.* counts.
  void emit(metric_map& exact, bool traced) const {
    const double events =
        static_cast<double>(dispatch.heap_events + dispatch.lane_events);
    exact["sim.events"] = events;
    exact["sim.heap_events"] = static_cast<double>(dispatch.heap_events);
    exact["sim.lane_events"] = static_cast<double>(dispatch.lane_events);
    exact["sim.flat_events"] = static_cast<double>(dispatch.flat_events);
    exact["sim.flat_runs"] = static_cast<double>(dispatch.flat_runs);
    exact["ndp.packets_sent"] = static_cast<double>(ndp.packets_sent);
    exact["ndp.rtx_sent"] = static_cast<double>(ndp.rtx_sent);
    exact["ndp.rtx_after_nack"] = static_cast<double>(ndp.rtx_after_nack);
    exact["ndp.rtx_after_bounce"] = static_cast<double>(ndp.rtx_after_bounce);
    exact["ndp.rtx_after_timeout"] =
        static_cast<double>(ndp.rtx_after_timeout);
    exact["ndp.pulls_received"] = static_cast<double>(ndp.pulls_received);
    exact["net.pool_capacity"] = static_cast<double>(pool_capacity);
    exact["net.demux.stale_drops"] = static_cast<double>(stale_drops);
    if (!traced) return;
    exact["net.queue.enq_pkts"] = static_cast<double>(queues.enq_pkts);
    exact["net.queue.drop_pkts"] = static_cast<double>(queues.drop_pkts);
    exact["net.queue.trim_pkts"] = static_cast<double>(queues.trim_pkts);
    exact["net.queue.bounce_pkts"] = static_cast<double>(queues.bounce_pkts);
    exact["net.queue.mark_pkts"] = static_cast<double>(queues.mark_pkts);
    exact["net.pipe.deq_pkts"] = static_cast<double>(pipes.deq_pkts);
    exact["net.demux.deq_pkts"] = static_cast<double>(demuxes.deq_pkts);
  }
};

/// Per-layer ratios derived from the exact counts and the run's CPU time.
void derive_ratios(rep_result& r) {
  const metric_map& e = r.exact;
  const auto get = [&e](const char* k) {
    const auto it = e.find(k);
    return it == e.end() ? 0.0 : it->second;
  };
  const double runs = get("sim.flat_runs");
  r.layer["sim.flat_run_len"] = runs > 0 ? get("sim.flat_events") / runs : 0;
  const double events = get("sim.events");
  r.layer["sim.ns_per_event"] = events > 0 ? r.run_cpu_s * 1e9 / events : 0;
  const double sent = get("ndp.packets_sent");
  r.layer["ndp.useful_ratio"] =
      sent > 0 ? (sent - get("ndp.rtx_sent")) / sent : 0;
  const double enq = get("net.queue.enq_pkts");
  r.layer["net.trim_ratio"] = enq > 0 ? get("net.queue.trim_pkts") / enq : 0;
}

/// Exact nearest-rank quantile of an ascending vector.
double rank_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t n = sorted.size();
  std::size_t idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  idx = std::clamp<std::size_t>(idx, 1, n);
  return sorted[idx - 1];
}

/// FCT percentiles and mean per-flow goodput over the host link rate, from
/// completed flows' (bytes, fct_us).
void fct_metrics(rep_result& r, std::vector<double> fct_us,
                 double goodput_sum_bps, double link_bps) {
  std::sort(fct_us.begin(), fct_us.end());
  r.sim["sim_fct_p50_us"] = rank_quantile(fct_us, 0.50);
  r.sim["sim_fct_p99_us"] = rank_quantile(fct_us, 0.99);
  r.sim["sim_goodput_util"] =
      fct_us.empty() ? 0
                     : goodput_sum_bps / static_cast<double>(fct_us.size()) /
                           link_bps;
}

/// A completed flow cannot beat its own serialization at the host link
/// rate; a shorter FCT means the simulator's result is wrong.
void check_fct(double fct_us, std::uint64_t bytes, double link_bps) {
  const double floor_us = static_cast<double>(bytes) * 8.0 / link_bps * 1e6;
  if (!(fct_us >= floor_us)) {
    throw std::runtime_error("flow of " + std::to_string(bytes) +
                             " bytes completed in " + std::to_string(fct_us) +
                             " us, below its serialization time");
  }
}

void complete_frac(rep_result& r) {
  r.sim["flows_complete_frac"] =
      r.attempted == 0 ? 0
                       : static_cast<double>(r.completed) /
                             static_cast<double>(r.attempted);
}

/// Set-ups timed per repetition; setup_s is their median.
constexpr unsigned kSetupSamples = 9;

struct run_params {
  std::uint64_t seed = 1;
  bool tiny = false;
  std::string work_dir = ".";
};

/// One testbed's sizes: topo memory and path count, harness flow table and
/// sampled-subset arrays.
void topo_sizes(rep_result& r, const fabric_blueprint& bp, testbed& bed) {
  r.layer["topo.blueprint_mb"] = mb(bp.resident_bytes());
  r.layer["topo.instance_mb"] = mb(bed.topo->resident_bytes());
  r.layer["topo.path_table_mb"] = mb(bed.topo->paths().resident_bytes());
  r.layer["topo.interned_paths"] =
      static_cast<double>(bed.topo->paths().interned_paths());
  r.layer["harness.flow_slots"] =
      static_cast<double>(bed.flows->flows().size());
  r.layer["harness.subset_arrays"] =
      static_cast<double>(bed.topo->paths().subset_arrays());
}

/// The single fabric of the perm and churn workloads: blueprint, env (with
/// a telemetry plane attached when traced) and testbed, each built inside
/// its span.  Members are destroyed in reverse order, testbed first.
struct fabric {
  std::shared_ptr<const fabric_blueprint> bp;
  std::unique_ptr<sim_env> env;
  std::shared_ptr<telemetry_plane> plane;
  std::unique_ptr<testbed> bed;
};

fabric build_fabric(unsigned k, std::uint64_t seed, tracer* tr, int parent) {
  fabric f;
  fabric_params fp;
  fp.proto = protocol::ndp;
  {
    scoped_span s(tr, "topo.blueprint", parent);
    f.bp = make_fat_tree_blueprint(k, fp);
  }
  f.env = std::make_unique<sim_env>(seed);
  if (tr != nullptr) {
    f.plane = std::make_shared<telemetry_plane>(f.bp->n_slots(), f.bp.get());
    f.env->telemetry = f.plane;
  }
  {
    scoped_span s(tr, "topo.instance", parent);
    f.bed = std::make_unique<testbed>(*f.env, f.bp, fp);
  }
  return f;
}

// ---------------------------------------------------------------------------
// perm_ndp_k32
// ---------------------------------------------------------------------------

constexpr std::uint64_t kPermBytes = 1'000'000;

rep_result run_perm(const run_params& p, tracer* tr) {
  const unsigned k = p.tiny ? 4 : 32;
  // Fig 14 measures long-running flows.  Each flow here is kPermBytes, far
  // past NDP's 30-packet (270 KB) initial window, so most of its bytes are
  // pull-clocked rather than sent in the first burst.
  const std::uint64_t bytes = kPermBytes;
  rep_result r;
  scoped_span rep(tr, "rep", -1);
  // Set up kSetupSamples times (the same fabric and flows each time, as the
  // seed fixes them) and keep the last; setup_s is the median.  Only the
  // kept set-up is traced.
  std::optional<fabric> fab;
  std::vector<flow*> flows;
  std::vector<double> setups;
  for (unsigned i = 0; i < kSetupSamples; ++i) {
    tracer* const t = i + 1 == kSetupSamples ? tr : nullptr;
    flows.clear();
    fab.reset();
    const double w0 = wall_now();
    fab.emplace(build_fabric(k, p.seed, t, rep.id()));
    sim_env& env = *fab->env;
    const std::size_t n = fab->bed->topo->n_hosts();
    const auto partner = permutation_matrix(env.rng, n);
    flows.reserve(n);
    scoped_span s(t, "harness.connect", rep.id());
    flow_options o;
    o.bytes = bytes;
    for (std::uint32_t h = 0; h < n; ++h) {
      flow_options fo = o;
      fo.start = static_cast<simtime_t>(env.rand_below(1000)) * kNanosecond;
      flows.push_back(&fab->bed->flows->create(protocol::ndp, h, partner[h], fo));
    }
    setups.push_back(wall_now() - w0);
  }
  r.setup_s = median(setups);
  sim_env& env = *fab->env;
  testbed& bed = *fab->bed;
  const std::size_t n = bed.topo->n_hosts();
  const double link_bps = static_cast<double>(fab->bp->config().link_speed);
  const double c0 = cpu_now();
  const double w1 = wall_now();
  {
    scoped_span s(tr, "sim.run_until_complete", rep.id());
    run_until_complete(env, flows, from_ms(p.tiny ? 50 : 200));
  }
  r.run_cpu_s = cpu_now() - c0;
  r.jobs_per_s = 1.0 / (r.setup_s + (wall_now() - w1));

  // Digest over (src, dst, bytes, completion time) in flow order; a
  // complete flow must have received exactly its bytes.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<double> fcts;
  double goodput = 0;
  for (const flow* f : flows) {
    ++r.attempted;
    const bool done = f->complete() && f->payload_received() == f->bytes;
    h = mix(mix(mix(mix(h, f->src), f->dst), f->bytes),
            done ? static_cast<std::uint64_t>(f->completion_time()) : 0);
    if (!done) continue;
    ++r.completed;
    const double fct = f->fct_us();
    check_fct(fct, f->bytes, link_bps);
    fcts.push_back(fct);
    goodput += static_cast<double>(f->bytes) * 8.0 / (fct * 1e-6);
  }
  r.failed = r.attempted - r.completed;
  r.digest = h;
  fct_metrics(r, std::move(fcts), goodput, link_bps);
  complete_frac(r);

  counters c;
  c.add_env(env);
  c.add_flows(*bed.flows);
  c.stale_drops = bed.topo->paths().stale_drops();
  if (fab->plane) c.add_plane(*fab->plane);
  c.emit(r.exact, tr != nullptr);
  r.flat_dispatch = c.flat_dispatch;
  topo_sizes(r, *fab->bp, bed);
  r.layer["harness.connects"] = static_cast<double>(n);
  r.layer["harness.flows_started"] = static_cast<double>(n);
  r.layer["harness.flows_recycled"] = 0;
  if (tr != nullptr) {
    const std::size_t from = static_cast<std::size_t>(rep.id());
    r.layer["topo.blueprint_s"] = tr->total("topo.blueprint", from);
    r.layer["topo.instance_s"] = tr->total("topo.instance", from);
    const double connect = tr->total("harness.connect", from);
    r.layer["harness.connect_s"] = connect;
    r.layer["harness.us_per_connect"] =
        connect * 1e6 / static_cast<double>(n);
  }
  return r;
}

// ---------------------------------------------------------------------------
// rpc_churn_k8
// ---------------------------------------------------------------------------

rep_result run_churn(const run_params& p, tracer* tr) {
  const unsigned k = p.tiny ? 4 : 8;
  const std::uint64_t arrivals = p.tiny ? 60 : 12'000;
  // Offered load as a share of aggregate host-link capacity, below
  // saturation.
  constexpr double kLoad = 0.4;
  // Flow sizes: one fixed draw of `arrivals` web sizes, the same multiset
  // for every seed, dealt out in a seeded order.  With the heavy tail, the
  // total bytes of independent draws differ by tens of percent from seed to
  // seed; fixing the multiset leaves the seed to vary the order, the pairs
  // and the arrival times.
  std::vector<std::uint64_t> sizes(arrivals);
  std::mt19937_64 size_rng(0x5eed);
  double total_bytes = 0;
  for (std::uint64_t& b : sizes) {
    b = std::max<std::uint64_t>(1, facebook_web_sizes().sample(size_rng));
    total_bytes += static_cast<double>(b);
  }
  std::shuffle(sizes.begin(), sizes.end(), std::mt19937_64(p.seed));

  rep_result r;
  scoped_span rep(tr, "rep", -1);
  const double w0 = wall_now();
  const fabric fab = build_fabric(k, p.seed, tr, rep.id());
  sim_env& env = *fab.env;
  testbed& bed = *fab.bed;
  const auto n = static_cast<std::uint32_t>(bed.topo->n_hosts());
  const double link_bps = static_cast<double>(fab.bp->config().link_speed);

  // Arrival i's (src, dst, bytes), in start order.
  struct arrival {
    std::uint32_t src, dst;
    std::uint64_t bytes;
  };
  std::vector<arrival> seq;
  seq.reserve(arrivals);
  auto pick_pair = [n, &seq](sim_env& e) {
    const auto src = static_cast<std::uint32_t>(e.rand_below(n));
    auto dst = static_cast<std::uint32_t>(e.rand_below(n - 1));
    if (dst >= src) ++dst;
    seq.push_back(arrival{src, dst, 0});
    return std::make_pair(src, dst);
  };
  auto pick_size = [&sizes, &seq](sim_env&) {
    const std::uint64_t b = sizes[seq.size() - 1];
    seq.back().bytes = b;
    return b;
  };
  recycler_config rc;
  rc.proto = protocol::ndp;
  rc.open_rate_per_sec = kLoad * n * link_bps /
                         (8.0 * total_bytes / static_cast<double>(arrivals));
  rc.max_starts = arrivals;
  flow_recycler rec(env, *bed.topo, *bed.flows, rc, pick_pair, pick_size);
  {
    // One initial arrival: with a population of one, the recycler's epoch
    // tag of each record is its start index, which maps records to `seq`.
    scoped_span s(tr, "harness.recycler_start", rep.id());
    rec.start(1);
  }
  r.setup_s = wall_now() - w0;
  const double c0 = cpu_now();
  const double w1 = wall_now();
  // Deadline: a fixed drain window after the last arrival (a 20 MB flow
  // needs 16 ms at 10 Gb/s).
  const simtime_t drain = from_ms(50);
  simtime_t deadline = -1;
  {
    scoped_span s(tr, "sim.run_next_batch", rep.id());
    while (rec.flows_recycled() < arrivals &&
           (deadline < 0 || env.now() < deadline) &&
           env.events.run_next_batch() != 0) {
      if (deadline < 0 && rec.flows_started() == arrivals) {
        deadline = env.now() + drain;
      }
    }
  }
  r.run_cpu_s = cpu_now() - c0;
  r.jobs_per_s = 1.0 / (r.setup_s + (wall_now() - w1));

  std::vector<const fct_recorder::record*> by_start(seq.size(), nullptr);
  for (const fct_recorder::record& rr : rec.fcts().records()) {
    if (rr.epoch < by_start.size()) by_start[rr.epoch] = &rr;
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<double> fcts;
  double goodput = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ++r.attempted;
    const fct_recorder::record* rr = by_start[i];
    const bool done = rr != nullptr && rr->bytes == seq[i].bytes;
    h = mix(mix(mix(mix(h, seq[i].src), seq[i].dst), seq[i].bytes),
            done ? static_cast<std::uint64_t>(rr->end - rr->start) : 0);
    if (!done) continue;
    ++r.completed;
    const double fct = to_us(rr->end - rr->start);
    check_fct(fct, rr->bytes, link_bps);
    fcts.push_back(fct);
    goodput += static_cast<double>(rr->bytes) * 8.0 / (fct * 1e-6);
  }
  r.failed = r.attempted - r.completed;
  r.digest = h;
  fct_metrics(r, std::move(fcts), goodput, link_bps);
  complete_frac(r);

  // ndp.* stay zero here: the recycler tears sources down internally, so no
  // public call sees their final stats.
  counters c;
  c.add_env(env);
  c.stale_drops = bed.topo->paths().stale_drops();
  if (fab.plane) c.add_plane(*fab.plane);
  c.emit(r.exact, tr != nullptr);
  r.flat_dispatch = c.flat_dispatch;
  topo_sizes(r, *fab.bp, bed);
  r.layer["harness.flows_started"] = static_cast<double>(rec.flows_started());
  r.layer["harness.flows_recycled"] =
      static_cast<double>(rec.flows_recycled());
  r.layer["harness.connects"] = static_cast<double>(rec.flows_started());
  if (tr != nullptr) {
    const std::size_t from = static_cast<std::size_t>(rep.id());
    r.layer["topo.blueprint_s"] = tr->total("topo.blueprint", from);
    r.layer["topo.instance_s"] = tr->total("topo.instance", from);
    // The recycler calls flow_factory::create itself, so connect cost is
    // timed on the drained testbed afterwards: the run's own arrival
    // sequence (up to 4096 of it) connected and destroyed again.
    const std::size_t probe = std::min<std::size_t>(seq.size(), 4096);
    {
      scoped_span s(tr, "harness.connect", rep.id());
      flow_options o;
      o.start = env.now() + from_ms(1);
      for (std::size_t i = 0; i < probe; ++i) {
        o.bytes = seq[i].bytes;
        flow& f = bed.flows->create(protocol::ndp, seq[i].src, seq[i].dst, o);
        bed.flows->destroy(f);
      }
    }
    const double connect = tr->total("harness.connect", from);
    r.layer["harness.connect_s"] = connect;
    r.layer["harness.us_per_connect"] =
        probe == 0 ? 0 : connect * 1e6 / static_cast<double>(probe);
  }
  return r;
}

// ---------------------------------------------------------------------------
// campaign_mix_k4
// ---------------------------------------------------------------------------

// pHost is left out: in these incasts some pHost flows stall for good, at
// every fan-in, missing a few packets while the sink's token pacer grants
// nothing more.  A benchmark job may not fail, so pHost
// returns once that is fixed; harness.job_sim_s.phost reads 0 until then.
constexpr protocol kCampaignProtos[] = {protocol::ndp, protocol::tcp,
                                        protocol::dcqcn};
constexpr const char* kProtoKeys[] = {"ndp", "tcp", "dcqcn"};
constexpr unsigned kCampaignWorkers = 4;
// Fig 16's incast: 450 KB responses, no TCP handshake and a 200 us minimum
// RTO for the TCP family.
constexpr std::uint64_t kCampaignBytes = 450'000;
constexpr simtime_t kCampaignMinRto = from_us(200);

struct job_stats {
  counters c;
  metric_map sizes;  ///< per-job topo/harness sizes; the rep keeps the max
  std::vector<double> fct_us;  ///< completed flows' FCTs
  double goodput_sum_bps = 0;
  double instance_s = 0;
  double connect_s = 0;
  double sim_s = 0;
  double body_s = 0;
};

rep_result run_campaign(const run_params& p, tracer* tr, int rep_index) {
  const std::vector<unsigned> fanins =
      p.tiny ? std::vector<unsigned>{3} : std::vector<unsigned>{4, 8, 12, 15};
  const unsigned seeds_per_cell = p.tiny ? 1 : 128;
  rep_result r;
  scoped_span rep(tr, "rep", -1);

  // Set up kSetupSamples times and keep the last; setup_s is the median.
  // Only the kept set-up is traced.
  std::vector<std::shared_ptr<const fabric_blueprint>> bps;
  std::vector<experiment_config> grid;
  std::optional<campaign_runner> runner;
  const fs::path dir = fs::path(p.work_dir) /
                       ("campaign-" + std::to_string(::getpid()) + "-" +
                        std::to_string(rep_index));
  std::vector<double> setups;
  for (unsigned i = 0; i < kSetupSamples; ++i) {
    tracer* const t = i + 1 == kSetupSamples ? tr : nullptr;
    bps.clear();
    grid.clear();
    runner.reset();
    const double w0 = wall_now();
    {
      scoped_span s(t, "topo.blueprint", rep.id());
      for (protocol proto : kCampaignProtos) {
        fabric_params fp;
        fp.proto = proto;
        bps.push_back(make_fat_tree_blueprint(4, fp));
      }
    }
    // One job per (transport, fan-in, seed) with seeds drawn from the run
    // seed.  param is the job index, so per-job counters are folded in job
    // order and their sums do not depend on completion order; param2
    // encodes fan-in * 8 + transport index.
    std::mt19937_64 seeder(p.seed);
    for (std::size_t t = 0; t < std::size(kCampaignProtos); ++t) {
      for (unsigned fanin : fanins) {
        for (unsigned s = 0; s < seeds_per_cell; ++s) {
          experiment_config cfg;
          cfg.name = std::string(kProtoKeys[t]) + "_fanin" +
                     std::to_string(fanin) + "_s" + std::to_string(s);
          cfg.seed = seeder();
          cfg.param = static_cast<std::int64_t>(grid.size());
          cfg.param2 = static_cast<double>(fanin * 8 + t);
          grid.push_back(std::move(cfg));
        }
      }
    }
    campaign_config cc;
    cc.dir = dir.string();
    cc.threads = kCampaignWorkers;
    runner.emplace(cc);
    setups.push_back(wall_now() - w0);
  }
  r.setup_s = median(setups);
  std::vector<job_stats> per_job(grid.size());
  fs::remove_all(dir);

  int run_span = -1;
  const auto body = [&](const experiment_config& cfg, sim_env& env,
                        fct_recorder& fcts) {
    const double b0 = wall_now();
    const auto job = static_cast<std::size_t>(cfg.param);
    const auto code = static_cast<unsigned>(cfg.param2);
    const unsigned t = code % 8;
    const unsigned fanin = code / 8;
    const protocol proto = kCampaignProtos[t];
    const auto& bp = bps[t];
    job_stats& js = per_job[job];
    scoped_span jspan(tr, "harness.job", run_span);
    std::shared_ptr<telemetry_plane> plane;
    if (tr != nullptr) {
      plane = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
      env.telemetry = plane;
    }
    fabric_params fp;
    fp.proto = proto;
    std::unique_ptr<testbed> bed;
    {
      scoped_span s(tr, "topo.instance", jspan.id());
      const double t0 = wall_now();
      bed = std::make_unique<testbed>(env, bp, fp);
      js.instance_s = wall_now() - t0;
    }
    const auto n = static_cast<std::uint32_t>(bed->topo->n_hosts());
    std::vector<std::uint32_t> hosts(n);
    for (std::uint32_t h = 0; h < n; ++h) hosts[h] = h;
    // Partial Fisher-Yates: hosts[0] receives, the next `fanin` send.
    for (std::uint32_t i = 0; i <= fanin; ++i) {
      std::swap(hosts[i], hosts[i + env.rand_below(n - i)]);
    }
    std::vector<flow*> flows;
    {
      scoped_span s(tr, "harness.connect", jspan.id());
      const double t0 = wall_now();
      for (std::uint32_t i = 1; i <= fanin; ++i) {
        flow_options o;
        o.bytes = kCampaignBytes;
        o.handshake = false;
        o.min_rto = kCampaignMinRto;
        o.start = static_cast<simtime_t>(env.rand_below(1000)) * kNanosecond;
        flows.push_back(&bed->flows->create(proto, hosts[i], hosts[0], o));
      }
      js.connect_s = wall_now() - t0;
    }
    {
      scoped_span s(tr, "sim.run_until_complete", jspan.id());
      const double t0 = wall_now();
      run_until_complete(env, flows, from_ms(500));
      js.sim_s = wall_now() - t0;
    }
    for (const flow* f : flows) {
      fcts.flow_started(f->id, f->start_time, f->bytes);
      if (f->complete() && f->payload_received() == f->bytes) {
        fcts.flow_completed(f->id, f->completion_time());
        js.fct_us.push_back(f->fct_us());
        js.goodput_sum_bps +=
            static_cast<double>(f->bytes) * 8.0 / (f->fct_us() * 1e-6);
      }
    }
    js.c.add_env(env);
    js.c.add_flows(*bed->flows);
    js.c.stale_drops = bed->topo->paths().stale_drops();
    rep_result sizes;
    topo_sizes(sizes, *bp, *bed);
    js.sizes = std::move(sizes.layer);
    if (plane) {
      js.c.add_plane(*plane);
      // Keep the plane off the outcome so the spilled summaries (and the
      // results digest) are the untraced run's, byte for byte.
      env.telemetry.reset();
    }
    js.body_s = wall_now() - b0;
  };

  campaign_result res;
  const double c0 = cpu_now();
  const double w1 = wall_now();
  bool job_failed = false;
  {
    scoped_span s(tr, "harness.campaign_runner.run", rep.id());
    run_span = s.id();
    try {
      res = runner->run(grid, body);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign failed: %s\n", e.what());
      job_failed = true;
    }
  }
  const double run_wall = wall_now() - w1;
  r.run_cpu_s = cpu_now() - c0;
  r.jobs_per_s = static_cast<double>(res.jobs_run) / run_wall;

  std::string merged;
  if (res.completed) {
    std::ifstream in(res.merged_path, std::ios::binary);
    merged.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  r.digest = fnv1a_64(merged.data(), merged.size());
  std::uintmax_t spill = 0;
  std::error_code ec;
  const std::uintmax_t shard_bytes = fs::file_size(dir / "shards.jsonl", ec);
  if (!ec) spill = shard_bytes;
  fs::remove_all(dir, ec);

  std::uint64_t flows_per_campaign = 0;
  for (const experiment_config& cfg : grid) {
    flows_per_campaign += static_cast<unsigned>(cfg.param2) / 8;
  }
  r.attempted = flows_per_campaign;
  const fct_summary total = res.total();
  if (job_failed || !res.completed) {
    r.completed = 0;
  } else {
    if (total.flows + total.still_open != flows_per_campaign) {
      throw std::runtime_error("campaign summaries miss flows");
    }
    if (total.flows > 0) check_fct(total.min_us, kCampaignBytes,
                                   static_cast<double>(
                                       bps[0]->config().link_speed));
    r.completed = total.flows;
  }
  r.failed = r.attempted - r.completed;
  counters c;
  double goodput = 0;
  double job_setup = 0;
  double instance = 0;
  double body_sum = 0;
  std::map<std::string, double> sim_by_proto;
  for (const char* key : kProtoKeys) sim_by_proto[key] = 0;
  for (std::size_t i = 0; i < per_job.size(); ++i) {
    const job_stats& js = per_job[i];
    c.add(js.c);
    goodput += js.goodput_sum_bps;
    instance += js.instance_s;
    job_setup += js.instance_s + js.connect_s;
    body_sum += js.body_s;
    sim_by_proto[kProtoKeys[static_cast<unsigned>(grid[i].param2) % 8]] +=
        js.sim_s;
  }
  // Exact FCT percentiles from the job bodies' own FCTs; the merged sketch
  // of the spilled summaries must hold the same flows and agree with them
  // within its relative error.
  std::vector<double> all_fcts;
  for (const job_stats& js : per_job) {
    all_fcts.insert(all_fcts.end(), js.fct_us.begin(), js.fct_us.end());
  }
  fct_metrics(r, all_fcts, goodput,
              static_cast<double>(bps[0]->config().link_speed));
  if (res.completed) {
    if (all_fcts.size() != total.sketch.count()) {
      throw std::runtime_error("merged sketch holds " +
                               std::to_string(total.sketch.count()) +
                               " FCTs, the jobs completed " +
                               std::to_string(all_fcts.size()));
    }
    for (const auto& [key, q] : {std::pair{"sim_fct_p50_us", 0.50},
                                 std::pair{"sim_fct_p99_us", 0.99}}) {
      const double exact = r.sim[key];
      const double sketched = total.sketch.quantile(q);
      if (!(std::abs(sketched - exact) <=
            total.sketch.alpha() * exact * (1 + 1e-9))) {
        throw std::runtime_error(std::string("merged sketch ") + key + " " +
                                 std::to_string(sketched) + " is off exact " +
                                 std::to_string(exact));
      }
    }
  }
  complete_frac(r);
  c.emit(r.exact, tr != nullptr);
  r.flat_dispatch = c.flat_dispatch;

  for (const job_stats& js : per_job) {
    for (const auto& [k, v] : js.sizes) r.layer[k] = std::max(r.layer[k], v);
  }
  r.layer["topo.blueprint_mb"] = 0;
  for (const auto& bp : bps) r.layer["topo.blueprint_mb"] += mb(bp->resident_bytes());
  r.layer["harness.jobs"] = static_cast<double>(grid.size());
  r.layer["harness.flows_started"] = static_cast<double>(flows_per_campaign);
  r.layer["harness.connects"] = static_cast<double>(flows_per_campaign);
  r.layer["harness.spill_bytes"] = static_cast<double>(spill);
  r.layer["harness.journal_rejects"] =
      static_cast<double>(res.journal_rejects);
  r.layer["harness.spill_rejects"] = static_cast<double>(res.spill_rejects);
  if (tr != nullptr) {
    const std::size_t from = static_cast<std::size_t>(rep.id());
    r.layer["topo.blueprint_s"] = tr->total("topo.blueprint", from);
    r.layer["topo.instance_s"] = instance;
    const double connect = tr->total("harness.connect", from);
    r.layer["harness.connect_s"] = connect;
    r.layer["harness.us_per_connect"] =
        flows_per_campaign == 0
            ? 0
            : connect * 1e6 / static_cast<double>(flows_per_campaign);
    r.layer["harness.job_setup_s"] = job_setup;
    for (const auto& [key, s] : sim_by_proto) {
      r.layer["harness.job_sim_s." + key] = s;
    }
    const double capacity = run_wall * kCampaignWorkers;
    r.layer["harness.runner_overhead_s"] = capacity - body_sum;
    r.layer["harness.worker_util"] = capacity > 0 ? body_sum / capacity : 0;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_driver --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--size full|tiny] "
               "[--work-dir <dir>]\n",
               why);
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120) {
        usage("bad --seconds");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "tiny") usage("bad --size");
      a.tiny = v == "tiny";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("missing --workload");
  return a;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const args a = parse(argc, argv);
  std::function<rep_result(const run_params&, tracer*, int)> workload;
  if (a.workload == "perm_ndp_k32") {
    workload = [](const run_params& p, tracer* t, int) { return run_perm(p, t); };
  } else if (a.workload == "rpc_churn_k8") {
    workload = [](const run_params& p, tracer* t, int) { return run_churn(p, t); };
  } else if (a.workload == "campaign_mix_k4") {
    workload = run_campaign;
  } else {
    usage(("unknown workload " + a.workload).c_str());
  }
  fs::create_directories(a.work_dir);
  run_params p;
  p.seed = a.seed;
  p.tiny = a.tiny;
  p.work_dir = a.work_dir;

  // Repeat until the budget would be overrun by one more repetition (at
  // least one repetition; with tracing, alternate untraced and traced, at
  // least one of each).
  tracer tr;
  std::vector<rep_result> plain;
  std::vector<rep_result> traced;
  std::vector<std::string> errors;
  const double start = wall_now();
  double longest = 0;
  for (int i = 0;; ++i) {
    const bool use_trace = a.trace && i % 2 == 1;
    const double t0 = wall_now();
    rep_result r;
    try {
      r = workload(p, use_trace ? &tr : nullptr, i);
    } catch (const std::exception& e) {
      errors.push_back(std::string("repetition failed: ") + e.what());
      break;
    }
    longest = std::max(longest, wall_now() - t0);
    (use_trace ? traced : plain).push_back(std::move(r));
    const bool enough = !a.trace || !traced.empty();
    if (enough && wall_now() - start + longest > a.seconds) break;
  }

  // Determinism: every repetition of one seed, traced or not, must give the
  // same digest, sim_* values and sim./ndp. counts; traced ones also the
  // same net.* counts.
  std::vector<rep_result*> all;
  for (auto& r : plain) all.push_back(&r);
  for (auto& r : traced) all.push_back(&r);
  if (all.empty()) errors.push_back("no repetition completed");
  for (const rep_result* r : all) {
    const rep_result& ref = *all.front();
    if (r->digest != ref.digest) errors.push_back("digest differs between repetitions");
    if (r->sim != ref.sim) errors.push_back("sim_* metrics differ between repetitions");
    for (const auto& [k, v] : r->exact) {
      const rep_result& base = traced.empty() || k.rfind("net.", 0) != 0
                                   ? ref
                                   : traced.front();
      const auto it = base.exact.find(k);
      if (it != base.exact.end() && it->second != v) {
        errors.push_back("count " + k + " differs between repetitions");
      }
    }
    if (r->completed == 0) errors.push_back("no flow completed");
    if (!r->flat_dispatch) errors.push_back("flat dispatch was off");
  }

  const auto med = [](const std::vector<rep_result>& v,
                      double rep_result::*field) {
    std::vector<double> x;
    for (const auto& r : v) x.push_back(r.*field);
    return median(x);
  };
  metric_map metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  if (!plain.empty()) {
    digest = plain.front().digest;
    for (const rep_result* r : all) {
      attempted += r->attempted;
      failed += r->failed;
    }
    if (!a.trace) {
      metrics["setup_s"] = med(plain, &rep_result::setup_s);
      metrics["run_cpu_s"] = med(plain, &rep_result::run_cpu_s);
      metrics["jobs_per_s"] = med(plain, &rep_result::jobs_per_s);
      metrics["peak_rss_mb"] = peak_rss_mb();
      for (const auto& [k, v] : plain.front().sim) metrics[k] = v;
    } else if (!traced.empty()) {
      // Every per-layer value any traced repetition measured; run.py
      // reads a declared metric that is absent as 0.
      for (auto& r : traced) {
        derive_ratios(r);
        for (const auto& [k, v] : r.exact) r.layer[k] = v;
        for (const auto& [k, v] : r.layer) metrics[k] = 0;
      }
      for (auto& [name, value] : metrics) {
        std::vector<double> x;
        for (const auto& r : traced) {
          const auto it = r.layer.find(name);
          x.push_back(it == r.layer.end() ? 0 : it->second);
        }
        value = median(x);
      }
      const double base = med(plain, &rep_result::run_cpu_s);
      metrics["trace_overhead"] =
          base > 0 ? med(traced, &rep_result::run_cpu_s) / base : 0;
    }
  }

  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());
  for (const std::string& e : errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());

  bool flat = !all.empty();
  for (const rep_result* r : all) flat = flat && r->flat_dispatch;
  const unsigned nproc = std::thread::hardware_concurrency();
  const unsigned workers = a.workload == "campaign_mix_k4" ? kCampaignWorkers : 1;
  char header[512];
  std::snprintf(header, sizeof header,
                "\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", "
                "\"nproc\": %u, \"workers\": %u, \"build_type\": \"%s\", "
                "\"flat_dispatch\": %s, \"repetitions\": %zu, "
                "\"traced_repetitions\": %zu",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.tiny ? "tiny" : "full", nproc, workers, PERFBENCH_BUILD_TYPE,
                flat ? "true" : "false", plain.size(), traced.size());
  if (a.trace) {
    const fs::path spans = fs::path(a.work_dir) /
                           ("spans-" + a.workload + "-seed" +
                            std::to_string(a.seed) + ".json");
    tr.write(spans.string(), header);
  }

  std::string out = "{";
  out += header;
  // Spread of the per-repetition host costs behind each median.
  const auto spread = [&plain](const char* key, double rep_result::*field) {
    std::vector<double> v;
    for (const auto& r : plain) v.push_back(r.*field);
    std::sort(v.begin(), v.end());
    const auto at = [&v](double q) {
      return v.empty() ? 0.0 : v[static_cast<std::size_t>(q * (v.size() - 1))];
    };
    return std::string("\"") + key + "\": [" + json_num(at(0)) + ", " +
           json_num(at(0.25)) + ", " + json_num(at(0.5)) + ", " +
           json_num(at(0.75)) + ", " + json_num(at(1)) + "]";
  };
  out += ", \"rep_quartiles\": {" + spread("setup_s", &rep_result::setup_s) +
         ", " + spread("run_cpu_s", &rep_result::run_cpu_s) + ", " +
         spread("jobs_per_s", &rep_result::jobs_per_s) + "}";
  out += ", \"digest\": \"";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  out += hex;
  out += "\", \"correct\": ";
  out += errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    out += (first ? "\"" : ", \"") + k + "\": " + json_num(v);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return errors.empty() ? 0 : 1;
}
