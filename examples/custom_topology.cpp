// Example: bringing your own topology and switch configuration.
//
// Shows the extension points a downstream user needs:
//   * a custom topology, written as a blueprint shape: say how many hosts
//     and links per level there are, how many paths join two hosts, which
//     links a path crosses, and what the links are called.  The blueprint
//     does the rest — link records, slot ids, lazy names, interned routes
//     shared by every flow (and by every simulation built on it);
//   * a custom queue_factory (here: NDP queues with a deliberately tiny
//     header queue plus return-to-sender, to watch RTS kick in),
//   * direct access to per-queue statistics,
//   * the zero-RTT acceptor for listen-style applications.
//
//   ./examples/custom_topology
#include <algorithm>
#include <cstdio>
#include <string>

#include "harness/flow_factory.h"
#include "harness/queue_factory.h"
#include "ndp/ndp_acceptor.h"
#include "ndp/ndp_queue.h"
#include "net/fifo_queues.h"
#include "topo/fabric_instance.h"
#include "workload/cbr_source.h"
#include "workload/traffic_matrix.h"

using namespace ndpsim;

namespace {

/// A two-tier leaf-spine: `leaves` ToRs of `per_leaf` hosts, every ToR wired
/// to every spine.  Links are indexed per level: host NIC up [host], leaf to
/// spine [leaf * spines + spine], spine to leaf [spine * leaves + leaf], leaf
/// to host [host].  Path p between two leaves crosses spine p.
class my_leaf_spine final : public fabric_shape {
 public:
  my_leaf_spine(std::uint32_t leaves, std::uint32_t spines,
                std::uint32_t per_leaf)
      : leaves_(leaves), spines_(spines), per_leaf_(per_leaf) {}

  std::size_t n_hosts() const override { return leaves_ * per_leaf_; }

  std::size_t n_links(link_level level) const override {
    switch (level) {
      case link_level::host_up:
      case link_level::tor_down: return n_hosts();
      case link_level::tor_up:
      case link_level::agg_down: return leaves_ * spines_;
      default: return 0;
    }
  }

  std::size_t n_paths(std::uint32_t src, std::uint32_t dst) const override {
    return leaf(src) == leaf(dst) ? 1 : spines_;
  }

  void build_path(std::uint32_t src, std::uint32_t dst, std::size_t path,
                  std::vector<link_ref>& out) const override {
    const auto spine = static_cast<std::uint32_t>(path);
    out.push_back({link_level::host_up, src});
    if (leaf(src) != leaf(dst)) {
      out.push_back({link_level::tor_up, leaf(src) * spines_ + spine});
      out.push_back({link_level::agg_down, spine * leaves_ + leaf(dst)});
    }
    out.push_back({link_level::tor_down, dst});
  }

  std::string link_name(link_ref link) const override {
    return std::string(to_string(link.level)) + std::to_string(link.index);
  }

 private:
  std::uint32_t leaf(std::uint32_t host) const { return host / per_leaf_; }

  std::uint32_t leaves_, spines_, per_leaf_;
};

}  // namespace

int main() {
  sim_env env(11);

  // A queue factory is just a function: build whatever discipline you like
  // per link level. Here: 6-packet data queues and a header queue of only
  // four headers, so large incasts must fall back to return-to-sender.
  queue_factory factory = [&env](link_level level, std::size_t,
                                 linkspeed_bps rate, const std::string& name)
      -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate, name);
    }
    ndp_queue_config qc;
    qc.data_capacity_bytes = 6 * 9000;
    qc.header_capacity_bytes = 2 * kHeaderBytes;
    qc.enable_rts = true;
    return std::make_unique<ndp_queue>(env, rate, qc, name);
  };

  // 6 leaves x 4 hosts, 3 spines.  The blueprint is immutable and env-free:
  // any number of simulations (e.g. parallel_runner jobs) can stamp their
  // own queues and pipes out of this one.
  link_config links;
  links.link_speed = gbps(10);
  links.link_delay = from_us(1);
  const auto blueprint = fabric_blueprint::build(
      std::make_unique<my_leaf_spine>(6, 3, 4), links);
  fabric_instance topo(env, blueprint, factory);
  flow_factory flows(env, topo);
  std::printf("leaf-spine: %zu hosts, %zu paths between distant hosts\n",
              topo.n_hosts(), topo.n_paths(0, 23));

  // 20-to-1 incast of single-packet responses: the worst case for the tiny
  // header queue.
  const auto senders = incast_senders(env.rng, topo.n_hosts(), 0, 20);
  std::vector<flow*> fs;
  for (auto s : senders) {
    flow_options o;
    o.bytes = 30 * 8936;  // a full initial window each
    fs.push_back(&flows.create(protocol::ndp, s, 0, o));
  }
  while (env.events.run_next_event()) {
    if (std::all_of(fs.begin(), fs.end(),
                    [](flow* f) { return f->complete(); })) {
      break;
    }
  }

  std::uint64_t bounces = 0;
  std::uint64_t timeouts = 0;
  std::size_t done = 0;
  for (flow* f : fs) {
    done += f->complete() ? 1 : 0;
    bounces += f->ndp_src()->stats().bounces_received;
    timeouts += f->ndp_src()->stats().rtx_after_timeout;
  }
  std::printf("incast 20x30pkt: %zu/20 complete, %llu return-to-sender "
              "bounces, %llu RTO retransmissions\n",
              done, static_cast<unsigned long long>(bounces),
              static_cast<unsigned long long>(timeouts));

  // Zero-RTT listen: an acceptor creates per-connection state from whichever
  // first-RTT packet shows up first, and rejects time-wait duplicates.
  ndp_acceptor acceptor(env, [&](std::uint32_t flow_id) -> packet_sink* {
    std::printf("acceptor: connection %u established (SYN seen)\n", flow_id);
    static counting_sink sink{env};
    return &sink;
  });
  packet* p = env.pool.alloc();
  p->type = packet_type::ndp_data;
  p->flow_id = 4242;
  p->seqno = 5;  // not the first packet of the window — establishment still works
  p->set_flag(pkt_flag::syn);
  acceptor.receive(*p);
  acceptor.close(4242);
  std::printf("acceptor: %llu established, duplicates rejected so far %llu\n",
              static_cast<unsigned long long>(acceptor.established()),
              static_cast<unsigned long long>(acceptor.duplicates_rejected()));
  return done == 20 ? 0 : 1;
}
