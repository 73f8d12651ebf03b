// Small topologies: back-to-back host pair, single switch (star), and
// two-tier leaf-spine (the paper's 8-server NetFPGA testbed, Fig 9).
//
// Each is a `fabric_instance` over a private blueprint of one of two shapes
// (see micro_topo.cpp): back-to-back, and leaf-spine — a single switch is
// exactly a one-leaf, spineless leaf-spine.  Link levels and flat indices:
//   host NIC egress      host_up  [host]
//   leaf -> spine        tor_up   [leaf * n_spine + spine]
//   spine -> leaf        agg_down [spine * n_leaf + leaf]
//   leaf -> host         tor_down [leaf * hosts_per_leaf + local host]
#pragma once

#include "topo/fabric_instance.h"

namespace ndpsim {

/// Two hosts joined by one bidirectional link; the only queue is the sending
/// host's NIC.  Used for RPC latency and initial-window experiments.
class back_to_back final : public fabric_instance {
 public:
  back_to_back(sim_env& env, linkspeed_bps speed, simtime_t delay,
               const queue_factory& make_queue);

  [[nodiscard]] queue_base& nic(std::uint32_t host) {
    return *queues_at(link_level::host_up)[host];
  }
};

/// H hosts hanging off one switch. Exercises a single contended output port:
/// the CP-vs-NDP collapse experiment (Fig 2) and the sender-limited fairness
/// scenario (Fig 21).
class single_switch final : public fabric_instance {
 public:
  single_switch(sim_env& env, std::size_t n_hosts, linkspeed_bps speed,
                simtime_t delay, const queue_factory& make_queue);

  /// The switch egress port towards `host` (where contention happens).
  [[nodiscard]] queue_base& switch_port(std::uint32_t host) {
    return *queues_at(link_level::tor_down)[host];
  }
};

/// Two-tier leaf-spine: `n_leaf` ToR switches with `hosts_per_leaf` hosts
/// each, every ToR connected to every one of `n_spine` spines. The paper's
/// testbed is leaf_spine(4 leaves, 2 spines, 2 hosts/leaf) built from 4-port
/// switches.
class leaf_spine final : public fabric_instance {
 public:
  leaf_spine(sim_env& env, std::size_t n_leaf, std::size_t n_spine,
             std::size_t hosts_per_leaf, linkspeed_bps speed, simtime_t delay,
             const queue_factory& make_queue);

  [[nodiscard]] std::uint32_t leaf_of(std::uint32_t host) const {
    return host / hosts_per_leaf_;
  }

 private:
  std::uint32_t hosts_per_leaf_;
};

}  // namespace ndpsim
