#include <gtest/gtest.h>

#include <set>

#include "net/fifo_queues.h"
#include "topo/fat_tree.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory droptail_factory(sim_env& env) {
  return [&env](link_level, std::size_t, linkspeed_bps rate,
                const std::string& name) -> std::unique_ptr<queue_base> {
    return std::make_unique<drop_tail_queue>(env, rate, 100 * 9000, name);
  };
}

fat_tree_config ft_cfg(unsigned k, unsigned oversub = 1) {
  fat_tree_config c;
  c.k = k;
  c.oversubscription = oversub;
  return c;
}

/// Send one data packet of flow `flow_id` along an interned route (whose
/// terminal demux must have an endpoint bound under that id).
void send_one(sim_env& env, const route* rt, std::uint32_t flow_id,
              std::uint64_t seq = 1) {
  packet* p = testing::make_data(env, rt, 9000, seq);
  p->flow_id = flow_id;
  send_to_next_hop(*p);
}

/// The links one structural path crosses, in order (demux terminal
/// excluded), recovered from its slot ids.
std::vector<std::pair<link_level, std::uint32_t>> links_of(
    const fabric_blueprint& bp, fabric_blueprint::slot_span span) {
  std::vector<std::pair<link_level, std::uint32_t>> out;
  for (std::uint32_t i = 0; i < span.n; ++i) {
    for (const auto& l : bp.links()) {
      if (l.first_slot == span.slots[i]) out.emplace_back(l.level, l.index);
    }
  }
  return out;
}

TEST(fat_tree, host_and_switch_counts) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  EXPECT_EQ(ft.n_hosts(), 16u);  // k^3/4
  EXPECT_EQ(ft.n_tors(), 8u);
  EXPECT_EQ(ft.n_aggs(), 8u);
  EXPECT_EQ(ft.n_cores(), 4u);
}

TEST(fat_tree, paper_topology_sizes) {
  // k=8 -> 128 hosts; k=12 -> 432 hosts (the paper's main simulation size).
  sim_env env;
  fat_tree ft8(env, ft_cfg(8), droptail_factory(env));
  EXPECT_EQ(ft8.n_hosts(), 128u);
  fat_tree ft12(env, ft_cfg(12), droptail_factory(env));
  EXPECT_EQ(ft12.n_hosts(), 432u);
}

TEST(fat_tree, oversubscription_multiplies_hosts) {
  sim_env env;
  fat_tree ft(env, ft_cfg(8, 4), droptail_factory(env));
  EXPECT_EQ(ft.n_hosts(), 512u);  // the paper's Fig 23 fabric
  EXPECT_EQ(ft.hosts_per_tor(), 16u);
}

TEST(fat_tree, path_counts_by_locality) {
  sim_env env;
  fat_tree ft(env, ft_cfg(8), droptail_factory(env));
  // Same ToR (hosts 0 and 1): one path.
  EXPECT_EQ(ft.n_paths(0, 1), 1u);
  // Same pod, different ToR: k/2 = 4 paths.
  EXPECT_EQ(ft.n_paths(0, 4), 4u);
  // Different pods: (k/2)^2 = 16 paths.
  EXPECT_EQ(ft.n_paths(0, 127), 16u);
}

TEST(fat_tree, interpod_route_has_six_queues) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  const route* fwd = ft.paths().forward(0, 15, 0);
  const route* rev = ft.paths().reverse(0, 15, 0);
  // host_up, tor_up, agg_up, core_down, agg_down, tor_down = 6 queue+pipe
  // pairs, then the destination's demux terminal.
  EXPECT_EQ(fwd->size(), 13u);
  EXPECT_EQ(fwd->queue_hops(), 6u);
  EXPECT_EQ(rev->size(), 13u);
}

TEST(fat_tree, same_tor_route_has_two_queues) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  EXPECT_EQ(ft.paths().forward(0, 1, 0)->queue_hops(), 2u);
}

TEST(fat_tree, distinct_paths_use_distinct_cores) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  // Collect the core_down queue pointer (element index 6) for every path.
  std::set<const packet_sink*> cores;
  for (std::size_t p = 0; p < ft.n_paths(0, 15); ++p) {
    cores.insert(&ft.paths().forward(0, 15, p)->at(6));
  }
  EXPECT_EQ(cores.size(), 4u);  // (k/2)^2 distinct cores
}

TEST(fat_tree, forward_and_reverse_traverse_same_switches) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  // Deliver a packet along fwd and then along rev; both must work and end
  // at the endpoints bound at either end.
  testing::recording_sink dst(env), src(env);
  const route* fwd = ft.paths().forward(2, 13, 3);
  const route* rev = ft.paths().reverse(2, 13, 3);
  EXPECT_EQ(fwd->reverse(), rev);
  EXPECT_EQ(rev->reverse(), fwd);
  ft.paths().demux(13).bind(1, &dst);
  ft.paths().demux(2).bind(1, &src);
  send_one(env, fwd, 1);
  send_one(env, rev, 1);
  env.events.run_all();
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(src.count(), 1u);
  // The two directions cross the same switches: fwd's agg_up and core_down
  // queues sit on the path's core, and so do rev's.
  EXPECT_EQ(fwd->size(), rev->size());
  const auto& core_down = ft.queues_at(link_level::core_down);
  const unsigned core = 3;  // inter-pod path index = core switch
  const auto* f_core = core_down[ft.core_down_index(core, ft.pod_of(13))];
  const auto* r_core = core_down[ft.core_down_index(core, ft.pod_of(2))];
  EXPECT_EQ(&fwd->at(6), static_cast<const packet_sink*>(f_core));
  EXPECT_EQ(&rev->at(6), static_cast<const packet_sink*>(r_core));
}

TEST(fat_tree, delivery_latency_matches_store_and_forward_math) {
  sim_env env;
  fat_tree_config cfg = ft_cfg(4);
  cfg.link_delay = from_us(1);
  fat_tree ft(env, cfg, droptail_factory(env));
  testing::recording_sink dst(env);
  ft.paths().demux(15).bind(1, &dst);
  send_one(env, ft.paths().forward(0, 15, 0), 1);
  env.events.run_all();
  // 6 hops x (7.2us serialization + 1us propagation) = 49.2us.
  ASSERT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.arrivals()[0].at, from_us(49.2));
}

TEST(fat_tree, speed_override_degrades_one_link) {
  sim_env env;
  fat_tree_config cfg = ft_cfg(4);
  cfg.speed_override = [](link_level level, std::size_t index,
                          linkspeed_bps def) -> linkspeed_bps {
    if (level == link_level::agg_up && index == 0) return gbps(1);
    return def;
  };
  fat_tree ft(env, cfg, [&env](link_level, std::size_t, linkspeed_bps rate,
                               const std::string& name) {
    return std::unique_ptr<queue_base>(
        std::make_unique<drop_tail_queue>(env, rate, 100 * 9000, name));
  });
  const auto& agg_up = ft.queues_at(link_level::agg_up);
  EXPECT_EQ(agg_up[0]->rate(), gbps(1));
  EXPECT_EQ(agg_up[1]->rate(), gbps(10));
}

TEST(fat_tree, aggregate_stats_sum_over_level) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  testing::recording_sink dst(env);
  ft.paths().demux(15).bind(1, &dst);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    send_one(env, ft.paths().forward(0, 15, 0), 1, i);
  }
  env.events.run_all();
  EXPECT_EQ(ft.aggregate_stats(link_level::host_up).forwarded, 3u);
  EXPECT_EQ(ft.aggregate_stats(link_level::agg_up).forwarded, 3u);
  EXPECT_EQ(ft.aggregate_stats(link_level::tor_down).forwarded, 3u);
}

TEST(fat_tree, pfc_mode_inserts_ingress_elements) {
  sim_env env;
  fat_tree_config cfg = ft_cfg(4);
  cfg.pfc.enabled = true;
  fat_tree ft(env, cfg, droptail_factory(env));
  const route* fwd = ft.paths().forward(0, 15, 0);
  // 6 queue+pipe pairs + 5 pfc ingress elements (none at the final host)
  // + the demux terminal.
  EXPECT_EQ(fwd->size(), 18u);
  // Route still delivers end to end.
  testing::recording_sink dst(env);
  ft.paths().demux(15).bind(1, &dst);
  send_one(env, fwd, 1);
  env.events.run_all();
  EXPECT_EQ(dst.count(), 1u);
}

TEST(fat_tree, k12_path_counts_match_structure) {
  // The paper's main simulation size: k=12, 432 hosts.  Path counts follow
  // the (k/2)^2 / (k/2) / 1 structure for inter-pod, intra-pod and same-ToR
  // pairs.
  sim_env env;
  fat_tree ft(env, ft_cfg(12), droptail_factory(env));
  EXPECT_EQ(ft.n_hosts(), 432u);
  EXPECT_EQ(ft.hosts_per_tor(), 6u);
  EXPECT_EQ(ft.n_paths(0, 431), 36u);  // inter-pod: (k/2)^2
  EXPECT_EQ(ft.n_paths(0, 12), 6u);    // intra-pod, different ToR: k/2
  EXPECT_EQ(ft.n_paths(0, 1), 1u);     // same ToR
}

TEST(fat_tree, k12_forward_and_reverse_traverse_partner_links) {
  // Forward and reverse of the same path index must traverse the same
  // switches: the same core, and the same (j, m) aggregation/port choice in
  // both pods — the forward direction's queues and the reverse direction's
  // queues are the two directions of the same physical links.
  sim_env env;
  fat_tree ft(env, ft_cfg(12), droptail_factory(env));
  const unsigned half_k = 6;
  const std::uint32_t src = 2;    // pod 0
  const std::uint32_t dst = 431;  // pod 11
  const unsigned pa = ft.pod_of(src);
  const unsigned pb = ft.pod_of(dst);
  auto index_of = [&](link_level level, const packet_sink* q) {
    const auto& qs = ft.queues_at(level);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (static_cast<const packet_sink*>(qs[i]) == q) return i;
    }
    ADD_FAILURE() << "queue not found at level " << to_string(level);
    return std::size_t{0};
  };
  for (std::size_t p = 0; p < ft.n_paths(src, dst); ++p) {
    const route* fwd = ft.paths().forward(src, dst, p);
    const route* rev = ft.paths().reverse(src, dst, p);
    // Queue positions on an inter-pod route: 0 host_up, 2 tor_up, 4 agg_up,
    // 6 core_down, 8 agg_down, 10 tor_down.
    const std::size_t f_agg_up = index_of(link_level::agg_up, &fwd->at(4));
    const std::size_t r_agg_up = index_of(link_level::agg_up, &rev->at(4));
    const std::size_t f_core = index_of(link_level::core_down, &fwd->at(6));
    const std::size_t r_core = index_of(link_level::core_down, &rev->at(6));
    // agg_up index = (pod*half_k + j)*half_k + m.
    const unsigned f_j = (f_agg_up / half_k) % half_k;
    const unsigned f_m = f_agg_up % half_k;
    const unsigned r_j = (r_agg_up / half_k) % half_k;
    const unsigned r_m = r_agg_up % half_k;
    EXPECT_EQ(f_agg_up / (half_k * half_k), pa);  // fwd climbs in pod a
    EXPECT_EQ(r_agg_up / (half_k * half_k), pb);  // rev climbs in pod b
    EXPECT_EQ(f_j, r_j) << "same aggregation choice both ways, path " << p;
    EXPECT_EQ(f_m, r_m) << "same core port both ways, path " << p;
    // core_down index = core*k + pod: both directions cross the SAME core,
    // each descending into the other's pod.
    EXPECT_EQ(f_core / 12, r_core / 12) << "same core switch, path " << p;
    EXPECT_EQ(f_core % 12, pb);
    EXPECT_EQ(r_core % 12, pa);
    // And the descent uses the same aggregation switch (j) on each side:
    // agg_down index = (pod*half_k + j)*half_k + tor_local.
    const std::size_t f_agg_dn = index_of(link_level::agg_down, &fwd->at(8));
    const std::size_t r_agg_dn = index_of(link_level::agg_down, &rev->at(8));
    EXPECT_EQ(f_agg_dn / (half_k * half_k), pb);
    EXPECT_EQ(r_agg_dn / (half_k * half_k), pa);
    EXPECT_EQ((f_agg_dn / half_k) % half_k, f_j);
    EXPECT_EQ((r_agg_dn / half_k) % half_k, f_j);
  }
}

TEST(back_to_back, single_nic_route) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), droptail_factory(env));
  EXPECT_EQ(b2b.n_hosts(), 2u);
  EXPECT_EQ(b2b.n_paths(0, 1), 1u);
  const route* fwd = b2b.paths().forward(0, 1, 0);
  EXPECT_EQ(&fwd->at(0), static_cast<packet_sink*>(&b2b.nic(0)));
  EXPECT_EQ(&b2b.paths().reverse(0, 1, 0)->at(0),
            static_cast<packet_sink*>(&b2b.nic(1)));
  testing::recording_sink dst(env);
  b2b.paths().demux(1).bind(1, &dst);
  send_one(env, fwd, 1);
  env.events.run_all();
  ASSERT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.arrivals()[0].at, from_us(8.2));  // 7.2 serialize + 1 wire
}

TEST(single_switch, routes_through_target_port) {
  sim_env env;
  single_switch star(env, 5, gbps(10), from_us(1), droptail_factory(env));
  EXPECT_EQ(star.n_hosts(), 5u);
  const route* fwd = star.paths().forward(0, 4, 0);
  EXPECT_EQ(fwd->queue_hops(), 2u);
  // The contended port object is shared between routes to the same host.
  const route* fwd2 = star.paths().forward(1, 4, 0);
  EXPECT_EQ(&fwd->at(2), &fwd2->at(2));
  EXPECT_EQ(&fwd->at(2), static_cast<packet_sink*>(&star.switch_port(4)));
}

TEST(leaf_spine, paper_testbed_shape) {
  sim_env env;
  // 8 servers, four-port switches: 4 leaves x 2 hosts, 2 spines (Fig 9).
  leaf_spine ls(env, 4, 2, 2, gbps(10), from_us(1), droptail_factory(env));
  EXPECT_EQ(ls.n_hosts(), 8u);
  EXPECT_EQ(ls.n_paths(0, 2), 2u);  // via either spine
  EXPECT_EQ(ls.n_paths(0, 1), 1u);  // same leaf
  const route* fwd = ls.paths().forward(0, 7, 1);
  EXPECT_EQ(fwd->queue_hops(), 4u);
  testing::recording_sink dst(env);
  ls.paths().demux(7).bind(1, &dst);
  send_one(env, fwd, 1);
  env.events.run_all();
  EXPECT_EQ(dst.count(), 1u);
}

TEST(leaf_spine, same_leaf_skips_spine) {
  sim_env env;
  leaf_spine ls(env, 4, 2, 2, gbps(10), from_us(1), droptail_factory(env));
  const route* fwd = ls.paths().forward(0, 1, 0);
  EXPECT_EQ(fwd->queue_hops(), 2u);
  // NIC, then straight down the shared leaf's port to host 1.
  EXPECT_EQ(&fwd->at(2), static_cast<packet_sink*>(
                             ls.queues_at(link_level::tor_down)[1]));
}

// The two non-FatTree blueprint shapes, checked on their structural paths:
// path counts, which links each direction crosses, and that the reverse of
// a path crosses the same switches back.
TEST(leaf_spine_shape, structural_paths_cross_one_spine_each_way) {
  sim_env env;
  leaf_spine ls(env, 3, 2, 2, gbps(10), from_us(1), droptail_factory(env));
  const fabric_blueprint& bp = *ls.blueprint();
  EXPECT_EQ(bp.n_hosts(), 6u);
  EXPECT_EQ(bp.links().size(), 6u + 6u + 6u + 6u);
  EXPECT_EQ(bp.n_paths(0, 1), 1u);  // same leaf
  EXPECT_EQ(bp.n_paths(1, 4), 2u);  // one per spine
  using L = link_level;
  for (std::uint32_t spine = 0; spine < 2; ++spine) {
    // Host 1 (leaf 0) to host 4 (leaf 2) over `spine`.
    const auto pv = bp.structural_pair(1, 4, spine);
    EXPECT_EQ(pv.fwd.n, 9u);  // 4 links x (queue, pipe) + demux
    EXPECT_EQ(pv.fwd.slots[pv.fwd.n - 1], bp.demux_slot(4));
    EXPECT_EQ(pv.rev.slots[pv.rev.n - 1], bp.demux_slot(1));
    using hop = std::pair<link_level, std::uint32_t>;
    EXPECT_EQ(links_of(bp, pv.fwd),
              (std::vector<hop>{{L::host_up, 1},
                                {L::tor_up, 0 * 2 + spine},
                                {L::agg_down, spine * 3 + 2},
                                {L::tor_down, 4}}));
    EXPECT_EQ(links_of(bp, pv.rev),
              (std::vector<hop>{{L::host_up, 4},
                                {L::tor_up, 2 * 2 + spine},
                                {L::agg_down, spine * 3 + 0},
                                {L::tor_down, 1}}));
  }
  const auto same = bp.structural_pair(0, 1, 0);
  EXPECT_EQ(same.fwd.n, 5u);
  EXPECT_EQ(same.rev.n, 5u);
  // A single switch is the one-leaf, spineless leaf-spine.
  single_switch star(env, 4, gbps(10), from_us(1), droptail_factory(env));
  const fabric_blueprint& sb = *star.blueprint();
  EXPECT_EQ(sb.links().size(), 8u);
  EXPECT_EQ(sb.n_paths(3, 0), 1u);
  EXPECT_EQ(links_of(sb, sb.structural_pair(3, 0, 0).fwd),
            (std::vector<std::pair<link_level, std::uint32_t>>{
                {L::host_up, 3}, {L::tor_down, 0}}));
}

TEST(back_to_back_shape, structural_paths_use_each_senders_nic) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), droptail_factory(env));
  const fabric_blueprint& bp = *b2b.blueprint();
  EXPECT_EQ(bp.links().size(), 2u);
  EXPECT_EQ(bp.n_paths(0, 1), 1u);
  EXPECT_EQ(bp.n_paths(1, 0), 1u);
  const auto pv = bp.structural_pair(0, 1, 0);
  using hop = std::pair<link_level, std::uint32_t>;
  EXPECT_EQ(links_of(bp, pv.fwd), (std::vector<hop>{{link_level::host_up, 0}}));
  EXPECT_EQ(links_of(bp, pv.rev), (std::vector<hop>{{link_level::host_up, 1}}));
  EXPECT_EQ(pv.fwd.slots[pv.fwd.n - 1], bp.demux_slot(1));
  EXPECT_EQ(pv.rev.slots[pv.rev.n - 1], bp.demux_slot(0));
  // Interned routes over it are reciprocal, and the reverse of 0 -> 1
  // resolves to the very sinks of the 1 -> 0 route.
  const route* f = b2b.paths().forward(0, 1, 0);
  const route* r = f->reverse();
  EXPECT_EQ(r->reverse(), f);
  const route* back = b2b.paths().forward(1, 0, 0);
  ASSERT_EQ(r->size(), back->size());
  for (std::size_t i = 0; i < r->size(); ++i) {
    EXPECT_EQ(&r->at(i), &back->at(i));
  }
}

}  // namespace
}  // namespace ndpsim
