// k-ary three-tier FatTree (Al-Fares et al.), the paper's evaluation fabric.
//
// k pods; per pod k/2 ToR and k/2 aggregation switches; (k/2)^2 core
// switches.  Each ToR serves `oversubscription * k/2` hosts (oversubscription
// 1 = fully provisioned; 4 = the paper's Fig 23 fabric).  k=8/12/32 give the
// paper's 128/432/8192-host networks.
//
// Path structure:
//   inter-pod pairs:  (k/2)^2 paths, one per core switch;
//   intra-pod pairs:  k/2 paths, one per aggregation switch;
//   same-ToR pairs:   1 path.
//
// Link-speed overrides support the failure experiments (Fig 22: one
// core<->agg link negotiated down to 1Gb/s). Optional PFC (lossless mode)
// inserts per-link ingress buffer accounting for DCQCN.
//
// `fat_tree_shape` is the blueprint shape (topo/fabric_blueprint.h) and
// `fat_tree` a `fabric_instance` of it plus FatTree-geometry accessors.  The
// config constructor builds a private blueprint (the classic single-run
// shape); the shared_ptr constructor stamps an instance out of a blueprint
// shared with other simulations (e.g. one per `parallel_runner` job).
#pragma once

#include <memory>

#include "topo/fabric_instance.h"

namespace ndpsim {

struct fat_tree_config : link_config {
  unsigned k = 8;  ///< pods; must be even
  unsigned oversubscription = 1;
};

class fat_tree_shape final : public fabric_shape {
 public:
  explicit fat_tree_shape(fat_tree_config cfg);

  [[nodiscard]] const fat_tree_config& config() const { return cfg_; }
  [[nodiscard]] std::size_t n_tors() const { return n_tor_; }
  [[nodiscard]] std::size_t n_aggs() const { return n_agg_; }
  [[nodiscard]] std::size_t n_cores() const { return n_core_; }
  [[nodiscard]] unsigned hosts_per_tor() const { return hosts_per_tor_; }
  [[nodiscard]] std::uint32_t tor_of(std::uint32_t host) const {
    return host / hosts_per_tor_;
  }
  [[nodiscard]] std::uint32_t pod_of(std::uint32_t host) const {
    return tor_of(host) / half_k_;
  }
  // Flat-index helpers for speed overrides (directed links).
  [[nodiscard]] std::size_t agg_up_index(unsigned pod, unsigned agg,
                                         unsigned port) const {
    return (static_cast<std::size_t>(pod) * half_k_ + agg) * half_k_ + port;
  }
  [[nodiscard]] std::size_t core_down_index(unsigned core, unsigned pod) const {
    return static_cast<std::size_t>(core) * cfg_.k + pod;
  }

  [[nodiscard]] std::size_t n_hosts() const override { return n_hosts_; }
  [[nodiscard]] std::size_t n_links(link_level level) const override;
  [[nodiscard]] std::size_t n_paths(std::uint32_t src,
                                    std::uint32_t dst) const override;
  void build_path(std::uint32_t src, std::uint32_t dst, std::size_t path,
                  std::vector<link_ref>& out) const override;
  [[nodiscard]] std::string link_name(link_ref link) const override;

 private:
  fat_tree_config cfg_;
  unsigned half_k_;
  unsigned hosts_per_tor_;
  std::size_t n_tor_, n_agg_, n_core_, n_hosts_;
};

class fat_tree final : public fabric_instance {
 public:
  fat_tree(sim_env& env, fat_tree_config cfg, const queue_factory& make_queue)
      : fat_tree(env, fabric_blueprint::fat_tree(std::move(cfg)), make_queue) {}
  /// Instantiate over a shared (possibly concurrently used) blueprint.
  fat_tree(sim_env& env, std::shared_ptr<const fabric_blueprint> bp,
           const queue_factory& make_queue);

  [[nodiscard]] const fat_tree_config& config() const {
    return shape_.config();
  }
  [[nodiscard]] std::size_t n_tors() const { return shape_.n_tors(); }
  [[nodiscard]] std::size_t n_aggs() const { return shape_.n_aggs(); }
  [[nodiscard]] std::size_t n_cores() const { return shape_.n_cores(); }
  [[nodiscard]] unsigned hosts_per_tor() const {
    return shape_.hosts_per_tor();
  }
  [[nodiscard]] std::uint32_t tor_of(std::uint32_t host) const {
    return shape_.tor_of(host);
  }
  [[nodiscard]] std::uint32_t pod_of(std::uint32_t host) const {
    return shape_.pod_of(host);
  }
  [[nodiscard]] std::size_t agg_up_index(unsigned pod, unsigned agg,
                                         unsigned port) const {
    return shape_.agg_up_index(pod, agg, port);
  }
  [[nodiscard]] std::size_t core_down_index(unsigned core, unsigned pod) const {
    return shape_.core_down_index(core, pod);
  }

 private:
  const fat_tree_shape& shape_;
};

}  // namespace ndpsim
