#include "topo/micro_topo.h"

#include <string>

namespace ndpsim {

namespace {

/// Two hosts, one link each way: host_up[a] carries a -> b.
class back_to_back_shape final : public fabric_shape {
 public:
  [[nodiscard]] std::size_t n_hosts() const override { return 2; }
  [[nodiscard]] std::size_t n_links(link_level level) const override {
    return level == link_level::host_up ? 2 : 0;
  }
  [[nodiscard]] std::size_t n_paths(std::uint32_t,
                                    std::uint32_t) const override {
    return 1;
  }
  void build_path(std::uint32_t src, std::uint32_t, std::size_t,
                  std::vector<link_ref>& out) const override {
    out.push_back(link_ref{link_level::host_up, src});
  }
  [[nodiscard]] std::string link_name(link_ref link) const override {
    return "nic" + std::to_string(link.index);
  }
};

/// `n_leaf` leaves of `hosts_per_leaf` hosts, each leaf wired to every one
/// of `n_spine` spines.  Path p between leaves crosses spine p; hosts on one
/// leaf have a single path that never leaves it.
class leaf_spine_shape final : public fabric_shape {
 public:
  leaf_spine_shape(std::size_t n_leaf, std::size_t n_spine,
                   std::size_t hosts_per_leaf)
      : n_leaf_(n_leaf), n_spine_(n_spine), hosts_per_leaf_(hosts_per_leaf) {
    NDPSIM_ASSERT(n_leaf >= 1 && hosts_per_leaf >= 1);
    NDPSIM_ASSERT_MSG(n_spine >= 1 || n_leaf == 1, "leaves need spines");
  }

  [[nodiscard]] std::size_t n_hosts() const override {
    return n_leaf_ * hosts_per_leaf_;
  }
  [[nodiscard]] std::size_t n_links(link_level level) const override {
    switch (level) {
      case link_level::host_up:
      case link_level::tor_down:
        return n_hosts();
      case link_level::tor_up:
      case link_level::agg_down:
        return n_leaf_ * n_spine_;
      default:
        return 0;
    }
  }
  [[nodiscard]] std::size_t n_paths(std::uint32_t src,
                                    std::uint32_t dst) const override {
    return leaf_of(src) == leaf_of(dst) ? 1 : n_spine_;
  }
  void build_path(std::uint32_t src, std::uint32_t dst, std::size_t spine,
                  std::vector<link_ref>& out) const override {
    const std::size_t ls = leaf_of(src);
    const std::size_t ld = leaf_of(dst);
    out.push_back(link_ref{link_level::host_up, src});
    if (ls != ld) {
      out.push_back(at(link_level::tor_up, ls * n_spine_ + spine));
      out.push_back(at(link_level::agg_down, spine * n_leaf_ + ld));
    }
    out.push_back(link_ref{link_level::tor_down, dst});
  }
  [[nodiscard]] std::string link_name(link_ref link) const override {
    const auto pair = [](const char* base, std::size_t a, std::size_t b) {
      return base + std::to_string(a) + "." + std::to_string(b);
    };
    const std::size_t i = link.index;
    switch (link.level) {
      case link_level::host_up:
        return "hostup" + std::to_string(i);
      case link_level::tor_up:
        return pair("leafup", i / n_spine_, i % n_spine_);
      case link_level::agg_down:
        return pair("spinedn", i / n_leaf_, i % n_leaf_);
      case link_level::tor_down:
        return pair("leafdn", i / hosts_per_leaf_, i % hosts_per_leaf_);
      default:
        return "?";
    }
  }

 private:
  [[nodiscard]] std::size_t leaf_of(std::uint32_t host) const {
    return host / hosts_per_leaf_;
  }
  [[nodiscard]] static link_ref at(link_level level, std::size_t index) {
    return link_ref{level, static_cast<std::uint32_t>(index)};
  }

  std::size_t n_leaf_, n_spine_, hosts_per_leaf_;
};

std::shared_ptr<const fabric_blueprint> blueprint_of(
    std::unique_ptr<const fabric_shape> shape, linkspeed_bps speed,
    simtime_t delay) {
  link_config cfg;
  cfg.link_speed = speed;
  cfg.link_delay = delay;
  return fabric_blueprint::build(std::move(shape), std::move(cfg));
}

}  // namespace

back_to_back::back_to_back(sim_env& env, linkspeed_bps speed, simtime_t delay,
                           const queue_factory& make_queue)
    : fabric_instance(
          env,
          blueprint_of(std::make_unique<back_to_back_shape>(), speed, delay),
          make_queue) {}

single_switch::single_switch(sim_env& env, std::size_t n_hosts,
                             linkspeed_bps speed, simtime_t delay,
                             const queue_factory& make_queue)
    : fabric_instance(
          env,
          blueprint_of(std::make_unique<leaf_spine_shape>(1, 0, n_hosts),
                       speed, delay),
          make_queue) {
  NDPSIM_ASSERT(n_hosts >= 2);
}

leaf_spine::leaf_spine(sim_env& env, std::size_t n_leaf, std::size_t n_spine,
                       std::size_t hosts_per_leaf, linkspeed_bps speed,
                       simtime_t delay, const queue_factory& make_queue)
    : fabric_instance(env,
                      blueprint_of(std::make_unique<leaf_spine_shape>(
                                       n_leaf, n_spine, hosts_per_leaf),
                                   speed, delay),
                      make_queue),
      hosts_per_leaf_(static_cast<std::uint32_t>(hosts_per_leaf)) {
  NDPSIM_ASSERT(n_spine >= 1);
}

}  // namespace ndpsim
