#include "topo/fat_tree.h"

namespace ndpsim {

namespace {
const fat_tree_shape& fat_tree_shape_of(const fabric_blueprint& bp) {
  const auto* shape = dynamic_cast<const fat_tree_shape*>(&bp.shape());
  NDPSIM_ASSERT_MSG(shape != nullptr, "blueprint is not a FatTree");
  return *shape;
}
}  // namespace

std::shared_ptr<const fabric_blueprint> fabric_blueprint::fat_tree(
    fat_tree_config cfg) {
  auto shape = std::make_unique<fat_tree_shape>(cfg);
  return build(std::move(shape), std::move(cfg));
}

fat_tree::fat_tree(sim_env& env, std::shared_ptr<const fabric_blueprint> bp,
                   const queue_factory& make_queue)
    : fabric_instance(env, std::move(bp), make_queue),
      shape_(fat_tree_shape_of(*blueprint())) {}

fat_tree_shape::fat_tree_shape(fat_tree_config cfg)
    : cfg_(std::move(cfg)), half_k_(cfg_.k / 2) {
  NDPSIM_ASSERT_MSG(cfg_.k >= 2 && cfg_.k % 2 == 0, "k must be even and >= 2");
  NDPSIM_ASSERT(cfg_.oversubscription >= 1);
  hosts_per_tor_ = cfg_.oversubscription * half_k_;
  n_tor_ = static_cast<std::size_t>(cfg_.k) * half_k_;
  n_agg_ = n_tor_;
  n_core_ = static_cast<std::size_t>(half_k_) * half_k_;
  n_hosts_ = n_tor_ * hosts_per_tor_;
}

std::size_t fat_tree_shape::n_links(link_level level) const {
  switch (level) {
    case link_level::host_up:
    case link_level::tor_down:
      return n_hosts_;
    case link_level::tor_up:
      return n_tor_ * half_k_;
    case link_level::agg_up:
    case link_level::agg_down:
      return static_cast<std::size_t>(cfg_.k) * half_k_ * half_k_;
    case link_level::core_down:
      return n_core_ * cfg_.k;
  }
  return 0;
}

std::size_t fat_tree_shape::n_paths(std::uint32_t src,
                                    std::uint32_t dst) const {
  if (tor_of(src) == tor_of(dst)) return 1;
  if (pod_of(src) == pod_of(dst)) return half_k_;
  return n_core_;
}

std::string fat_tree_shape::link_name(link_ref link) const {
  const std::uint32_t idx = link.index;
  switch (link.level) {
    case link_level::host_up:
      return "hostup" + std::to_string(idx);
    case link_level::tor_up:
      return "torup" + std::to_string(idx / half_k_) + "." +
             std::to_string(idx % half_k_);
    case link_level::agg_up:
      return "aggup" + std::to_string(idx / (half_k_ * half_k_)) + "." +
             std::to_string((idx / half_k_) % half_k_) + "." +
             std::to_string(idx % half_k_);
    case link_level::core_down:
      return "coredn" + std::to_string(idx / cfg_.k) + "." +
             std::to_string(idx % cfg_.k);
    case link_level::agg_down:
      return "aggdn" + std::to_string(idx / (half_k_ * half_k_)) + "." +
             std::to_string((idx / half_k_) % half_k_) + "." +
             std::to_string(idx % half_k_);
    case link_level::tor_down:
      return "tordn" + std::to_string(idx / hosts_per_tor_) + "." +
             std::to_string(idx % hosts_per_tor_);
  }
  return "?";
}

void fat_tree_shape::build_path(std::uint32_t src, std::uint32_t dst,
                                std::size_t path,
                                std::vector<link_ref>& out) const {
  const auto at = [](link_level level, std::size_t index) {
    return link_ref{level, static_cast<std::uint32_t>(index)};
  };
  const std::uint32_t ts = tor_of(src);
  const std::uint32_t td = tor_of(dst);
  const unsigned ld = dst % hosts_per_tor_;
  const link_ref down = at(link_level::tor_down,
                           static_cast<std::size_t>(td) * hosts_per_tor_ + ld);
  out.push_back(at(link_level::host_up, src));
  if (ts == td) {
    out.push_back(down);
    return;
  }
  const unsigned ps = pod_of(src);
  const unsigned pd = pod_of(dst);
  const unsigned id = td % half_k_;
  if (ps == pd) {
    const unsigned j = static_cast<unsigned>(path);
    out.push_back(
        at(link_level::tor_up, static_cast<std::size_t>(ts) * half_k_ + j));
    out.push_back(
        at(link_level::agg_down,
           (static_cast<std::size_t>(ps) * half_k_ + j) * half_k_ + id));
    out.push_back(down);
    return;
  }
  // Inter-pod: the path index selects the core switch; the core determines
  // the aggregation switch (j = core / half_k) in both pods.
  const unsigned core = static_cast<unsigned>(path);
  const unsigned j = core / half_k_;
  const unsigned m = core % half_k_;
  out.push_back(
      at(link_level::tor_up, static_cast<std::size_t>(ts) * half_k_ + j));
  out.push_back(at(link_level::agg_up, agg_up_index(ps, j, m)));
  out.push_back(at(link_level::core_down, core_down_index(core, pd)));
  out.push_back(
      at(link_level::agg_down,
         (static_cast<std::size_t>(pd) * half_k_ + j) * half_k_ + id));
  out.push_back(down);
}

}  // namespace ndpsim
