#include "topo/fabric_blueprint.h"

#include <algorithm>

namespace ndpsim {

namespace {
[[nodiscard]] std::uint64_t pair_key(std::uint32_t src, std::uint32_t dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}
constexpr std::size_t kBlockSlots = 8192;
}  // namespace

std::shared_ptr<const fabric_blueprint> fabric_blueprint::build(
    std::unique_ptr<const fabric_shape> shape, link_config cfg) {
  // make_shared needs a public ctor; the private ctor + explicit new keeps
  // construction behind the factory.
  return std::shared_ptr<const fabric_blueprint>(
      new fabric_blueprint(std::move(shape), std::move(cfg)));
}

fabric_blueprint::fabric_blueprint(std::unique_ptr<const fabric_shape> shape,
                                   link_config cfg)
    : shape_(std::move(shape)), cfg_(std::move(cfg)) {
  NDPSIM_ASSERT_MSG(shape_ != nullptr, "blueprint needs a shape");
  n_hosts_ = shape_->n_hosts();
  constexpr link_level kLevels[] = {
      link_level::host_up,   link_level::tor_up,   link_level::agg_up,
      link_level::core_down, link_level::agg_down, link_level::tor_down};
  std::size_t n_links = 0;
  for (const link_level level : kLevels) n_links += shape_->n_links(level);
  links_.reserve(n_links);
  for (const link_level level : kLevels) {
    level_base_[static_cast<std::size_t>(level)] =
        static_cast<std::uint32_t>(links_.size());
    const std::size_t n = shape_->n_links(level);
    for (std::size_t i = 0; i < n; ++i) {
      add_link(level, static_cast<std::uint32_t>(i));
    }
  }
  demux_base_ = next_slot_;
}

void fabric_blueprint::add_link(link_level level, std::uint32_t index) {
  link_record l;
  l.level = level;
  l.index = index;
  l.rate = cfg_.link_speed;
  if (cfg_.speed_override) {
    l.rate = cfg_.speed_override(level, index, l.rate);
  }
  l.delay = cfg_.link_delay;
  // PFC ingress accounting sits at the downstream end of every link except
  // ToR->host (endpoints consume at line rate), exactly as before.
  l.has_ingress = cfg_.pfc.enabled && level != link_level::tor_down;
  l.first_slot = next_slot_;
  next_slot_ += l.has_ingress ? 3 : 2;
  links_.push_back(l);
}

std::uint32_t fabric_blueprint::link_id(link_level level,
                                        std::size_t index) const {
  const std::uint32_t id =
      level_base_[static_cast<std::size_t>(level)] +
      static_cast<std::uint32_t>(index);
  NDPSIM_ASSERT_MSG(id < links_.size() && links_[id].level == level &&
                        links_[id].index == index,
                    "link index out of range");
  return id;
}

std::size_t fabric_blueprint::n_paths(std::uint32_t src,
                                      std::uint32_t dst) const {
  NDPSIM_ASSERT(src < n_hosts_ && dst < n_hosts_ && src != dst);
  return shape_->n_paths(src, dst);
}

std::string fabric_blueprint::format_name(std::uint32_t slot) const {
  NDPSIM_ASSERT_MSG(slot < n_slots(), "slot out of range");
  if (slot >= demux_base_) {
    return "demux" + std::to_string(slot - demux_base_);
  }
  // Binary search the link owning this slot (links are slot-ordered).
  const auto it = std::upper_bound(
      links_.begin(), links_.end(), slot,
      [](std::uint32_t s, const link_record& l) { return s < l.first_slot; });
  NDPSIM_ASSERT(it != links_.begin());
  const link_record& l = *(it - 1);
  const std::string base = shape_->link_name(link_ref{l.level, l.index});
  switch (slot - l.first_slot) {
    case 0: return base;
    case 1: return base + ".pipe";
    default: return base + ".pfc";
  }
}

void fabric_blueprint::build_path(std::uint32_t src, std::uint32_t dst,
                                  std::size_t path,
                                  std::vector<std::uint32_t>& out) const {
  NDPSIM_ASSERT(path < n_paths(src, dst));
  std::vector<link_ref> links;
  build_path(src, dst, path, links, out);
}

void fabric_blueprint::build_path(std::uint32_t src, std::uint32_t dst,
                                  std::size_t path,
                                  std::vector<link_ref>& links,
                                  std::vector<std::uint32_t>& out) const {
  links.clear();
  shape_->build_path(src, dst, path, links);
  out.clear();
  for (const link_ref& ref : links) {
    const link_record& l = links_[link_id(ref.level, ref.index)];
    out.push_back(l.first_slot);
    out.push_back(l.first_slot + 1);
    if (l.has_ingress) out.push_back(l.first_slot + 2);
  }
}

const std::uint32_t* fabric_blueprint::intern_slots(
    const std::vector<std::uint32_t>& seq) const {
  if (block_used_ + seq.size() > block_cap_) {
    block_cap_ = std::max(kBlockSlots, seq.size());
    block_used_ = 0;
    blocks_.push_back(std::make_unique<std::uint32_t[]>(block_cap_));
  }
  std::uint32_t* span = blocks_.back().get() + block_used_;
  std::copy(seq.begin(), seq.end(), span);
  block_used_ += seq.size();
  slots_total_ += seq.size();
  return span;
}

void fabric_blueprint::structural_paths(std::uint32_t src, std::uint32_t dst,
                                        const std::size_t* paths,
                                        std::size_t count,
                                        structural_pair_view* out) const {
  std::lock_guard<std::mutex> lock(paths_mu_);
  pair_entry& pe = pairs_[pair_key(src, dst)];
  const std::size_t limit = n_paths(src, dst);
  std::vector<link_ref>& links = links_scratch_;
  std::vector<std::uint32_t>& seq = seq_scratch_;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t path = paths[i];
    NDPSIM_ASSERT_MSG(path < limit, "path index out of range");
    const path_entry* found = nullptr;
    for (const path_entry& e : pe.paths) {
      if (e.path == path) {
        found = &e;
        break;
      }
    }
    if (found == nullptr) {
      path_entry e;
      e.path = static_cast<std::uint32_t>(path);
      build_path(src, dst, path, links, seq);
      seq.push_back(demux_slot(dst));
      e.fwd =
          slot_span{intern_slots(seq), static_cast<std::uint32_t>(seq.size())};
      build_path(dst, src, path, links, seq);
      seq.push_back(demux_slot(src));
      e.rev =
          slot_span{intern_slots(seq), static_cast<std::uint32_t>(seq.size())};
      ++interned_;
      found = &pe.paths.emplace_back(e);
    }
    out[i] = structural_pair_view{found->fwd, found->rev};
  }
}

fabric_blueprint::structural_pair_view fabric_blueprint::structural_pair(
    std::uint32_t src, std::uint32_t dst, std::size_t path) const {
  structural_pair_view v;
  structural_paths(src, dst, &path, 1, &v);
  return v;
}

std::size_t fabric_blueprint::interned_paths() const {
  std::lock_guard<std::mutex> lock(paths_mu_);
  return interned_;
}

std::size_t fabric_blueprint::resident_bytes() const {
  std::lock_guard<std::mutex> lock(paths_mu_);
  std::size_t bytes = links_.capacity() * sizeof(link_record) +
                      slots_total_ * sizeof(std::uint32_t);
  bytes += pairs_.size() * (sizeof(std::uint64_t) + sizeof(pair_entry));
  for (const auto& [key, e] : pairs_) {
    (void)key;
    bytes += e.paths.capacity() * sizeof(path_entry);
  }
  return bytes;
}

}  // namespace ndpsim
