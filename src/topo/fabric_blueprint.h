// Immutable fabric structure, split from per-simulation state.
//
// A `fabric_blueprint` is an env-free description of a fabric's wiring:
// flat link records (level, flat index, rate, delay, slot assignment), an
// interned name pool (component names are formatted lazily from the records
// — see sim/name_ref.h), and a structural path table that interns each
// (src, dst, path) route exactly once as a sequence of **sink-slot ids**
// rather than device pointers.  Because nothing in it touches a `sim_env`,
// one blueprint is shared read-only by any number of `fabric_instance`s —
// including concurrently across `parallel_runner` jobs (the structural path
// table interns lazily under a mutex; everything else is immutable after
// construction).
//
// Every fabric is a blueprint.  What differs between a FatTree, a
// leaf-spine and a back-to-back pair is a `fabric_shape`: host count, links
// per level, path count per pair, the links a path crosses, and link names.
// The blueprint owns everything else — link records, slot assignment, the
// name pool and the interning — so a new topology is one shape class.
//
// Slot layout: each directed link owns 2 or 3 consecutive slots —
// [queue, pipe, pfc-ingress?] in traversal order — followed by one slot per
// host for its `flow_demux` terminal.  Links are created level by level in
// `link_level` order, index 0..n-1 within a level, so a link's id is its
// level's base plus its flat index.  A `fabric_instance` materializes the
// link slots from a `queue_factory` and mounts demuxes as its path table
// creates them; a structural path is then resolved per packet hop as
// `sink_table[slot]` (see net/route.h).
//
// Lifetime contract: the blueprint must outlive every `fabric_instance`
// built from it (enforced by shared_ptr), and every instance must outlive
// the flows connected over it — routes handed to flows point into the
// blueprint's slot arena *and* the instance's sink table.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/sim_env.h"
#include "sim/name_ref.h"
#include "topo/topology.h"

namespace ndpsim {

struct fat_tree_config;

struct pfc_config {
  bool enabled = false;
  std::uint64_t xoff_bytes = 25 * 9000;  ///< per-ingress pause threshold
  std::uint64_t xon_bytes = 23 * 9000;
};

/// Link parameters every shape shares.
struct link_config {
  linkspeed_bps link_speed = gbps(10);
  simtime_t link_delay = from_us(1);
  pfc_config pfc = {};
  /// Optional per-link speed override (failure injection). Called with the
  /// directed link's level/index and the default speed; returns the speed to
  /// use. Leave empty for uniform fabric.
  std::function<linkspeed_bps(link_level, std::size_t, linkspeed_bps)>
      speed_override = {};
};

/// One directed link, named by its level and flat index within the level.
struct link_ref {
  link_level level;
  std::uint32_t index;
};

/// The shape-specific half of a blueprint: pure geometry, no state.
class fabric_shape {
 public:
  virtual ~fabric_shape() = default;

  [[nodiscard]] virtual std::size_t n_hosts() const = 0;
  /// Links at one level, indexed 0..n-1.
  [[nodiscard]] virtual std::size_t n_links(link_level level) const = 0;
  /// Number of distinct paths from `src` to `dst` (src != dst).
  [[nodiscard]] virtual std::size_t n_paths(std::uint32_t src,
                                            std::uint32_t dst) const = 0;
  /// Append the links one direction of a path crosses, source first.  Path
  /// `p` from b to a must cross the same switches as path `p` from a to b.
  virtual void build_path(std::uint32_t src, std::uint32_t dst,
                          std::size_t path,
                          std::vector<link_ref>& out) const = 0;
  /// Name of a link's queue ("hostup3"); its pipe and PFC ingress append
  /// ".pipe" and ".pfc".
  [[nodiscard]] virtual std::string link_name(link_ref link) const = 0;
};

class fabric_blueprint final : public name_pool {
 public:
  /// One directed link of the fabric.  `index` is the flat index within the
  /// level (the same indexing the speed-override hooks use).
  struct link_record {
    link_level level;
    std::uint32_t index;
    linkspeed_bps rate;
    simtime_t delay;
    std::uint32_t first_slot;  ///< queue; pipe = +1; ingress = +2 if present
    bool has_ingress;          ///< PFC ingress accounting at the far end
  };

  /// Span of interned slot ids (points into the blueprint's arena; valid for
  /// the blueprint's lifetime).
  struct slot_span {
    const std::uint32_t* slots = nullptr;
    std::uint32_t n = 0;
  };
  struct structural_pair_view {
    slot_span fwd, rev;
  };

  /// Build the blueprint of any shape.
  [[nodiscard]] static std::shared_ptr<const fabric_blueprint> build(
      std::unique_ptr<const fabric_shape> shape, link_config cfg);
  /// Build the blueprint for a k-ary FatTree (topo/fat_tree.h).
  [[nodiscard]] static std::shared_ptr<const fabric_blueprint> fat_tree(
      fat_tree_config cfg);

  fabric_blueprint(const fabric_blueprint&) = delete;
  fabric_blueprint& operator=(const fabric_blueprint&) = delete;

  // --- geometry ----------------------------------------------------------
  [[nodiscard]] const link_config& config() const { return cfg_; }
  [[nodiscard]] const fabric_shape& shape() const { return *shape_; }
  [[nodiscard]] std::size_t n_hosts() const { return n_hosts_; }
  [[nodiscard]] std::size_t n_paths(std::uint32_t src, std::uint32_t dst) const;
  [[nodiscard]] linkspeed_bps host_link_speed(std::uint32_t) const {
    return cfg_.link_speed;
  }

  // --- links & slots -----------------------------------------------------
  [[nodiscard]] const std::vector<link_record>& links() const { return links_; }
  /// Link id (index into `links()`) of a level's flat `index`.
  [[nodiscard]] std::uint32_t link_id(link_level level, std::size_t index) const;
  /// Total sink slots: link slots followed by one demux slot per host.
  [[nodiscard]] std::size_t n_slots() const {
    return demux_base_ + n_hosts_;
  }
  [[nodiscard]] std::uint32_t demux_slot(std::uint32_t host) const {
    NDPSIM_ASSERT(host < n_hosts_);
    return demux_base_ + host;
  }

  // --- name pool ---------------------------------------------------------
  /// Format the name of a sink slot ("aggup3.1.2", "...pipe", "...pfc",
  /// "demux17").  Cold path — only called when someone reads a name.
  [[nodiscard]] std::string format_name(std::uint32_t slot) const override;

  // --- structural path table --------------------------------------------
  /// The interned slot sequences of one (src, dst, path) route pair, both
  /// ending at the destination's demux slot.  Built exactly once per path,
  /// lazily, under a mutex — safe to call concurrently from parallel jobs
  /// sharing the blueprint.  Returned spans stay valid for the blueprint's
  /// lifetime.
  [[nodiscard]] structural_pair_view structural_pair(std::uint32_t src,
                                                     std::uint32_t dst,
                                                     std::size_t path) const;

  /// Batch form: fetch/intern `count` paths of one pair under a single lock
  /// (a multipath connect resolves its whole sampled set at once — per-path
  /// locking showed up at k=32 scale).  `out` receives one view per entry of
  /// `paths`, in order.
  void structural_paths(std::uint32_t src, std::uint32_t dst,
                        const std::size_t* paths, std::size_t count,
                        structural_pair_view* out) const;

  /// Compute (without interning) the link-slot sequence of one direction of
  /// a path, excluding the demux terminal.
  void build_path(std::uint32_t src, std::uint32_t dst, std::size_t path,
                  std::vector<std::uint32_t>& out) const;

  // --- introspection -----------------------------------------------------
  /// Distinct (src, dst, path) structural routes interned so far.
  [[nodiscard]] std::size_t interned_paths() const;
  /// Resident bytes of the shared structure: link records + slot arena +
  /// pair index.  Counted once per sweep, however many envs share it.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  fabric_blueprint(std::unique_ptr<const fabric_shape> shape, link_config cfg);

  void add_link(link_level level, std::uint32_t index);
  /// `build_path` over a caller-owned link scratch; `path` is in range.
  void build_path(std::uint32_t src, std::uint32_t dst, std::size_t path,
                  std::vector<link_ref>& links,
                  std::vector<std::uint32_t>& out) const;
  [[nodiscard]] const std::uint32_t* intern_slots(
      const std::vector<std::uint32_t>& seq) const;

  std::unique_ptr<const fabric_shape> shape_;
  link_config cfg_;
  std::size_t n_hosts_;

  std::vector<link_record> links_;
  std::uint32_t level_base_[6] = {};  ///< first link id per level
  std::uint32_t demux_base_ = 0;     ///< first demux slot id
  std::uint32_t next_slot_ = 0;

  // Structural path interning (lazy, shared): chunked u32 arena + per-pair
  // index.  Mutable behind a mutex — the blueprint stays logically immutable
  // (a path's slot sequence is a pure function of the wiring); the cache
  // just fills in on first use from whichever env asks first.
  struct path_entry {
    std::uint32_t path = 0;
    slot_span fwd, rev;
  };
  // Sparse per-pair index: only interned paths are stored (append-only,
  // linear scan — sets are small: capped samples or one full-set build).
  // An eager vector sized n_paths costs 8KB per inter-pod pair at k=32 —
  // that dwarfed the slot arena itself for capped-multipath workloads.
  struct pair_entry {
    std::vector<path_entry> paths;
  };

  mutable std::mutex paths_mu_;
  mutable std::unordered_map<std::uint64_t, pair_entry> pairs_;
  mutable std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
  mutable std::size_t block_used_ = 0;
  mutable std::size_t block_cap_ = 0;
  mutable std::size_t slots_total_ = 0;
  mutable std::size_t interned_ = 0;
  // Interning scratch, reused across connects (guarded by paths_mu_).
  mutable std::vector<link_ref> links_scratch_;
  mutable std::vector<std::uint32_t> seq_scratch_;
};

}  // namespace ndpsim
