// Hand-wired routes for unit tests that drive queues, pipes and transports
// without a fabric.  Simulation code never builds routes by hand: every
// fabric is a blueprint, and flows borrow the routes its path table
// interns.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "net/path_set.h"
#include "net/route.h"

namespace ndpsim {

/// A route that owns its hop storage: a slot table of its own hops read
/// through the identity slot sequence, so hop i is `hops[i]`.  Not copyable
/// — the base view points into this object's vectors.
class owned_route final : public route {
 public:
  owned_route() = default;
  explicit owned_route(std::vector<packet_sink*> hops)
      : hops_(std::move(hops)) {
    rebind();
  }
  owned_route(const owned_route&) = delete;
  owned_route& operator=(const owned_route&) = delete;

  void push_back(packet_sink* s) {
    NDPSIM_ASSERT(s != nullptr);
    hops_.push_back(s);
    rebind();
  }

 private:
  // Re-point the view after the vectors (may have) moved, keeping reverse().
  void rebind() {
    while (slots_.size() < hops_.size()) {
      slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    }
    if (hops_.empty()) return;
    const route* rev = reverse();
    route::operator=(route(hops_.data(), slots_.data(),
                           static_cast<std::uint32_t>(hops_.size())));
    set_reverse(rev);
  }

  std::vector<packet_sink*> hops_;
  std::vector<std::uint32_t> slots_;
};

/// Builder for hand-wired path sets: owns the routes and both demuxes.  Hops
/// exclude the endpoints — like interned routes, each side terminates at the
/// built-in demux, and transports register their endpoints through the
/// resulting path_set.  Add every path before calling set(); the builder
/// must outlive the connection.
class manual_paths {
 public:
  /// Append one forward/reverse pair; reverses are linked automatically.
  void add(std::vector<packet_sink*> fwd_hops,
           std::vector<packet_sink*> rev_hops) {
    fwd_hops.push_back(&dst_demux_);
    rev_hops.push_back(&src_demux_);
    owned_route& f = routes_.emplace_back(std::move(fwd_hops));
    owned_route& r = routes_.emplace_back(std::move(rev_hops));
    f.set_reverse(&r);
    r.set_reverse(&f);
    fwd_.push_back(&f);
    rev_.push_back(&r);
  }

  [[nodiscard]] path_set set() {
    return path_set{fwd_.data(), rev_.data(),
                    static_cast<std::uint32_t>(fwd_.size()), &src_demux_,
                    &dst_demux_};
  }

  [[nodiscard]] flow_demux& src_demux() { return src_demux_; }
  [[nodiscard]] flow_demux& dst_demux() { return dst_demux_; }

 private:
  std::deque<owned_route> routes_;  // deque: routes are pinned in place
  std::vector<const route*> fwd_, rev_;
  flow_demux src_demux_, dst_demux_;
};

}  // namespace ndpsim
