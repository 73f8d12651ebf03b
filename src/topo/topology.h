// Topology vocabulary shared by every fabric: link levels and the queue
// factory that materializes one directed link's egress queue.
//
// Every fabric is a `fabric_instance` stamped out of a `fabric_blueprint`
// (topo/fabric_blueprint.h): the FatTree, the leaf-spine, the star and the
// back-to-back pair differ only in their blueprint's shape.  `topology` is
// the name flows, harnesses and tests use for "the fabric I run on"; it is
// the instance class itself, not an interface.  Flows borrow shared routes
// from its `paths()` table, which interns each distinct (src, dst, path)
// route once and terminates it at the destination host's `flow_demux`.
#pragma once

#include <functional>
#include <memory>

#include "net/queue.h"

namespace ndpsim {

/// Where a queue sits in the topology (used for per-level statistics, e.g.
/// counting trims on core uplinks, and for queue-type selection).
enum class link_level : std::uint8_t {
  host_up,    ///< host NIC egress
  tor_up,     ///< ToR -> aggregation
  agg_up,     ///< aggregation -> core
  core_down,  ///< core -> aggregation
  agg_down,   ///< aggregation -> ToR
  tor_down,   ///< ToR -> host
};

[[nodiscard]] constexpr const char* to_string(link_level l) {
  switch (l) {
    case link_level::host_up: return "host_up";
    case link_level::tor_up: return "tor_up";
    case link_level::agg_up: return "agg_up";
    case link_level::core_down: return "core_down";
    case link_level::agg_down: return "agg_down";
    case link_level::tor_down: return "tor_down";
  }
  return "?";
}

/// Builds the egress queue for one directed link.  `name` is lazy (see
/// sim/name_ref.h): factories that forward it untouched cost no formatting;
/// legacy factories written against `const std::string&` still work — the
/// implicit conversion formats eagerly at the call boundary.
using queue_factory =
    std::function<std::unique_ptr<queue_base>(link_level level,
                                              std::size_t index,
                                              linkspeed_bps rate,
                                              name_ref name)>;

class fabric_instance;
using topology = fabric_instance;

}  // namespace ndpsim
