// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "net/packet.h"
#include "net/route.h"
#include "net/sim_env.h"
#include "hand_routes.h"

namespace ndpsim::testing {

/// Terminal sink that records what arrives (type, seq, size, time) and
/// releases the packets.
class recording_sink final : public packet_sink {
 public:
  explicit recording_sink(sim_env& env) : env_(env) {}

  struct arrival {
    packet_type type;
    std::uint64_t seqno;
    std::uint32_t size_bytes;
    std::uint16_t flags;
    simtime_t at;
  };

  void receive(packet& p) override {
    arrivals_.push_back(
        arrival{p.type, p.seqno, p.size_bytes, p.flags, env_.now()});
    env_.pool.release(&p);
  }

  [[nodiscard]] const std::vector<arrival>& arrivals() const {
    return arrivals_;
  }
  [[nodiscard]] std::size_t count() const { return arrivals_.size(); }

 private:
  sim_env& env_;
  std::vector<arrival> arrivals_;
};

/// Allocate a data packet with sane defaults for queue-level tests.
inline packet* make_data(sim_env& env, const route* rt,
                         std::uint32_t size_bytes = 9000,
                         std::uint64_t seq = 1) {
  packet* p = env.pool.alloc();
  p->type = packet_type::ndp_data;
  p->size_bytes = size_bytes;
  p->payload_bytes = size_bytes - kHeaderBytes;
  p->seqno = seq;
  p->rt = rt;
  p->next_hop = 0;
  return p;
}

}  // namespace ndpsim::testing
