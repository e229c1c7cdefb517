#include "sim/hierarchy.hpp"

#include <string>

namespace coperf::sim {

MemorySystem::MemorySystem(const MachineConfig& cfg)
    : cfg_(cfg),
      l3_(arena_, "L3", cfg.l3, /*hashed_index=*/true,
          /*track_private_copies=*/cfg.l3_inclusive),
      channel_(cfg.bytes_per_cycle(), cfg.dram_latency_cycles) {
  cfg_.validate();
  l1_.reserve(cfg.num_cores);
  l2_.reserve(cfg.num_cores);
  banks_.reserve(cfg.num_cores);
  for (unsigned c = 0; c < cfg.num_cores; ++c) {
    l1_.emplace_back(arena_, "L1D#" + std::to_string(c), cfg.l1d);
    l2_.emplace_back(arena_, "L2#" + std::to_string(c), cfg.l2);
    banks_.emplace_back(cfg.prefetch, cfg.streamer_degree, cfg.streamer_train);
  }
  scratch_.reserve(16);
  combine_.assign(std::size_t{cfg.num_cores} * kCombineWays, CombineEntry{});
  combine_pos_.assign(cfg.num_cores, 0);
  core_next_free_.assign(cfg.num_cores, 0.0);
  core_cycles_per_line_ =
      static_cast<double>(kLineBytes) / (cfg.per_core_bw_gbs / cfg.freq_ghz);
}

}  // namespace coperf::sim
