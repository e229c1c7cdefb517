#include "sim/prefetcher.hpp"

namespace coperf::sim {

void PrefetcherBank::reset() {
  ip_table_.fill(IpEntry{});
  streams_.fill(StreamEntry{});
  stream_clock_ = 0;
  last_l1_miss_line_ = ~Addr{0};
}

}  // namespace coperf::sim
