#include "perf/pcm.hpp"

namespace coperf::perf {

BandwidthReport summarize_bandwidth(const sim::Machine& m,
                                    std::size_t skip_windows) {
  BandwidthReport rep;
  const auto& samples = m.bandwidth_timeline();
  const double freq_hz = m.config().freq_ghz * 1e9;

  if (samples.size() >= 2) {
    // Skip warm-up windows only when enough samples exist to spare them.
    const std::size_t first =
        samples.size() > skip_windows + 2 ? skip_windows : 0;
    const auto& s0 = samples[first];
    const auto& s1 = samples.back();
    const double secs =
        static_cast<double>(s1.cycle - s0.cycle) / freq_hz;
    if (secs > 0) {
      rep.avg_total_gbs =
          static_cast<double>(s1.total_bytes - s0.total_bytes) / secs / 1e9;
      for (std::size_t a = 0; a < m.num_apps() && a < s1.app_bytes.size(); ++a)
        rep.app_avg_gbs.push_back(
            static_cast<double>(s1.app_bytes[a] - s0.app_bytes[a]) / secs /
            1e9);
    }
  }
  return rep;
}

}  // namespace coperf::perf
