// Reporters for the per-figure bench binaries.
//
// Two layers:
//   * Table / print_heatmap / print_scalability -- human-readable
//     output in the same shape as the paper's tables and figures;
//   * report::to_json / report::to_csv -- the machine-readable
//     documents behind the benches' --json and --csv flags. Run and
//     group JSON carry every raw counter ("stats"), so
//     group_from_json reads a group back exactly; the run cache
//     stores its disk entries in that form.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "harness/group.hpp"
#include "harness/matrix.hpp"
#include "harness/prefetch_study.hpp"
#include "harness/runner.hpp"
#include "harness/scalability.hpp"

namespace coperf::harness {

/// Simple column-aligned table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  void print(std::ostream& os) const;
  std::string to_csv() const;

  static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fig. 5-style heat map: rows = foreground, cols = background,
/// values = normalized runtime.
void print_heatmap(std::ostream& os, const CorunMatrix& m);

/// Fig. 2-style speedup series for a suite of workloads.
void print_scalability(std::ostream& os,
                       const std::vector<ScalabilityResult>& results);

namespace report {

/// A run's fields, its derived "metrics" and its raw "stats", with the
/// same pair per region.
std::string to_json(const RunResult& r);
std::string to_json(const GroupResult& g);
/// The inverse of to_json(GroupResult): every field comes back
/// bit-identical (doubles print with 17 significant digits; a
/// non-finite one was written as 0), and the derived "metrics" and
/// latency percentiles are recomputed, not read. Throws
/// std::runtime_error on malformed or incomplete input, including
/// latency buckets that do not sum to their count.
GroupResult group_from_json(std::string_view text);
std::string to_json(const CorunMatrix& m);
std::string to_json(const ScalabilityResult& s);
std::string to_json(const std::vector<ScalabilityResult>& s);
std::string to_json(const PrefetchSensitivity& p);
std::string to_json(const std::vector<PrefetchSensitivity>& p);

std::string to_csv(const CorunMatrix& m);
std::string to_csv(const std::vector<ScalabilityResult>& s);
std::string to_csv(const std::vector<PrefetchSensitivity>& p);

}  // namespace report

}  // namespace coperf::harness
