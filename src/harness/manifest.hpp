// Experiment manifests: an executed plan serialized to JSON.
//
// A manifest captures everything needed to regenerate a figure or
// table WITHOUT re-running the simulations: the plan's base options,
// every trial (group members + fully resolved per-trial options +
// content-address key) and its GroupResult. load_manifest() rebuilds
// the same spec-addressable ResultSet the original execute() returned,
// so bench code that reads `rs.matrix(spec)` / `rs.solo(spec)` works
// identically over a loaded manifest -- and integrity is checked by
// recomputing each trial's RunCache key from the deserialized spec.
//
// Two deliberate lossy spots, both documented at the field level:
//  * per-region profiles (RunResult::regions) are not serialized --
//    loaded results carry empty region vectors (region-level reports
//    need a live run);
//  * derived perf::Metrics are recomputed from the deserialized
//    CoreStats rather than stored (they are a pure function of them).
// Everything else round-trips bit-identically, the per-request
// latency distribution included.
#pragma once

#include <iosfwd>
#include <string>

#include "harness/plan.hpp"

namespace coperf::harness {

/// Manifest format version; bumped when the schema changes. Loading a
/// manifest with a different version throws std::runtime_error.
inline constexpr int kManifestVersion = 1;

/// Serializes `plan`'s trials with their results from `rs` as one JSON
/// document. Every trial in the plan must have a result in `rs`
/// (i.e. `rs` came from `plan.execute()`); throws std::out_of_range
/// otherwise.
void save_manifest(std::ostream& os, const ExperimentPlan& plan,
                   const ResultSet& rs);
std::string manifest_json(const ExperimentPlan& plan, const ResultSet& rs);

/// Parses a manifest back into a spec-addressable ResultSet with the
/// strict json::parse reader. Throws std::runtime_error on malformed
/// input, a counter that is not a plain unsigned 64-bit integer (a
/// sign, fraction or overflow), version mismatch, or a trial
/// whose stored key does not match the key recomputed from its
/// deserialized spec (a corrupted or hand-edited manifest).
ResultSet load_manifest(std::istream& is);

}  // namespace coperf::harness
