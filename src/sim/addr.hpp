// Address-space conventions for the simulated machine.
//
// Simulated addresses are 64-bit virtual addresses. Each co-running
// application instance owns a disjoint address space selected by an
// AppId placed in the upper bits, so two applications never alias in
// the coherence sense yet still contend for shared-cache sets and
// memory bandwidth -- exactly the sharing structure of the paper's
// testbed (two processes pinned to disjoint cores sharing LLC+DRAM).
#pragma once

#include <cstdint>

namespace coperf::sim {

using Addr = std::uint64_t;
using Cycle = std::uint64_t;

/// Identifies one application instance within a simulation (0 or 1 in
/// the paper's pairwise co-run setup; more are allowed).
using AppId = std::uint8_t;

inline constexpr unsigned kLineBytesLog2 = 6;  // 64-byte lines everywhere
inline constexpr unsigned kLineBytes = 1u << kLineBytesLog2;

/// Bit position of the AppId field inside a simulated address. 1 TiB of
/// private address space per application is far beyond any workload
/// footprint used here.
inline constexpr unsigned kAppIdShift = 40;

/// Base of application `id`'s private address space.
constexpr Addr app_base(AppId id) { return Addr{id} << kAppIdShift; }

/// Cache-line number of an address (global across applications).
constexpr Addr line_of(Addr a) { return a >> kLineBytesLog2; }

/// AppId owning address `a`.
constexpr AppId app_of(Addr a) { return static_cast<AppId>(a >> kAppIdShift); }

}  // namespace coperf::sim
