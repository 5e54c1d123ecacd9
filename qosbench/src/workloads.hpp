// The benchmark's four workloads, as inputs built from a seed. Everything the
// simulator receives is made here: the seed picks generate_scenario's base
// seed and the switch seed, and nothing else about a workload's shape.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "campaign/manifest.hpp"
#include "check/scenario.hpp"
#include "switch/config.hpp"
#include "traffic/workload.hpp"

namespace qosbench {

enum class Workload : std::uint8_t {
  CampaignDense,
  CampaignSparse,
  SwitchHotspot,
  CampaignSharded,
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// The generator indices a campaign workload runs at `seed`: the first
/// indices of each stratum until it holds its share of `n`. Strata are the
/// radix classes (2-3 ports 10%, 4-16 ports 75%, 32 ports 10%, 64 ports
/// 5%: the generator's own odds), each split 60/40 into differentially
/// checked and invariants-only scenarios, each of those split in half by
/// flow count (lower or upper half of the generator's range at that
/// radix). The seed changes which scenarios run but not this mix, which
/// sets most of a pass's time. Throws if the generator stops yielding a
/// stratum.
[[nodiscard]] std::vector<std::uint64_t> scenario_indices(std::uint64_t seed,
                                                          std::uint64_t n);

/// Scenario `index` of a campaign workload: generate_scenario(index, seed),
/// derated for campaign_sparse exactly as `ssq_fuzz --sparse` derates it
/// (8x the cycles, 1/20 the injection rates).
[[nodiscard]] ssq::check::Scenario campaign_scenario(Workload w,
                                                     std::uint64_t index,
                                                     std::uint64_t seed);

/// Which checking legs the checker will run on `s`, classified from the
/// scenario alone: a fault plan or a matching engine leaves invariants
/// only, and buses wider than the circuit model's 1024 wires drop the
/// circuit leg.
struct Depth {
  bool differential = false;
  bool circuit = false;
};
[[nodiscard]] Depth checking_depth(const ssq::check::Scenario& s);

/// Radix-64 hotspot switch: the paper's SSVC parameters at the 64-port bus
/// budget, GL policed by stalling.
[[nodiscard]] ssq::sw::SwitchConfig hotspot_config(std::uint64_t seed);

/// Guaranteed-bandwidth flows from 32 inputs into output 0, half of them
/// offering more than their reservation; GL flows under a reservation on
/// output 0; best effort spread one flow per output at 0.6 flits/cycle.
/// Sources are periodic, at phases drawn from `seed`: staggered best-effort
/// transfers keep the switch from ever being quiescent, and with every
/// offered load below its service rate no source queue grows past its warm
/// size, so a warm switch steps without allocating. (Random arrivals at
/// these loads still set a new backlog maximum now and then, and the
/// oversubscribed shape grows its queues without bound.)
[[nodiscard]] ssq::traffic::Workload hotspot_workload(std::uint64_t seed);

/// The campaign_sharded manifest's base seed. A manifest runs generator
/// indices 0..n-1, so it cannot be stratified like scenario_indices; its
/// base seed is instead the first of seed, seed + g, seed + 2g, ... (g the
/// 64-bit golden-ratio increment) whose n scenarios hold the generator's
/// odds of 32-port (10%) and 64-port (5%) scenarios within 0.5% of n plus
/// one, and of differentially checked ones (60%) within 2% of n plus one.
/// Those counts set most of a pass's time. Throws if no candidate of the
/// first 10000 qualifies.
[[nodiscard]] std::uint64_t manifest_seed(std::uint64_t seed, std::uint64_t n);

/// The campaign_sharded manifest: `scenarios` generator indices at
/// manifest_seed(seed, scenarios) under the grid {default, monitor}, split
/// into `shards`.
[[nodiscard]] ssq::campaign::Manifest sharded_manifest(
    std::uint64_t seed, std::uint64_t scenarios, std::uint64_t shards);

}  // namespace qosbench
