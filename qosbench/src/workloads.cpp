#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "arb/matching.hpp"
#include "sim/rng.hpp"

namespace qosbench {

namespace check = ssq::check;

namespace {

constexpr std::uint32_t kHotspotRadix = 64;
constexpr std::uint32_t kGbInputs = kHotspotRadix / 2;
constexpr std::uint32_t kGlInputs = 4;

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::CampaignDense, Workload::CampaignSparse,
        Workload::SwitchHotspot, Workload::CampaignSharded}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::CampaignDense:
      return "campaign_dense";
    case Workload::CampaignSparse:
      return "campaign_sparse";
    case Workload::SwitchHotspot:
      return "switch_r64_hotspot";
    case Workload::CampaignSharded:
      return "campaign_sharded";
  }
  return "?";
}

std::vector<std::uint64_t> scenario_indices(std::uint64_t seed,
                                            std::uint64_t n) {
  // Percent of the set per radix class (2-3, 4-16, 32, 64 ports); within a
  // class, percent checked differentially; within that, half with flow
  // counts in the upper half of the generator's range for the radix.
  constexpr std::array<std::uint64_t, 4> kClassPercent = {10, 75, 10, 5};
  constexpr std::uint64_t kDifferentialPercent = 60;
  std::array<std::array<std::uint64_t, 4>, 4> quota{};  // [class][depth, flows]
  std::uint64_t assigned = 0;
  for (std::size_t c = 0; c < quota.size(); ++c) {
    const std::uint64_t in_class = n * kClassPercent[c] / 100;
    const std::uint64_t differential = in_class * kDifferentialPercent / 100;
    quota[c][2] = differential / 2;
    quota[c][3] = differential - quota[c][2];
    quota[c][0] = (in_class - differential) / 2;
    quota[c][1] = in_class - differential - quota[c][0];
    assigned += in_class;
  }
  quota[1][3] += n - assigned;
  std::vector<std::uint64_t> out;
  out.reserve(n);
  // Every stratum has odds of several percent; a generator that no longer
  // produces one must fail the run, not hang it.
  const std::uint64_t limit = 1000 * n + 100000;
  for (std::uint64_t i = 0; out.size() < n; ++i) {
    if (i == limit) {
      throw std::runtime_error("scenario_indices: the generator no longer "
                               "yields every stratum");
    }
    const check::Scenario s = check::generate_scenario(i, seed);
    const std::size_t c = s.radix <= 3    ? 0
                          : s.radix <= 16 ? 1
                          : s.radix <= 32 ? 2
                                          : 3;
    // The generator draws 2 + below(min(2 * radix, 22)) flows.
    const bool many_flows =
        2 * (s.flows.size() - 2) >= std::min<std::size_t>(2 * s.radix, 22);
    std::uint64_t& q =
        quota[c][(checking_depth(s).differential ? 2u : 0u) +
                 (many_flows ? 1u : 0u)];
    if (q > 0) {
      --q;
      out.push_back(i);
    }
  }
  return out;
}

check::Scenario campaign_scenario(Workload w, std::uint64_t index,
                                  std::uint64_t seed) {
  check::Scenario s = check::generate_scenario(index, seed);
  if (w == Workload::CampaignSparse) {
    s.cycles *= 8;
    for (auto& f : s.flows) f.inject_rate *= 0.05;
  }
  return s;
}

Depth checking_depth(const check::Scenario& s) {
  Depth d;
  d.differential =
      !s.has_faults() && s.matching_engine == ssq::arb::MatchKind::None;
  d.circuit =
      d.differential && s.radix * (s.ssvc.gb_levels() + 2) <= 1024;
  return d;
}

ssq::sw::SwitchConfig hotspot_config(std::uint64_t seed) {
  ssq::sw::SwitchConfig c;
  c.radix = kHotspotRadix;
  c.ssvc.level_bits = 2;
  c.ssvc.lsb_bits = 8;
  c.ssvc.vtick_bits = 8;
  c.ssvc.vtick_shift = 2;
  c.gl_policing = ssq::core::GlPolicing::Stall;
  c.buffers.be_flits = 16;
  c.buffers.gb_flits_per_output = 16;
  c.buffers.gl_flits = 4;
  c.seed = seed;
  return c;
}

ssq::traffic::Workload hotspot_workload(std::uint64_t seed) {
  using ssq::InputId;
  using ssq::TrafficClass;
  ssq::Rng rng(seed);
  ssq::traffic::Workload w(kHotspotRadix);
  // Periodic sources, each starting at a phase drawn from the seed within
  // its own period (len / rate cycles).
  const auto add = [&](InputId src, ssq::OutputId dst, TrafficClass cls,
                       double reserved, std::uint32_t len, double rate) {
    ssq::traffic::FlowSpec f;
    f.src = src;
    f.dst = dst;
    f.cls = cls;
    f.reserved_rate = reserved;
    f.len_min = f.len_max = len;
    f.inject = ssq::traffic::InjectKind::Periodic;
    f.inject_rate = rate;
    f.start_cycle = rng.below(static_cast<std::uint64_t>(len / rate) + 1);
    w.add_flow(f);
  };
  const double gb_reserved = 0.88 / kGbInputs;
  for (InputId i = 0; i < kGbInputs; ++i) {
    // Offered flits: 1.25x the reservation on the first half, 0.25x on the
    // second, so output 0 carries ~0.68 flits/cycle of GB and GL load.
    const double share = i < kGbInputs / 2 ? 1.25 : 0.25;
    add(i, 0, TrafficClass::GuaranteedBandwidth, gb_reserved, 8,
        share * gb_reserved);
  }
  for (InputId i = kGbInputs; i < kGbInputs + kGlInputs; ++i) {
    add(i, 0, TrafficClass::GuaranteedLatency, 0.0, 2, 0.004);
  }
  w.set_gl_reservation(0, 0.06, 2);
  for (InputId i = kGbInputs + kGlInputs; i < kHotspotRadix; ++i) {
    add(i, 1 + (i % (kHotspotRadix - 1)), TrafficClass::BestEffort, 0.0, 8,
        0.6);
  }
  return w;
}

std::uint64_t manifest_seed(std::uint64_t seed, std::uint64_t n) {
  constexpr std::uint64_t kStep = 0x9E3779B97F4A7C15ULL;
  constexpr std::uint64_t kTries = 10000;
  const auto near = [n](std::uint64_t count, std::uint64_t percent,
                        std::uint64_t tolerance_permille) {
    const std::uint64_t want = n * percent;  // in hundredths
    const std::uint64_t got = count * 100;
    const std::uint64_t off = got > want ? got - want : want - got;
    return off * 10 <= n * tolerance_permille + 1000;
  };
  for (std::uint64_t k = 0; k < kTries; ++k) {
    const std::uint64_t base = seed + k * kStep;
    std::uint64_t r32 = 0, r64 = 0, differential = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const check::Scenario s = check::generate_scenario(i, base);
      r32 += s.radix > 16 && s.radix <= 32 ? 1u : 0u;
      r64 += s.radix > 32 ? 1u : 0u;
      differential += checking_depth(s).differential ? 1u : 0u;
    }
    if (near(r32, 10, 5) && near(r64, 5, 5) && near(differential, 60, 20)) {
      return base;
    }
  }
  throw std::runtime_error("manifest_seed: no base seed holds the mix");
}

ssq::campaign::Manifest sharded_manifest(std::uint64_t seed,
                                         std::uint64_t scenarios,
                                         std::uint64_t shards) {
  ssq::campaign::Manifest m;
  m.base_seed = manifest_seed(seed, scenarios);
  m.scenarios = scenarios;
  m.shards = shards;
  m.grid = {ssq::campaign::parse_grid_point("default"),
            ssq::campaign::parse_grid_point("monitor")};
  m.validate();
  return m;
}

}  // namespace qosbench
