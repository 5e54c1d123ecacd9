// Flow specification (paper footnote 1: "A flow is a stream of packets that
// traverse the same route from a source to a destination").
//
// A workload is a set of flows; each flow binds a (src input, dst output)
// pair to a traffic class, a reserved rate (GB only), a packet-size range,
// and an injection process.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/error.hpp"
#include "sim/types.hpp"

namespace ssq::traffic {

/// Stochastic process deciding when the source creates packets.
enum class InjectKind : std::uint8_t {
  /// Independent per-cycle coin flip with P = rate / mean_packet_len.
  Bernoulli = 0,
  /// Two-state Markov on/off source: bursts at the peak rate, idle between.
  OnOff,
  /// One packet every round(mean_packet_len / rate) cycles, phase 0.
  Periodic,
  /// A single burst of `burst_packets` back-to-back packets at cycle
  /// `burst_start` (GL latency-bound experiments).
  BurstOnce,
  /// Explicit injection-cycle list.
  Trace,
};

struct FlowSpec {
  InputId src = 0;
  OutputId dst = 0;
  TrafficClass cls = TrafficClass::BestEffort;

  /// GB only: fraction of the destination channel's bandwidth this flow
  /// reserves (Vtick derives from it). Ignored for BE; GL reservations are
  /// per-output and shared (see Workload::set_gl_reservation).
  double reserved_rate = 0.0;

  /// Packet length range in flits; fixed size when min == max. Lengths are
  /// drawn uniformly from [min, max].
  std::uint32_t len_min = 1;
  std::uint32_t len_max = 1;

  InjectKind inject = InjectKind::Bernoulli;
  /// Offered load in flits/cycle (Bernoulli, OnOff, Periodic).
  double inject_rate = 0.0;

  /// First cycle the source is active (Bernoulli/OnOff/Periodic): the flow
  /// creates nothing before this. Enables join/leave transients.
  Cycle start_cycle = 0;

  /// OnOff: mean burst and idle durations in cycles.
  double mean_on_cycles = 64.0;
  double mean_off_cycles = 64.0;

  /// BurstOnce parameters.
  Cycle burst_start = 0;
  std::uint32_t burst_packets = 0;

  /// Trace injection cycles (sorted non-decreasing).
  std::vector<Cycle> trace;

  /// Message priority level for the legacy 4-level QoS baseline [14]
  /// (arb::Kind::MultiLevel); 0 = lowest, 3 = highest. Ignored by SSVC.
  std::uint32_t legacy_priority = 0;

  /// Midpoint of [len_min, len_max], rounded down. Never forms
  /// len_min + len_max, which can overflow uint32.
  [[nodiscard]] std::uint32_t mean_len() const noexcept {
    return len_min + (len_max - len_min) / 2;
  }

  /// Throws ssq::ConfigError — flow specs come from workload files.
  void validate(std::uint32_t radix) const {
    detail::config_check(src < radix && dst < radix,
                         "flow src/dst port out of range for this radix");
    detail::config_check(len_min >= 1 && len_min <= len_max,
                         "flow packet length range invalid (need 1 <= "
                         "len_min <= len_max)");
    detail::config_check(legacy_priority < 4,
                         "flow legacy_priority out of range [0,3]");
    detail::config_check(reserved_rate >= 0.0 && reserved_rate <= 1.0,
                         "flow reserved rate out of range [0,1]");
    if (cls == TrafficClass::GuaranteedBandwidth) {
      detail::config_check(reserved_rate > 0.0,
                           "GB flows must reserve a positive rate");
    }
    switch (inject) {
      case InjectKind::Bernoulli:
      case InjectKind::Periodic:
        detail::config_check(inject_rate > 0.0 && inject_rate <= 1.0,
                             "flow inject rate out of range (0,1]");
        break;
      case InjectKind::OnOff:
        detail::config_check(inject_rate > 0.0 && inject_rate <= 1.0,
                             "flow inject rate out of range (0,1]");
        detail::config_check(mean_on_cycles >= 1.0 && mean_off_cycles >= 0.0,
                             "flow on/off durations invalid");
        break;
      case InjectKind::BurstOnce:
        detail::config_check(burst_packets >= 1,
                             "burst flow needs burst_packets >= 1");
        break;
      case InjectKind::Trace:
        for (std::size_t i = 1; i < trace.size(); ++i) {
          detail::config_check(trace[i] >= trace[i - 1],
                               "flow trace cycles must be non-decreasing");
        }
        break;
    }
  }
};

}  // namespace ssq::traffic
