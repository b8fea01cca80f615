// Ground-truth labeling (Sec. 5.2).
//
// Given a collected case and a protocol parameterization, "simulate" both
// adaptation mechanisms from the logged traces:
//
//   RA alone : probe MCSs downward from the initial MCS on the *initial*
//              beam pair; Th(RA) is the best throughput among MCSs <= the
//              initial MCS on that pair.
//   BA first : pay the sector-sweep overhead, then RA on the *new best*
//              pair starting from the initial MCS; Th(BA) is the best
//              throughput among MCSs <= the initial MCS on the new pair
//              (BA is always followed by RA, per the RA/BA subtleties).
//
// The winner optimizes the utility U = a*Th/Thmax + (1-a)*(1 - D/Dmax) of
// Eqn. (1). The recovery delay D counts one aggregated frame (FAT) per
// probed MCS plus the BA overhead where applicable; Dmax is the worst case
// (full RA sweep + BA + full RA sweep).
#pragma once

#include "mac/timing.h"
#include "trace/collector.h"

namespace libra::trace {

enum class Action { kRA, kBA, kNA };
std::string to_string(Action a);

struct GroundTruthConfig {
  double alpha = 1.0;           // Sec. 5/6 use alpha=1 (throughput only)
  double fat_ms = 10.0;         // frame aggregation time (one RA probe)
  double ba_overhead_ms = 5.0;  // sector sweep duration
};

// "No Adaptation" rule for the 3-class labels (Sec. 7): the current MCS on
// the current pair still works and retains at least this fraction of the
// pre-impairment throughput.
inline constexpr double kNaTputFraction = 0.90;
// Indifference band for the BA-vs-RA utility comparison: when the two
// utilities are within this margin, RA wins ("perform RA when
// Th(RA) >= Th(BA)", Sec. 5.2) -- it avoids the sweep overhead and keeps
// measurement noise from creating unlearnable coin-flip labels.
inline constexpr double kTieTolerance = 0.02;

struct GroundTruth {
  Action label = Action::kRA;        // 2-class (BA vs RA) decision
  Action label3 = Action::kRA;       // 3-class (BA / RA / NA) decision
  double th_ra_mbps = 0.0;
  double th_ba_mbps = 0.0;
  double delay_ra_ms = 0.0;
  double delay_ba_ms = 0.0;
  double utility_ra = 0.0;
  double utility_ba = 0.0;
};

// True if the (cdr, throughput) pair satisfies the working-MCS rule.
bool is_working(double cdr, double tput_mbps);

GroundTruth label_case(const CaseRecord& rec, const GroundTruthConfig& cfg);

}  // namespace libra::trace
