#include "trace/ground_truth.h"

#include <algorithm>

namespace libra::trace {

std::string to_string(Action a) {
  switch (a) {
    case Action::kRA: return "RA";
    case Action::kBA: return "BA";
    case Action::kNA: return "NA";
  }
  return "?";
}

bool is_working(double cdr, double tput_mbps) {
  return cdr > kWorkingMinCdr && tput_mbps > kWorkingMinTputMbps;
}

namespace {

// Highest working MCS <= start on this trace; -1 if none.
phy::McsIndex first_working_downward(const PairTrace& t, phy::McsIndex start) {
  for (phy::McsIndex m = start; m >= 0; --m) {
    const auto i = static_cast<std::size_t>(m);
    if (is_working(t.cdr[i], t.throughput_mbps[i])) return m;
  }
  return -1;
}

// Best throughput among MCSs <= start on this trace.
double best_tput_upto(const PairTrace& t, phy::McsIndex start) {
  double best = 0.0;
  for (phy::McsIndex m = 0; m <= start; ++m) {
    best = std::max(best, t.throughput_mbps[static_cast<std::size_t>(m)]);
  }
  return best;
}

}  // namespace

GroundTruth label_case(const CaseRecord& rec, const GroundTruthConfig& cfg) {
  GroundTruth gt;
  const phy::McsIndex m0 = rec.init_mcs;
  const int n_mcs = static_cast<int>(rec.init_best.throughput_mbps.size());
  const double th_max =
      *std::max_element(rec.init_best.throughput_mbps.begin(),
                        rec.init_best.throughput_mbps.end());
  const double d_max =
      mac::worst_case_delay_ms(n_mcs, cfg.fat_ms, cfg.ba_overhead_ms);

  // --- RA alone: downward search on the initial pair at the new state. ---
  const phy::McsIndex ra_first = first_working_downward(
      rec.new_at_init_pair, m0);
  gt.th_ra_mbps = best_tput_upto(rec.new_at_init_pair, m0);
  if (ra_first >= 0) {
    gt.delay_ra_ms = static_cast<double>(m0 - ra_first + 1) * cfg.fat_ms;
  } else {
    // RA probes everything, fails, BA is performed, RA again on the new
    // pair (Sec. 5.2 Dmax discussion).
    const phy::McsIndex after = first_working_downward(rec.new_best, m0);
    const double second_round =
        after >= 0 ? static_cast<double>(m0 - after + 1) * cfg.fat_ms
                   : static_cast<double>(m0 + 1) * cfg.fat_ms;
    gt.delay_ra_ms = static_cast<double>(m0 + 1) * cfg.fat_ms +
                     cfg.ba_overhead_ms + second_round;
  }

  // --- BA first (always followed by RA on the new best pair). ---
  const phy::McsIndex ba_first = first_working_downward(rec.new_best, m0);
  gt.th_ba_mbps = best_tput_upto(rec.new_best, m0);
  {
    const double ra_after =
        ba_first >= 0 ? static_cast<double>(m0 - ba_first + 1) * cfg.fat_ms
                      : static_cast<double>(m0 + 1) * cfg.fat_ms;
    gt.delay_ba_ms = cfg.ba_overhead_ms + ra_after;
  }

  gt.delay_ra_ms = std::min(gt.delay_ra_ms, d_max);
  gt.delay_ba_ms = std::min(gt.delay_ba_ms, d_max);

  const auto utility = [&](double th, double d) {
    return cfg.alpha * th / th_max + (1.0 - cfg.alpha) * (1.0 - d / d_max);
  };
  gt.utility_ra = utility(gt.th_ra_mbps, gt.delay_ra_ms);
  gt.utility_ba = utility(gt.th_ba_mbps, gt.delay_ba_ms);

  // Perform RA when U(RA) >= U(BA) (within the indifference band), BA
  // otherwise (Sec. 5.2).
  gt.label = gt.utility_ra >= gt.utility_ba - kTieTolerance
                 ? Action::kRA
                 : Action::kBA;

  // --- 3-class label: NA when the operating (pair, MCS) still delivers. ---
  const auto i0 = static_cast<std::size_t>(m0);
  const bool still_working =
      is_working(rec.new_at_init_pair.cdr[i0],
                 rec.new_at_init_pair.throughput_mbps[i0]) &&
      rec.new_at_init_pair.throughput_mbps[i0] >=
          kNaTputFraction * rec.init_best.throughput_mbps[i0];
  gt.label3 = (rec.forced_na || still_working) ? Action::kNA : gt.label;
  return gt;
}

}  // namespace libra::trace
