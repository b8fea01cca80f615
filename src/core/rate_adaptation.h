// Frame-based rate adaptation (Sec. 7 "Adaptation algorithms", Algorithm 1).
//
// Repair walk: starting at the MCS in use, probe downward one aggregated
// frame per MCS until the highest-throughput working MCS is found. Upward
// exploration: after an interval of T frames with healthy CDR, probe the
// next higher MCS; failed probes back off the interval exponentially,
// T = T0 * min(2^k, 2^5), with T0 = 5 frames.
#pragma once

#include <vector>

#include "trace/collector.h"
#include "trace/ground_truth.h"

namespace libra::core {

// Result of a downward RA repair walk over a trace.
struct RaWalk {
  // MCS probed at each frame of the walk, in order (starts at the entry
  // MCS, descends).
  std::vector<phy::McsIndex> probes;
  // The MCS the walk settles on (highest-throughput working MCS at or below
  // the entry MCS); -1 when no MCS works on this trace.
  phy::McsIndex settled = -1;
  // Index into `probes` of the first *working* MCS encountered; -1 if none.
  // The link-recovery delay stops counting here (Sec. 5.2).
  int first_working_probe = -1;
};

// Simulate the downward walk on the given per-MCS trace.
RaWalk ra_repair_walk(const trace::PairTrace& t, phy::McsIndex start_mcs);

inline constexpr int kUpProbeT0Frames = 5;  // minimum probing interval (Sec. 7)
inline constexpr int kUpProbeMaxBackoffExponent = 5;
// Healthy-link gate for upward probes.
inline constexpr double kUpProbeMinCdr = 0.9;

// Upward-probing state machine. Call on_frame() once per transmitted frame;
// it returns the MCS to use for that frame and internally advances the
// probe/backoff state based on the trace the link currently follows.
class UpProber {
 public:
  explicit UpProber(phy::McsIndex current);

  // Decide the MCS for the next frame given the trace of the pair in use.
  phy::McsIndex on_frame(const trace::PairTrace& t);

  phy::McsIndex current() const { return current_; }
  void reset(phy::McsIndex current);

 private:
  phy::McsIndex current_;
  int timer_;
  int failed_probes_ = 0;
};

}  // namespace libra::core
