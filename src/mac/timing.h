// MAC timing: the X60 TDMA frame structure (Sec. 4.1) and the protocol
// parameter sets used in the LiBRA evaluation (Sec. 8.1).
#pragma once

namespace libra::mac {

// X60: TDMA, 10 ms frames divided into 100 slots of 100 us; each slot
// carries 92 CRC'd codewords. An X60 frame plays the role of an 802.11
// AMPDU (Sec. 4.1).
inline constexpr double kTdmaFrameMs = 10.0;
inline constexpr int kTdmaSlotsPerFrame = 100;
inline constexpr double kTdmaSlotUs = 100.0;
inline constexpr int kTdmaCodewordsPerSlot = 92;
inline constexpr int kTdmaCodewordsPerFrame =
    kTdmaSlotsPerFrame * kTdmaCodewordsPerSlot;

// The protocol parameters swept in Sec. 8.1: four beam-adaptation (sector
// sweep) durations x two frame aggregation times (FAT; one RA probe sends
// one aggregated frame). BA: 0.5 ms and 5 ms (O(N) quasi-omni,
// 30-degree / 3-degree beams), 150 ms and 250 ms (O(N^2) directional,
// 9/7-degree beams). FAT: 2 ms = max in 802.11ad; 10 ms = max in
// 802.11ac, also X60.
inline constexpr double kBaOverheadsMs[] = {0.5, 5.0, 150.0, 250.0};
inline constexpr double kFatsMs[] = {2.0, 10.0};

// Utility weight alpha of Eqn. (1): 0.7 with low BA overhead, 0.5 with
// high (Sec. 8.1).
inline double alpha_for_ba_overhead(double ba_overhead_ms) {
  return ba_overhead_ms <= 10.0 ? 0.7 : 0.5;
}

// Worst-case link recovery delay Dmax (Sec. 5.2): RA probes all MCSs, fails,
// performs BA, then probes all MCSs again.
double worst_case_delay_ms(int num_mcs, double fat_ms, double ba_overhead_ms);

}  // namespace libra::mac
