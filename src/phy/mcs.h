// Single-carrier MCS table modeled on the X60 PHY reference implementation
// (Sec. 4.1): 9 SC MCSs with data rates from 300 Mbps to 4.75 Gbps, similar
// to the SC 802.11ad PHY. Each MCS has a decode SNR threshold; the spacing
// mirrors the modulation/coding ladder (BPSK 1/2 ... 16QAM 3/4).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace libra::phy {

using McsIndex = int;

struct McsEntry {
  McsIndex index;
  std::string modulation;
  double code_rate;
  double phy_rate_mbps;
  double snr_threshold_db;   // ~50% codeword success at this SNR
  int codeword_bytes;        // codeword payload size (180-1080 B, Sec. 4.1)
};

class McsTable {
 public:
  // The default X60-like table.
  McsTable();
  explicit McsTable(std::vector<McsEntry> entries);

  int size() const { return static_cast<int>(entries_.size()); }
  McsIndex max_mcs() const { return size() - 1; }
  const McsEntry& entry(McsIndex i) const;
  const std::vector<McsEntry>& entries() const { return entries_; }

  double rate_mbps(McsIndex i) const { return entry(i).phy_rate_mbps; }
  double max_rate_mbps() const { return entries_.back().phy_rate_mbps; }

  // Highest MCS whose threshold is at or below the given SNR; -1 if even
  // MCS 0 cannot decode (link broken).
  McsIndex highest_supported(double snr_db) const;

 private:
  std::vector<McsEntry> entries_;
};

// 802.11ad SC MCS table (MCS 1-12, data frames; Sec. 2), used when
// simulating COTS devices in the motivation experiments.
McsTable ieee80211ad_sc_table();

}  // namespace libra::phy
