#include "array/codebook.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/geometry.h"
#include "util/rng.h"
#include "util/units.h"

namespace libra::array {
namespace {

// Gaussian-shaped lobe: 3 dB down at half the HPBW from the peak.
double lobe_gain_db(double delta_deg, double peak_db, double hpbw_deg) {
  const double x = delta_deg / (hpbw_deg / 2.0);
  return peak_db - 3.0 * x * x;
}

}  // namespace

BeamPattern::BeamPattern(BeamId id, double steer_deg, double hpbw_deg,
                         double peak_gain_dbi, std::vector<SideLobe> side_lobes)
    : id_(id),
      steer_deg_(steer_deg),
      hpbw_deg_(hpbw_deg),
      peak_gain_dbi_(peak_gain_dbi),
      side_lobes_(std::move(side_lobes)) {}

double BeamPattern::gain_dbi(double angle_deg) const {
  const double delta = geom::wrap_angle_deg(angle_deg - steer_deg_);
  double best = lobe_gain_db(delta, peak_gain_dbi_, hpbw_deg_);
  for (const SideLobe& sl : side_lobes_) {
    const double sl_delta = geom::wrap_angle_deg(delta - sl.offset_deg);
    best = std::max(best, lobe_gain_db(sl_delta, peak_gain_dbi_ + sl.gain_db,
                                       sl.width_deg));
  }
  return best;
}

Codebook::Codebook(const CodebookConfig& config) {
  if (config.num_beams < 1) throw std::invalid_argument("num_beams < 1");
  util::Rng rng(config.pattern_seed);
  beams_.reserve(static_cast<std::size_t>(config.num_beams));
  const double span = kMaxSteerDeg - kMinSteerDeg;
  for (int i = 0; i < config.num_beams; ++i) {
    const double frac =
        config.num_beams == 1
            ? 0.5
            : static_cast<double>(i) / static_cast<double>(config.num_beams - 1);
    const double steer = kMinSteerDeg + frac * span;
    // HPBW varies 25..35 degrees across the codebook (Sec. 4.1), here as a
    // deterministic per-beam perturbation around the base width.
    const double hpbw = kBaseHpbwDeg + rng.uniform(-5.0, 5.0);
    // Two large side lobes per beam, like SiBeam/COTS patterns; offsets are
    // fixed per beam so the pattern is a stable property of the hardware.
    std::vector<SideLobe> lobes;
    lobes.push_back({rng.uniform(35.0, 70.0) * (rng.bernoulli(0.5) ? 1 : -1),
                     rng.uniform(-14.0, -6.0), rng.uniform(15.0, 30.0)});
    lobes.push_back({rng.uniform(70.0, 120.0) * (rng.bernoulli(0.5) ? 1 : -1),
                     rng.uniform(-18.0, -9.0), rng.uniform(15.0, 30.0)});
    beams_.emplace_back(i, steer, hpbw, kPeakGainDbi, std::move(lobes));
  }
}

const BeamPattern& Codebook::beam(BeamId id) const {
  if (id < 0 || id >= size()) throw std::out_of_range("beam id");
  return beams_[static_cast<std::size_t>(id)];
}

double Codebook::gain_dbi(BeamId id, double angle_deg) const {
  if (id == kQuasiOmni) {
    // Quasi-omni: near-flat over the front hemisphere, attenuated behind.
    return std::abs(geom::wrap_angle_deg(angle_deg)) <= 90.0
               ? kQuasiOmniGainDbi
               : kQuasiOmniGainDbi - 8.0;
  }
  return std::max(beam(id).gain_dbi(angle_deg), kBacklobeFloorDbi);
}

BeamId Codebook::nearest_beam(double angle_deg) const {
  BeamId best = 0;
  double best_delta = std::abs(geom::wrap_angle_deg(angle_deg -
                                                    beams_[0].steering_deg()));
  for (int i = 1; i < size(); ++i) {
    const double d = std::abs(geom::wrap_angle_deg(
        angle_deg - beams_[static_cast<std::size_t>(i)].steering_deg()));
    if (d < best_delta) {
      best_delta = d;
      best = i;
    }
  }
  return best;
}

}  // namespace libra::array
