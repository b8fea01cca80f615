#include <gtest/gtest.h>

#include <cmath>

#include "array/codebook.h"
#include "array/phased_array.h"

namespace libra::array {
namespace {

TEST(Codebook, DefaultHas25Beams) {
  const Codebook cb;
  EXPECT_EQ(cb.size(), 25);
}

TEST(Codebook, SteeringSpansMinusSixtyToSixty) {
  const Codebook cb;
  EXPECT_DOUBLE_EQ(cb.beam(0).steering_deg(), -60.0);
  EXPECT_DOUBLE_EQ(cb.beam(24).steering_deg(), 60.0);
}

TEST(Codebook, SteeringSpacingIsFiveDegrees) {
  const Codebook cb;
  for (int i = 1; i < cb.size(); ++i) {
    EXPECT_NEAR(cb.beam(i).steering_deg() - cb.beam(i - 1).steering_deg(),
                5.0, 1e-9);
  }
}

TEST(Codebook, PeakGainAtSteeringAngle) {
  const Codebook cb;
  for (int i = 0; i < cb.size(); ++i) {
    const BeamPattern& b = cb.beam(i);
    EXPECT_NEAR(b.gain_dbi(b.steering_deg()), b.peak_gain_dbi(), 1e-9);
  }
}

TEST(Codebook, HalfPowerBeamwidth) {
  const Codebook cb;
  for (int i = 0; i < cb.size(); ++i) {
    const BeamPattern& b = cb.beam(i);
    // 3 dB down at half the HPBW off the peak (unless a side lobe pokes up
    // there, which the construction keeps far away from the main lobe).
    const double g = b.gain_dbi(b.steering_deg() + b.hpbw_deg() / 2.0);
    EXPECT_NEAR(g, b.peak_gain_dbi() - 3.0, 0.5);
    // HPBW within the SiBeam 25-35 degree range (Sec. 4.1).
    EXPECT_GE(b.hpbw_deg(), 25.0);
    EXPECT_LE(b.hpbw_deg(), 35.0);
  }
}

TEST(Codebook, SideLobesBelowMainLobe) {
  const Codebook cb;
  for (int i = 0; i < cb.size(); ++i) {
    for (const SideLobe& sl : cb.beam(i).side_lobes()) {
      EXPECT_LT(sl.gain_db, 0.0);
      EXPECT_GT(std::abs(sl.offset_deg), 30.0);
    }
  }
}

TEST(Codebook, GainNeverBelowBacklobeFloor) {
  const Codebook cb;
  for (int i = 0; i < cb.size(); ++i) {
    for (double a = -180.0; a <= 180.0; a += 3.0) {
      EXPECT_GE(cb.gain_dbi(i, a), kBacklobeFloorDbi);
      EXPECT_LE(cb.gain_dbi(i, a), kPeakGainDbi + 1e-9);
    }
  }
}

TEST(Codebook, QuasiOmniFrontVsBack) {
  const Codebook cb;
  EXPECT_DOUBLE_EQ(cb.gain_dbi(kQuasiOmni, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(cb.gain_dbi(kQuasiOmni, 80.0), 3.0);
  EXPECT_DOUBLE_EQ(cb.gain_dbi(kQuasiOmni, 170.0), -5.0);
}

TEST(Codebook, NearestBeam) {
  const Codebook cb;
  EXPECT_EQ(cb.nearest_beam(0.0), 12);
  EXPECT_EQ(cb.nearest_beam(-60.0), 0);
  EXPECT_EQ(cb.nearest_beam(60.0), 24);
  EXPECT_EQ(cb.nearest_beam(58.0), 24);
  EXPECT_EQ(cb.nearest_beam(-120.0), 0);
}

TEST(Codebook, DeterministicAcrossInstances) {
  const Codebook a, b;
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.gain_dbi(i, 17.0), b.gain_dbi(i, 17.0));
  }
}

TEST(Codebook, DifferentSeedDifferentSideLobes) {
  CodebookConfig cfg;
  cfg.pattern_seed = 99;
  const Codebook a, b(cfg);
  bool any_diff = false;
  for (int i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = std::abs(a.gain_dbi(i, 100.0) - b.gain_dbi(i, 100.0)) > 0.1;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Codebook, InvalidAccessThrows) {
  const Codebook cb;
  EXPECT_THROW(cb.beam(25), std::out_of_range);
  EXPECT_THROW(cb.beam(-1), std::out_of_range);
  CodebookConfig bad;
  bad.num_beams = 0;
  EXPECT_THROW(Codebook{bad}, std::invalid_argument);
}

TEST(Codebook, SingleBeamCodebook) {
  CodebookConfig cfg;
  cfg.num_beams = 1;
  const Codebook cb(cfg);
  EXPECT_EQ(cb.size(), 1);
  // A single beam steers to the center of the span.
  EXPECT_NEAR(cb.beam(0).steering_deg(), 0.0, 1e-9);
}

TEST(Codebook, AdjacentMainLobesOverlap) {
  // 5-degree spacing with ~30-degree HPBW: a beam's gain toward its
  // neighbor's steering angle stays within ~1 dB of its own peak.
  const Codebook cb;
  for (int i = 0; i + 1 < cb.size(); ++i) {
    const double g = cb.beam(i).gain_dbi(cb.beam(i + 1).steering_deg());
    EXPECT_GT(g, cb.beam(i).peak_gain_dbi() - 1.5);
  }
}

TEST(PhasedArray, WorldFrameGain) {
  const Codebook cb;
  PhasedArray arr({0, 0}, 90.0, &cb);
  // Beam 12 steers 0 degrees in the array frame = 90 degrees in the world.
  EXPECT_NEAR(arr.gain_dbi(12, 90.0), cb.beam(12).peak_gain_dbi(), 1e-9);
}

TEST(PhasedArray, Rotation) {
  const Codebook cb;
  PhasedArray arr({0, 0}, 0.0, &cb);
  arr.rotate(45.0);
  EXPECT_DOUBLE_EQ(arr.boresight_deg(), 45.0);
  arr.rotate(180.0);
  EXPECT_DOUBLE_EQ(arr.boresight_deg(), -135.0);  // wrapped
}

TEST(PhasedArray, AngleTo) {
  const Codebook cb;
  const PhasedArray arr({1, 1}, 0.0, &cb);
  EXPECT_NEAR(arr.angle_to({2, 2}), 45.0, 1e-9);
  EXPECT_NEAR(arr.angle_to({0, 1}), 180.0, 1e-9);
}

TEST(PhasedArray, NullCodebookThrows) {
  EXPECT_THROW(PhasedArray({0, 0}, 0.0, nullptr), std::invalid_argument);
}

TEST(PhasedArray, RotationShiftsBestBeam) {
  const Codebook cb;
  PhasedArray arr({0, 0}, 0.0, &cb);
  // Target straight ahead: beam 12 is best. After rotating the array +30
  // degrees, the target sits at -30 in the array frame: beam 6 is best.
  auto best_beam = [&](double world_angle) {
    BeamId best = 0;
    double best_gain = -1e9;
    for (BeamId b = 0; b < cb.size(); ++b) {
      const double g = arr.gain_dbi(b, world_angle);
      if (g > best_gain) {
        best_gain = g;
        best = b;
      }
    }
    return best;
  };
  EXPECT_EQ(best_beam(0.0), 12);
  arr.rotate(30.0);
  EXPECT_EQ(best_beam(0.0), 6);
}

}  // namespace
}  // namespace libra::array
