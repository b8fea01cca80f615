// Indoor measurement environments (Sec. 4.2, Appendix A.2.1).
//
// Each environment is a plan-view polygon of material walls plus optional
// interior obstacles (cabinets, desks). Environments both reflect paths
// (image-method ray tracing) and block them (LOS obstruction).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geom/geometry.h"

namespace libra::env {

// A human blocker standing on/near a path (Sec. 4.2 "Blockage"): modeled as
// a disc that attenuates any ray passing within its radius. Measured 60 GHz
// human-body losses are 15-30 dB; partial occlusion yields less.
struct Blocker {
  geom::Vec2 position;
  double radius_m = 0.25;
  double attenuation_db = 28.0;

  bool operator==(const Blocker&) const = default;
};

class Environment {
 public:
  Environment(std::string name, std::vector<geom::Wall> walls);

  const std::string& name() const { return name_; }
  const std::vector<geom::Wall>& walls() const { return walls_; }

  void add_blocker(const Blocker& b) { blockers_.push_back(b); }
  void clear_blockers() { blockers_.clear(); }
  const std::vector<Blocker>& blockers() const { return blockers_; }

  // Total blockage attenuation (dB) a ray from a to b suffers from the
  // blockers currently present. Grazing incidence (ray passes near the edge
  // of the disc) attenuates proportionally less than a dead-center hit.
  double blockage_loss_db(geom::Vec2 a, geom::Vec2 b) const;

  // True if the straight segment a->b is interrupted by any wall.
  bool wall_obstructs(geom::Vec2 a, geom::Vec2 b) const;

  // Axis-aligned bounding box over all wall endpoints.
  struct BoundingBox {
    geom::Vec2 min;
    geom::Vec2 max;
  };
  BoundingBox bounding_box() const;

  // Clamp a point into the bounding box with the given margin.
  geom::Vec2 clamp_inside(geom::Vec2 p, double margin_m = 0.3) const;

 private:
  std::string name_;
  std::vector<geom::Wall> walls_;
  std::vector<Blocker> blockers_;
};

}  // namespace libra::env
