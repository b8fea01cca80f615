#include "sim/fleet_world.h"

#include <utility>

namespace libra::sim {

namespace {

std::unique_ptr<core::LinkController> make_controller(
    channel::Link* link, const phy::ErrorModel* error_model,
    const core::LibraClassifier* classifier) {
  if (classifier != nullptr) {
    return std::make_unique<core::LibraController>(link, error_model,
                                                   classifier);
  }
  return std::make_unique<core::RaFirstController>(link, error_model,
                                                   core::ControllerConfig{});
}

}  // namespace

FleetWorld::Station::Station(const env::Environment& room,
                             geom::Vec2 ap_position,
                             const array::Codebook* codebook,
                             const phy::ErrorModel* error_model,
                             const StationSpec& spec)
    : environment(room),
      ap(ap_position, 0.0, codebook),
      client(spec.client, 180.0, codebook),
      link(&environment, &ap, &client),
      controller(make_controller(&link, error_model, spec.classifier)) {}

FleetWorld::FleetWorld(const env::Environment& room, geom::Vec2 ap_position,
                       const array::Codebook* codebook,
                       const phy::ErrorModel* error_model,
                       std::vector<StationSpec> specs) {
  members_.reserve(specs.size());
  for (StationSpec& spec : specs) {
    Station& s = stations_.emplace_back(room, ap_position, codebook,
                                        error_model, spec);
    members_.push_back(
        {&s.environment, &s.link, s.controller.get(), std::move(spec.script)});
  }
}

}  // namespace libra::sim
