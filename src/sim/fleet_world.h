// One owning fleet world: the stations a sim::run_fleet call borrows.
//
// Every fleet member is a controller bound to its own environment and link
// (sessions mutate blockers and interferers, so members never share a
// world). FleetWorld builds all of them once -- a copy of the room, the AP
// array at the room's AP position (boresight 0 deg), the client array at
// the station's position (boresight 180 deg), the link between them and
// the station's controller -- and hands out the FleetLink view run_fleet
// takes. The FleetLinks hold raw pointers into the stations, so the type
// is neither copyable nor movable: a world that never relocates is one
// whose members() can never dangle.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "array/codebook.h"
#include "array/phased_array.h"
#include "channel/link.h"
#include "core/controller.h"
#include "env/environment.h"
#include "sim/fleet.h"

namespace libra::sim {

struct StationSpec {
  geom::Vec2 client;  // the client (Rx) position; boresight 180 deg
  // The LiBRA classifier serving this station (non-owning; must outlive
  // the world), or nullptr for the RA-first baseline with a default
  // ControllerConfig.
  const core::LibraClassifier* classifier = nullptr;
  SessionScript script;
};

class FleetWorld {
 public:
  struct Station {
    Station(const env::Environment& room, geom::Vec2 ap_position,
            const array::Codebook* codebook,
            const phy::ErrorModel* error_model, const StationSpec& spec);
    // Not copyable: `link` points at this station's own members.
    Station(const Station&) = delete;
    Station& operator=(const Station&) = delete;

    env::Environment environment;
    array::PhasedArray ap;
    array::PhasedArray client;
    channel::Link link;
    std::unique_ptr<core::LinkController> controller;
  };

  // Builds one station per spec, in spec order. `codebook` and
  // `error_model` are borrowed and must outlive the world.
  FleetWorld(const env::Environment& room, geom::Vec2 ap_position,
             const array::Codebook* codebook,
             const phy::ErrorModel* error_model,
             std::vector<StationSpec> specs);
  FleetWorld(const FleetWorld&) = delete;
  FleetWorld& operator=(const FleetWorld&) = delete;

  // The run_fleet view: member k borrows station k and owns spec k's
  // script. Its pointers are non-const, so a serial run_session replay of
  // station k runs straight off members()[k].
  std::span<const FleetLink> members() const { return members_; }
  // Station k; throws std::out_of_range past the last one.
  const Station& station(std::size_t k) const { return stations_.at(k); }

 private:
  std::deque<Station> stations_;  // deque: emplace never relocates
  std::vector<FleetLink> members_;
};

}  // namespace libra::sim
