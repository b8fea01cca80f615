// The seeded fleet worlds the fleet workloads run: per-link rooms from
// env/registry, seeded AP/Rx poses and one of the paper's Sec. 8 impairment
// families per link. A link's world is a pure function of (seed, link
// index), so any subset of links can be rebuilt on its own -- the traced
// sample and the replay checks rebuild exactly the links run_fleet ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "array/codebook.h"
#include "array/phased_array.h"
#include "channel/link.h"
#include "core/classifier.h"
#include "core/controller.h"
#include "env/environment.h"
#include "phy/error_model.h"
#include "phy/mcs.h"
#include "sim/fleet.h"
#include "trace/dataset.h"
#include "common.h"

namespace perfbench {

enum class Impairment { kNone, kBlockage, kInterference, kWalk, kRotate,
                        kFading };
const char* impairment_name(Impairment kind);

struct WorldOptions {
  std::uint64_t seed = 1;
  int num_beams = 5;
  double duration_ms = 300.0;
  // false: every link is stationary and unimpaired (association workload).
  bool impairments = true;
};

// The immutable parts every link shares, built once per set-up.
struct FleetModel {
  phy::McsTable table;
  phy::ErrorModel error_model{&table};
  trace::Dataset dataset;
  core::LibraClassifier classifier;
  std::unique_ptr<array::Codebook> codebook;
  std::vector<env::Environment> rooms;
};

// The training half of a set-up: collect the (subsampled) training
// campaign, then fit the classifier on it. Shared by every workload.
void collect_and_train(trace::Dataset& dataset,
                       core::LibraClassifier& classifier,
                       const phy::ErrorModel& error_model, SetupTimes& times);

// The registry rooms, in a fixed order.
std::vector<env::Environment> registry_rooms();

struct LinkSpec {
  int room = 0;
  Impairment kind = Impairment::kNone;
  geom::Vec2 ap;
  double ap_boresight_deg = 0.0;
  geom::Vec2 rx;
  double rx_boresight_deg = 0.0;
  sim::SessionScript script;
};

LinkSpec make_link_spec(const WorldOptions& opt,
                        const std::vector<env::Environment>& rooms,
                        std::size_t index);

// Owns the environments, arrays, links and controllers of a set of links
// (by global index) and the FleetLink members that point into them. Not
// copyable or movable: members hold raw pointers into the arenas.
class World {
 public:
  World(const FleetModel& model, const WorldOptions& opt,
        std::span<const std::size_t> indices);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::size_t size() const { return members_.size(); }
  std::span<const sim::FleetLink> members() const { return members_; }
  sim::FleetLink& member(std::size_t k) { return members_[k]; }
  const LinkSpec& spec(std::size_t k) const { return specs_[k]; }
  // True once link k's controller has played its whole script.
  bool finished(std::size_t k) const;

 private:
  std::vector<LinkSpec> specs_;
  std::vector<env::Environment> envs_;
  std::vector<array::PhasedArray> arrays_;  // [2k] = AP, [2k+1] = Rx
  std::vector<channel::Link> links_;
  std::vector<core::LibraController> controllers_;
  std::vector<sim::FleetLink> members_;
};

// All indices 0..n-1.
std::vector<std::size_t> iota_indices(std::size_t n);

// The per-link stream run_fleet hands link i: the (i+1)-th fork of
// Rng(seed), for every i in `indices` (sorted ascending).
std::vector<util::Rng> fleet_streams(std::uint64_t seed,
                                     std::span<const std::size_t> indices);

// Bit-exact comparison of two session results; empty when equal, else the
// first differing field.
std::string session_mismatch(const sim::SessionResult& a,
                             const sim::SessionResult& b);
// Digest over every session result's accounting fields (bit patterns).
std::uint64_t fleet_digest(std::span<const sim::SessionResult> results);

}  // namespace perfbench
