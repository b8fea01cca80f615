#include "world.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "env/registry.h"
#include "trace/scenario.h"

namespace perfbench {

namespace {

// Every kCollectStride-th case of the paper's training campaign: enough
// cases for all three classes, cheap enough to set up several times a run.
constexpr std::size_t kCollectStride = 6;

const Impairment kImpairedKinds[] = {
    Impairment::kBlockage, Impairment::kInterference, Impairment::kWalk,
    Impairment::kRotate, Impairment::kFading};
constexpr std::size_t kNumImpairedKinds = std::size(kImpairedKinds);

double deg_toward(geom::Vec2 from, geom::Vec2 to) {
  return (to - from).angle_deg();
}

}  // namespace

const char* impairment_name(Impairment kind) {
  switch (kind) {
    case Impairment::kNone: return "none";
    case Impairment::kBlockage: return "blockage";
    case Impairment::kInterference: return "interference";
    case Impairment::kWalk: return "walk";
    case Impairment::kRotate: return "rotate";
    case Impairment::kFading: return "fading";
  }
  return "?";
}

void collect_and_train(trace::Dataset& dataset,
                       core::LibraClassifier& classifier,
                       const phy::ErrorModel& error_model, SetupTimes& times) {
  double cpu0 = process_cpu_s();
  trace::ScenarioSet all = trace::training_scenarios();
  trace::ScenarioSet subset;
  subset.environments = std::move(all.environments);
  for (std::size_t c = 0; c < all.cases.size(); c += kCollectStride) {
    subset.cases.push_back(all.cases[c]);
  }
  trace::CollectOptions opt;
  opt.with_na_augmentation = true;
  dataset = trace::collect_dataset(subset, error_model, opt);
  times.collect_s = cpu_seconds_since(cpu0);

  cpu0 = process_cpu_s();
  util::Rng rng(1);
  classifier.train(dataset, trace::GroundTruthConfig{}, rng);
  times.train_s = cpu_seconds_since(cpu0);
}

std::vector<env::Environment> registry_rooms() {
  std::vector<env::Environment> rooms = env::training_environments();
  for (env::Environment& room : env::testing_environments()) {
    rooms.push_back(std::move(room));
  }
  return rooms;
}

LinkSpec make_link_spec(const WorldOptions& opt,
                        const std::vector<env::Environment>& rooms,
                        std::size_t index) {
  util::Rng rng(mix64(mix64(opt.seed) + index));
  LinkSpec spec;
  // Rooms and impairment kinds are dealt round-robin from a seeded offset,
  // so every (room, kind) cell gets the same share of links on any seed.
  const std::size_t cells =
      rooms.size() * (opt.impairments ? kNumImpairedKinds : 1);
  const std::size_t cell = (index + mix64(opt.seed ^ 0x5eed) % cells) % cells;
  spec.room = static_cast<int>(cell % rooms.size());
  spec.kind = opt.impairments ? kImpairedKinds[cell / rooms.size()]
                              : Impairment::kNone;

  const env::Environment& room = rooms[static_cast<std::size_t>(spec.room)];
  const env::Environment::BoundingBox box = room.bounding_box();
  auto inside = [&](geom::Vec2 p) { return room.clamp_inside(p, 0.5); };
  spec.ap = inside({rng.uniform(box.min.x, box.max.x),
                    rng.uniform(box.min.y, box.max.y)});
  // Rx 1.5-10 m from the AP; a clamp against a narrow room can pull it
  // closer, so redraw until it sits at least 1 m away.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const double r = rng.uniform(1.5, 10.0);
    const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
    spec.rx = inside(spec.ap + geom::Vec2{r * std::cos(a), r * std::sin(a)});
    if (geom::distance(spec.ap, spec.rx) >= 1.0) break;
  }
  const double skew = opt.impairments ? 20.0 : 45.0;
  spec.ap_boresight_deg = deg_toward(spec.ap, spec.rx) + rng.uniform(-skew, skew);
  spec.rx_boresight_deg = deg_toward(spec.rx, spec.ap) + rng.uniform(-skew, skew);

  sim::SessionScript& s = spec.script;
  const double d = opt.duration_ms;
  s.duration_ms = d;
  s.rx_trajectory = sim::Trajectory::stationary(spec.rx, spec.rx_boresight_deg);
  const double start = rng.uniform(0.1, 0.4) * d;
  const double end = start + rng.uniform(0.25, 0.5) * d;
  switch (spec.kind) {
    case Impairment::kNone:
      break;
    case Impairment::kBlockage: {
      // A person standing on (or just beside) the LOS.
      const geom::Vec2 along = spec.ap + (spec.rx - spec.ap) * rng.uniform(0.3, 0.7);
      const geom::Vec2 dir = (spec.rx - spec.ap).normalized();
      const geom::Vec2 perp{-dir.y, dir.x};
      env::Blocker b;
      b.position = along + perp * rng.uniform(-0.2, 0.2);
      b.radius_m = rng.uniform(0.2, 0.35);
      b.attenuation_db = rng.uniform(18.0, 30.0);
      s.blockage.push_back({start, end, b});
      break;
    }
    case Impairment::kInterference: {
      channel::Interferer in;
      in.position = inside({rng.uniform(box.min.x, box.max.x),
                            rng.uniform(box.min.y, box.max.y)});
      in.eirp_dbm = rng.uniform(10.0, 22.0);
      in.duty_cycle = rng.uniform(0.2, 0.9);
      s.interference.push_back({start, end, in});
      break;
    }
    case Impairment::kWalk: {
      const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double r = rng.uniform(1.0, 3.0);
      const geom::Vec2 to =
          inside(spec.rx + geom::Vec2{r * std::cos(a), r * std::sin(a)});
      s.rx_trajectory = sim::Trajectory::walk(spec.rx, to, d, spec.ap);
      spec.rx_boresight_deg = deg_toward(spec.rx, spec.ap);
      break;
    }
    case Impairment::kRotate: {
      const double turn = rng.uniform(30.0, 90.0) * (rng.bernoulli(0.5) ? 1 : -1);
      s.rx_trajectory = sim::Trajectory::rotate(
          spec.rx, spec.rx_boresight_deg, spec.rx_boresight_deg + turn, d);
      break;
    }
    case Impairment::kFading:
      s.fading = {rng.uniform(2.0, 5.0), rng.uniform(50.0, 200.0)};
      s.fading_seed = mix64(opt.seed + 7919 * index);
      break;
  }
  return spec;
}

World::World(const FleetModel& model, const WorldOptions& opt,
             std::span<const std::size_t> indices) {
  const std::size_t n = indices.size();
  specs_.reserve(n);
  envs_.reserve(n);
  arrays_.reserve(2 * n);
  links_.reserve(n);
  controllers_.reserve(n);
  members_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    specs_.push_back(make_link_spec(opt, model.rooms, indices[k]));
    const LinkSpec& spec = specs_.back();
    envs_.push_back(model.rooms[static_cast<std::size_t>(spec.room)]);
    arrays_.emplace_back(spec.ap, spec.ap_boresight_deg, model.codebook.get());
    arrays_.emplace_back(spec.rx, spec.rx_boresight_deg, model.codebook.get());
    links_.emplace_back(&envs_[k], &arrays_[2 * k], &arrays_[2 * k + 1]);
    controllers_.emplace_back(&links_[k], &model.error_model,
                              &model.classifier);
    members_.push_back(
        {&envs_[k], &links_[k], &controllers_[k], spec.script});
  }
}

bool World::finished(std::size_t k) const {
  return controllers_[k].time_ms() >= specs_[k].script.duration_ms;
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

std::vector<util::Rng> fleet_streams(std::uint64_t seed,
                                     std::span<const std::size_t> indices) {
  util::Rng root(seed);
  std::vector<util::Rng> out;
  out.reserve(indices.size());
  std::size_t next = 0;
  for (std::size_t i = 0; next < indices.size(); ++i) {
    util::Rng stream = root.fork();
    if (indices[next] == i) {
      out.push_back(stream);
      ++next;
    }
  }
  return out;
}

std::string session_mismatch(const sim::SessionResult& a,
                             const sim::SessionResult& b) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  if (!same(a.bytes_mb, b.bytes_mb)) return "bytes_mb";
  if (!same(a.avg_goodput_mbps, b.avg_goodput_mbps)) return "avg_goodput_mbps";
  if (a.frames != b.frames) return "frames";
  if (a.adaptations_ba != b.adaptations_ba) return "adaptations_ba";
  if (a.adaptations_ra != b.adaptations_ra) return "adaptations_ra";
  if (a.outages != b.outages) return "outages";
  if (!same(a.total_outage_ms, b.total_outage_ms)) return "total_outage_ms";
  return {};
}

std::uint64_t fleet_digest(std::span<const sim::SessionResult> results) {
  Digest d;
  for (const sim::SessionResult& r : results) {
    d.add(r.bytes_mb);
    d.add(r.avg_goodput_mbps);
    d.add(r.frames);
    d.add(r.adaptations_ba);
    d.add(r.adaptations_ra);
    d.add(r.outages);
    d.add(r.total_outage_ms);
  }
  return d.value();
}

}  // namespace perfbench
