#include "probes.h"

#include <algorithm>
#include <utility>

#include "array/phased_array.h"
#include "channel/path_tracer.h"
#include "common.h"
#include "mac/ack.h"
#include "mac/beam_training.h"
#include "phy/sampler.h"
#include "trace/features.h"
#include "util/fft.h"

namespace perfbench {

namespace {

// Each entry point runs for at least this long (and kMinCalls calls) per
// state, so sub-microsecond calls are timed over many repetitions.
constexpr double kProbeBudgetUs = 1500.0;
constexpr int kMinCalls = 3;

volatile double g_sink = 0.0;

// Mean us per call of fn() over one budgeted loop.
template <typename Fn>
std::pair<double, int> time_calls(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  int calls = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = us_between(t0, Clock::now());
  } while (calls < kMinCalls || elapsed < kProbeBudgetUs);
  return {elapsed, calls};
}

struct Accum {
  double us = 0.0;
  long long calls = 0;
  void add(std::pair<double, int> r) {
    us += r.first;
    calls += r.second;
  }
  double per_call() const { return calls ? us / static_cast<double>(calls) : 0.0; }
};

}  // namespace

ProbeState capture_state(const sim::FleetLink& member, const util::Rng& rng) {
  const channel::Link& link = *member.link;
  ProbeState s{*member.environment,
               link.tx().position(),
               link.tx().boresight_deg(),
               link.rx().position(),
               link.rx().boresight_deg(),
               link.interferer(),
               link.fade_db(),
               member.controller->tx_beam(),
               member.controller->rx_beam(),
               member.controller->mcs(),
               rng};
  return s;
}

ProbeResults run_probes(const std::vector<ProbeState>& states,
                        const phy::ErrorModel& error_model,
                        const array::Codebook& codebook) {
  const phy::PhySampler sampler(&error_model);
  const mac::BeamTrainer trainer;
  const mac::AckModel ack(&error_model);
  const channel::PathTracer tracer;
  Accum sweep, snr, measure, observe, fft, refresh, trace_a, ack_a;
  for (const ProbeState& st : states) {
    env::Environment environment = st.environment;
    array::PhasedArray ap(st.ap, st.ap_boresight_deg, &codebook);
    array::PhasedArray rx(st.rx, st.rx_boresight_deg, &codebook);
    channel::Link link(&environment, &ap, &rx);
    link.set_interferer(st.interferer);
    link.set_fade_db(st.fade_db);
    util::Rng rng = st.rng;

    sweep.add(time_calls([&] {
      g_sink = g_sink + trainer.exhaustive(link, sampler, rng).snr_db;
    }));
    snr.add(time_calls([&] {
      g_sink = g_sink + link.snr_clean_db(st.tx_beam, st.rx_beam);
    }));
    measure.add(time_calls([&] {
      g_sink = g_sink + sampler.measure_snr_db(link, st.tx_beam, st.rx_beam, rng);
    }));
    phy::PhyObservation obs;
    observe.add(time_calls([&] {
      obs = sampler.observe(link, st.tx_beam, st.rx_beam, st.mcs, rng);
      g_sink = g_sink + obs.cdr;
    }));
    std::vector<double> signal = obs.pdp;
    signal.resize(256, 0.0);
    fft.add(time_calls([&] {
      g_sink = g_sink + util::magnitude_spectrum(signal)[1];
    }));
    refresh.add(time_calls([&] {
      link.refresh();
      g_sink = g_sink + static_cast<double>(link.paths().size());
    }));
    trace_a.add(time_calls([&] {
      g_sink = g_sink + static_cast<double>(
                            tracer.trace(environment, st.ap, st.rx).size());
    }));
    const double snr_db = link.snr_db(st.tx_beam, st.rx_beam);
    ack_a.add(time_calls([&] {
      g_sink = g_sink + (ack.ack_received(st.mcs, snr_db, rng) ? 1.0 : 0.0);
    }));
  }
  ProbeResults r;
  r.states = states.size();
  r.sweep_us = sweep.per_call();
  r.snr_us = snr.per_call();
  r.measure_snr_us = measure.per_call();
  r.observe_us = observe.per_call();
  r.fft_us = fft.per_call();
  r.refresh_us = refresh.per_call();
  r.trace_us = trace_a.per_call();
  r.ack_us = ack_a.per_call();
  return r;
}

double probe_features_us(const trace::Dataset& dataset) {
  if (dataset.records.empty()) return 0.0;
  std::size_t next = 0;
  const auto r = time_calls([&] {
    const trace::FeatureVector f =
        trace::extract_features(dataset.records[next]);
    g_sink = g_sink + f.v[0];
    next = (next + 1) % dataset.records.size();
  });
  return r.first / r.second;
}

}  // namespace perfbench
