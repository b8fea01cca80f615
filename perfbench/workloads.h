// The benchmark's workloads. Each fills a Report: the end-to-end metrics
// (always measured untraced), the per-layer metrics, the traffic
// properties and the output checks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "rpc/wire.h"

namespace perfbench {

// fleet-steady: a seeded, impaired fleet stepped in steady state.
void run_fleet_steady(const Args& args, Report& report);
// fleet-associate: one-frame sessions on the paper's 25-beam codebook.
void run_fleet_associate(const Args& args, Report& report);
// daemon-serve: closed-loop clients against a loopback decision daemon.
void run_daemon_serve(const Args& args, Report& report);

// Feeds corrupted results to every output check and confirms each one
// fails. Returns the number of checks that did NOT catch their corruption.
int run_selftest();

// Reads of a registry delta (obs::MetricsSnapshot::delta_since); a metric
// the program never registered reads 0.
std::uint64_t counter_of(const obs::MetricsSnapshot& s, std::string_view name);
double hist_sum(const obs::MetricsSnapshot& s, std::string_view name);
// Exact mean of a histogram's observations (its sum over its count); the
// log2 buckets only give coarse quantiles.
double hist_mean(const obs::MetricsSnapshot& s, std::string_view name);

// The daemon-serve reply check: `got` equals `want` row for row, bit for
// bit.
bool votes_match(const std::vector<std::vector<double>>& got,
                 const std::vector<std::vector<double>>& want);
// The push check: the daemon answered and accepted the model.
bool push_acked(const std::optional<rpc::AckMsg>& ack);

}  // namespace perfbench
