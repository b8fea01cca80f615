// Client side of the decision wire protocol: a blocking request/reply
// socket client (DecisionClient) plus the core::DecisionBackend adapter
// (RemoteBackend) that plugs it into LibraClassifier / the fleet engine.
//
// Failure contract: every transport problem -- connect refused, send/recv
// error, per-request deadline expiry, malformed or mismatched reply --
// surfaces as core::BackendOutageError from RemoteBackend::vote_batch().
// The controller catches that and falls back to the rung-2 RA-first rule
// (the same rung as faults::kClassifierOutage), so a dead or flaky daemon
// degrades the fleet instead of crashing it.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/decision_backend.h"
#include "ml/data.h"
#include "rpc/wire.h"

namespace libra::rpc {

struct ClientConfig {
  // Non-empty: connect to this Unix-domain socket path. Empty: TCP.
  std::string unix_socket;
  std::string host = "127.0.0.1";
  int port = 0;
  // Per-request deadline (SO_RCVTIMEO/SO_SNDTIMEO). A reply slower than
  // this is an outage, matching the faults::kRpcDelay semantics.
  double deadline_ms = 250.0;
};

// "unix:PATH", a bare path containing '/', or "HOST:PORT" -> ClientConfig
// transport fields. Throws std::invalid_argument on an unparseable
// address (used by `--backend remote:ADDR`).
ClientConfig parse_remote_addr(const std::string& addr);

// One connection to a DecisionServer. Round trips are serialized under an
// internal mutex (the wire protocol is strict request/reply). Methods
// return nullopt / false on transport failure after one retry on a fresh
// connection; they do not throw for transport errors (RemoteBackend turns
// those into BackendOutageError).
class DecisionClient {
 public:
  explicit DecisionClient(ClientConfig cfg);
  ~DecisionClient();

  DecisionClient(const DecisionClient&) = delete;
  DecisionClient& operator=(const DecisionClient&) = delete;

  // Establish (or re-establish) the connection. False when the server is
  // unreachable. Safe to call repeatedly.
  bool connect();
  void close();
  bool connected() const;

  // Hello round trip: the server's serving shape, nullopt on failure.
  std::optional<HelloMsg> hello();
  // Liveness probe (Ping -> Pong).
  bool ping();

  // One classify round trip. Returns the per-row vote fractions, or
  // nullopt on transport failure, deadline expiry, an Ack{ok=false}
  // reply, or a reply whose shape does not match the request.
  std::optional<std::vector<std::vector<double>>> classify(
      const ml::DataSet& rows);

  // Solicit the server's cumulative metrics snapshot (StatsPush ->
  // StatsAck). Returns the daemon's labeled snapshot, or nullopt on
  // transport failure or a mismatched reply.
  std::optional<StatsMsg> pull_stats();

  // Serialize `forest` (ml/model_io.h text format) and push it. Returns
  // the server's Ack, or nullopt on transport failure.
  std::optional<AckMsg> push_model(const ml::RandomForest& forest);
  // Raw-text variant, for tests that tamper with the serialization.
  std::optional<AckMsg> push_model_text(const std::string& model_text);

  const ClientConfig& config() const { return cfg_; }
  // Human-readable peer address ("unix:PATH" or "HOST:PORT").
  std::string address() const;

 private:
  // One request/reply exchange on the current connection; nullopt on any
  // transport or decode failure (connection is closed on failure so the
  // next call starts clean).
  std::optional<Frame> round_trip_locked(MsgType type,
                                         std::span<const std::uint8_t> payload);
  // round_trip_locked plus the retry-once-on-fresh-connection policy.
  std::optional<Frame> request_locked(MsgType type,
                                      std::span<const std::uint8_t> payload);
  bool connect_locked();
  void close_locked();

  ClientConfig cfg_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::uint8_t> recv_buf_;
};

// core::DecisionBackend over a DecisionClient: the "remote:" side of
// --backend. vote_batch() throws core::BackendOutageError on any failure;
// available() probes the connection (with reconnect) so the controller's
// plan-time transport check can pre-declare the outage before any verdict
// is needed.
class RemoteBackend final : public core::DecisionBackend {
 public:
  explicit RemoteBackend(ClientConfig cfg);

  std::string_view name() const override { return "remote"; }
  bool local() const override { return false; }
  bool available() override;
  double deadline_ms() const override { return client_.config().deadline_ms; }
  // The daemon's cumulative registry snapshot under its origin label (the
  // obs::Aggregator polls this each roll-up); nullopt during an outage.
  std::optional<core::PeerStats> peer_stats() override;
  std::vector<std::vector<double>> vote_batch(const ml::DataSet& rows) override;

  DecisionClient& client() { return client_; }

 private:
  DecisionClient client_;
};

}  // namespace libra::rpc
