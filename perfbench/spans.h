// In-memory spans recorded by the benchmark around its calls into each
// layer's public functions. One recorder per thread; nothing is written
// until the run ends, when the spans become a per-layer ledger (calls,
// busy, self time, share of wall) and a Chrome trace-event file.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same recorder, -1 = root
  std::uint32_t tid = 0;
  double dur_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint32_t tid = 0) : tid_(tid) {}

  // Open a span under the innermost open one; close with end().
  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name)
        : rec_(rec), id_(rec != nullptr ? rec->begin(name) : -1) {}
    ~Scope() {
      if (rec_ != nullptr) rec_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::int32_t id_;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;
};

// One ledger row: every span sharing a name.
struct LedgerRow {
  std::string name;
  std::string layer;  // the name up to its first '.'
  std::int64_t calls = 0;
  double busy_us = 0.0;  // sum of durations
  double self_us = 0.0;  // busy minus the time direct children cover
  double us_per_call() const { return calls ? busy_us / calls : 0.0; }
};

// Names of the spans that only frame a unit of benchmark work (one link,
// one client loop); their self time is benchmark overhead, not a layer.
inline bool is_root_span(const std::string& name) {
  return name.rfind("bench.", 0) == 0;
}

struct Ledger {
  std::vector<LedgerRow> rows;  // sorted by self time, largest first
  double root_us = 0.0;         // summed duration of the root spans
  double layer_self_us = 0.0;   // summed self time of every non-root span

  const LedgerRow* find(const std::string& name) const;
  double busy_us(const std::string& name) const;
  double self_us(const std::string& name) const;
  std::int64_t calls(const std::string& name) const;
  // Share of the root spans' time covered by layer self time.
  double coverage() const { return root_us > 0 ? layer_self_us / root_us : 0.0; }
};

Ledger build_ledger(std::span<const SpanRecorder> recorders);

// Per-layer table as JSON (layer, name, calls, busy/self us, us/call,
// share of wall) plus the Chrome trace of every span. Returns false when a
// file cannot be written.
bool write_ledger_json(const Ledger& ledger, const std::string& path,
                       const std::string& workload, std::uint64_t seed);
bool write_chrome_trace(std::span<const SpanRecorder> recorders,
                        const std::string& path);

// A traced run's output: writes both files under args.out_dir and adds the
// ledger's rows to the report's readable lines.
void report_ledger(const Ledger& ledger,
                   std::span<const SpanRecorder> recorders, const Args& args,
                   Report& report);

}  // namespace perfbench
