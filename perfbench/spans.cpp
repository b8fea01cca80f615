#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int32_t SpanRecorder::begin(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.tid = tid_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(rec);
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void SpanRecorder::end(std::int32_t id) {
  const std::int64_t t = now_ns();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

const LedgerRow* Ledger::find(const std::string& name) const {
  for (const LedgerRow& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}
double Ledger::busy_us(const std::string& name) const {
  const LedgerRow* r = find(name);
  return r ? r->busy_us : 0.0;
}
double Ledger::self_us(const std::string& name) const {
  const LedgerRow* r = find(name);
  return r ? r->self_us : 0.0;
}
std::int64_t Ledger::calls(const std::string& name) const {
  const LedgerRow* r = find(name);
  return r ? r->calls : 0;
}

Ledger build_ledger(std::span<const SpanRecorder> recorders) {
  std::map<std::string, LedgerRow> by_name;
  Ledger ledger;
  for (const SpanRecorder& rec : recorders) {
    const std::vector<SpanRecord>& spans = rec.spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.dur_us();
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      LedgerRow& row = by_name[s.name];
      row.name = s.name;
      row.layer = row.name.substr(0, row.name.find('.'));
      ++row.calls;
      row.busy_us += s.dur_us();
      const double self = s.dur_us() - child_us[i];
      row.self_us += self;
      if (is_root_span(row.name)) {
        ledger.root_us += s.dur_us();
      } else {
        ledger.layer_self_us += self;
      }
    }
  }
  for (auto& [name, row] : by_name) ledger.rows.push_back(row);
  std::sort(ledger.rows.begin(), ledger.rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) {
              return a.self_us > b.self_us;
            });
  return ledger;
}

bool write_ledger_json(const Ledger& ledger, const std::string& path,
                       const std::string& workload, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"wall_us\": %.3f, "
               "\"coverage\": %.6f, \"layers\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               ledger.root_us, ledger.coverage());
  for (std::size_t i = 0; i < ledger.rows.size(); ++i) {
    const LedgerRow& r = ledger.rows[i];
    const double share = ledger.root_us > 0 ? r.self_us / ledger.root_us : 0;
    std::fprintf(f,
                 "  {\"layer\": \"%s\", \"name\": \"%s\", \"calls\": %lld, "
                 "\"busy_us\": %.3f, \"self_us\": %.3f, \"us_per_call\": "
                 "%.4f, \"self_share_of_wall\": %.6f}%s\n",
                 r.layer.c_str(), r.name.c_str(),
                 static_cast<long long>(r.calls), r.busy_us, r.self_us,
                 r.us_per_call(), share,
                 i + 1 < ledger.rows.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool write_chrome_trace(std::span<const SpanRecorder> recorders,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t epoch = INT64_MAX;
  for (const SpanRecorder& rec : recorders) {
    for (const SpanRecord& s : rec.spans()) epoch = std::min(epoch, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const SpanRecorder& rec : recorders) {
    for (const SpanRecord& s : rec.spans()) {
      const std::string name = s.name;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u}",
                   first ? "" : ",\n", name.c_str(),
                   name.substr(0, name.find('.')).c_str(),
                   static_cast<double>(s.start_ns - epoch) / 1e3, s.dur_us(),
                   s.tid);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void report_ledger(const Ledger& ledger,
                   std::span<const SpanRecorder> recorders, const Args& args,
                   Report& report) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  const bool ok = write_ledger_json(ledger, stem + "-ledger.json",
                                    args.workload, args.seed) &&
                  write_chrome_trace(recorders, stem + "-trace.json");
  report.note(ok ? "per-layer table: " + stem + "-ledger.json; chrome trace: " +
                       stem + "-trace.json"
                 : "could not write the trace files under " + args.out_dir);
  for (const LedgerRow& r : ledger.rows) {
    report.note(fmt("span %-22s calls %8lld busy %12.1f us self %12.1f us "
                    "%10.3f us/call self share %.4f",
                    r.name.c_str(), static_cast<long long>(r.calls),
                    r.busy_us, r.self_us, r.us_per_call(),
                    ledger.root_us > 0 ? r.self_us / ledger.root_us : 0.0));
  }
}

}  // namespace perfbench
