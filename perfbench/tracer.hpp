// In-memory span recorder for the benchmark's traced run. Spans are opened
// around the calls the benchmark makes into each layer of the simulator,
// kept in memory, and written out as Chrome-trace JSON when the run ends.
// A layer's self time is its span's duration minus the time its direct
// child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* layer;   // span name, e.g. "cluster.run"
    std::string detail;  // free text, e.g. the scenario name
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into records(), -1 for a root span
  };

  /// RAII span nested under the innermost open span. A null tracer makes it
  /// a no-op, so one code path serves traced and untraced callers.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, std::string detail = {})
        : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(layer, std::move(detail));
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Re-label the span, for layers known only once the call returned.
    void rename(const char* layer) {
      if (tracer_ != nullptr) tracer_->records_[index_].layer = layer;
    }

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Self time in seconds per layer name, over records [from, records().size()).
  [[nodiscard]] std::map<std::string, double> self_seconds(std::size_t from) const {
    std::vector<std::int64_t> self(records_.size() - from);
    for (std::size_t i = from; i < records_.size(); ++i) {
      const Record& r = records_[i];
      self[i - from] += r.end_ns - r.start_ns;
      if (r.parent >= static_cast<int>(from)) {
        self[static_cast<std::size_t>(r.parent) - from] -= r.end_ns - r.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < records_.size(); ++i) {
      out[records_[i].layer] += static_cast<double>(self[i - from]) * 1e-9;
    }
    return out;
  }

  /// Chrome trace-event document (complete "X" events, microseconds).
  [[nodiscard]] tcdm::Json chrome_trace() const {
    tcdm::Json::Array events;
    events.reserve(records_.size());
    const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      tcdm::Json e;
      e.set("name", r.layer);
      e.set("cat", std::string(r.layer).substr(0, std::string(r.layer).find('.')));
      e.set("ph", "X");
      e.set("ts", static_cast<double>(r.start_ns - origin) * 1e-3);
      e.set("dur", static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
      e.set("pid", 1);
      e.set("tid", 1);
      tcdm::Json args;
      args.set("id", static_cast<unsigned long long>(i));
      if (r.parent >= 0) args.set("parent", r.parent);
      if (!r.detail.empty()) args.set("detail", r.detail);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    tcdm::Json doc;
    doc.set("traceEvents", tcdm::Json(std::move(events)));
    doc.set("displayTimeUnit", "ms");
    return doc;
  }

 private:
  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::size_t open(const char* layer, std::string detail) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    records_.push_back(Record{layer, std::move(detail), 0, 0, parent});
    open_.push_back(records_.size() - 1);
    records_.back().start_ns = now_ns();
    return records_.size() - 1;
  }

  void close(std::size_t index) {
    records_[index].end_ns = now_ns();
    open_.pop_back();
  }

  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
