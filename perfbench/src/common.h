// Small shared pieces of the end-to-end benchmark: the clock, exact
// percentiles over raw samples, the benchmark-side span log, and an
// in-memory istream over wire bytes.
#ifndef GRANDMA_PERFBENCH_SRC_COMMON_H_
#define GRANDMA_PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NanosSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
}

// Raw latency samples in a buffer sized before the run; percentiles are exact
// order statistics of the sorted samples (nearest rank), never bucket edges.
class Samples {
 public:
  explicit Samples(std::size_t reserve = 0) { values_.reserve(reserve); }

  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t count() const { return values_.size(); }

  // Sorts once; call after the run.
  void Finish() { std::sort(values_.begin(), values_.end()); }

  // Nearest-rank p-quantile of the finished samples (0 when empty).
  double Percentile(double p) const {
    if (values_.empty()) {
      return 0.0;
    }
    const double rank = std::ceil(p * static_cast<double>(values_.size()));
    const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values_[std::min(index, values_.size() - 1)];
  }

  // Samples strictly above the p-quantile's rank: a percentile is reported
  // only when at least 10 samples lie beyond it.
  std::size_t Beyond(double p) const {
    const double rank = std::ceil(p * static_cast<double>(values_.size()));
    return values_.size() - std::min(values_.size(), static_cast<std::size_t>(rank));
  }

  double Mean() const {
    if (values_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (double v : values_) {
      sum += v;
    }
    return sum / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

// Latency samples split into equal windows of the paced schedule by due
// time. Each percentile is exact within a window; the benchmark reports the
// median of the window values, so one host stall inside one window does not
// decide a run's tail.
class WindowedSamples {
 public:
  WindowedSamples() = default;
  WindowedSamples(std::size_t windows, double window_ns, std::size_t reserve_each)
      : window_ns_(window_ns) {
    for (std::size_t i = 0; i < windows; ++i) {
      windows_.emplace_back(reserve_each);
    }
  }

  void Add(double due_ns, double v) {
    const double w = due_ns / window_ns_;
    const std::size_t index = w <= 0.0 ? 0 : static_cast<std::size_t>(w);
    windows_[std::min(index, windows_.size() - 1)].Add(v);
  }

  void Finish() {
    for (Samples& w : windows_) {
      w.Finish();
    }
  }

  // Each window's p-quantile, in schedule order.
  std::vector<double> PerWindow(double p) const {
    std::vector<double> values;
    for (const Samples& w : windows_) {
      values.push_back(w.Percentile(p));
    }
    return values;
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (const Samples& w : windows_) {
      n += w.count();
    }
    return n;
  }
  std::size_t windows() const { return windows_.size(); }
  // Fewest samples beyond the p-quantile in any window.
  std::size_t MinBeyond(double p) const {
    std::size_t least = windows_.empty() ? 0 : windows_[0].Beyond(p);
    for (const Samples& w : windows_) {
      least = std::min(least, w.Beyond(p));
    }
    return least;
  }

 private:
  double window_ns_ = 1.0;
  std::vector<Samples> windows_;
};

// One benchmark-side span: a timed call into one module's public function.
// Times are nanoseconds from the run's origin; parent is the index of the
// enclosing span in the same log (kNoParent at top level).
struct SpanRecord {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  const char* name = "";
  std::uint32_t parent = kNoParent;
  std::uint64_t session = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Single-writer, fixed-capacity span log. Spans past the capacity are
// counted, not stored, so recording never allocates on a measured path.
class SpanLog {
 public:
  SpanLog(std::string thread_name, std::size_t capacity) : thread_(std::move(thread_name)) {
    spans_.reserve(capacity);
  }

  void set_enabled(bool on) { enabled_ = on; }

  // Returns the span's index (or kNoParent when dropped / disabled).
  std::uint32_t Add(const char* name, std::uint64_t session, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent = SpanRecord::kNoParent) {
    if (!enabled_) {
      return SpanRecord::kNoParent;
    }
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return SpanRecord::kNoParent;
    }
    spans_.push_back({name, parent, session, start_ns, end_ns});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  const std::string& thread_name() const { return thread_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::string thread_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
};

// Read-only streambuf over bytes the caller keeps alive, so a block of
// encoded events is decoded in place instead of copied into a stringstream.
class MemoryBuf : public std::streambuf {
 public:
  MemoryBuf(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);
    setg(p, p, p + size);
  }
};

}  // namespace perfbench

#endif  // GRANDMA_PERFBENCH_SRC_COMMON_H_
