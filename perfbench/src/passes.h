// The two live passes through serve::RecognitionServer: the capacity pass
// (kBlock, submit as fast as backpressure allows) and the open-loop paced
// pass (kAdaptive, events due on a fixed points/s schedule, latency measured
// from the due time). One producer thread decodes the wire blocks and
// submits; an optional adapter thread calls ModelRegistry::AdaptUser on its
// own schedule.
#ifndef GRANDMA_PERFBENCH_SRC_PASSES_H_
#define GRANDMA_PERFBENCH_SRC_PASSES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "check.h"
#include "common.h"
#include "obs/export.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/touch_frontend.h"
#include "workload.h"

namespace perfbench {

// Where served answers land. The server's sink and drop callback point here
// for the whole run; each pass resets it before its first Submit.
class Collector {
 public:
  // `span_capacity` sizes each shard's sink span log (0 in untraced runs).
  Collector(const Load& load, std::size_t max_slots, std::size_t span_capacity);

  // Clears the slots, then stamps and returns the pass origin; call before
  // the pass's first Submit (the server's workers touch the collector only
  // for its events).
  Clock::time_point BeginPass(const serve::RecognitionServer* server, bool traced);

  void OnResult(const serve::RecognitionResult& result);
  void OnDrop(const serve::ServeEvent& event);

  // Slot of replayed stroke `stroke` of serve session `session`, or null when
  // the pair lies outside the buffer.
  StrokeSlot* SlotFor(std::uint64_t session, serve::StrokeId stroke);
  std::size_t max_slots() const { return slots_.size(); }
  // Results and drops of the current pass that matched no slot.
  std::uint64_t unexpected() const { return unexpected_.load(std::memory_order_relaxed); }
  const std::vector<SpanLog>& sink_logs() const { return sink_logs_; }
  // Mean time of every traced result callback of the run (the sink logs keep
  // only the first spans).
  double SinkNsMean() const;

 private:
  const Load& load_;
  const serve::RecognitionServer* server_ = nullptr;
  Clock::time_point origin_{};
  std::vector<StrokeSlot> slots_;
  std::vector<SpanLog> sink_logs_;  // one per shard: single writer each
  struct alignas(64) SinkTotal {
    double ns = 0.0;
    std::uint64_t calls = 0;
  };
  std::vector<SinkTotal> sink_totals_;  // one per shard, like sink_logs_
  bool traced_ = false;
  std::atomic<std::uint64_t> unexpected_{0};
};

// Result slots for a capacity pass of `capacity_seconds` (at the workload's
// max_rate_pts_per_s) and a paced pass of `paced_seconds`.
std::size_t SlotsFor(const Load& load, double capacity_seconds, double paced_seconds);

// Set-up: trains the bundle, builds the registry and, for personalized
// workloads, enables the user cache and pre-adapts every measured user.
// Records serve.bundle_train and personalize.adapt_user spans in `log`.
// Throws when a pre-adaptation fails.
std::shared_ptr<serve::ModelRegistry> BuildRegistry(const Load& load, SpanLog& log,
                                                    Clock::time_point origin);

// Sink and drop callback that forward to `collector`.
serve::ResultSink SinkFor(Collector& collector);
serve::DropSink DropFor(Collector& collector);

serve::ServerOptions ServerOptionsFor(const WorkloadConfig& config, Collector& collector,
                                      bool paced);

// The paced schedule a pass's latencies are measured against.
struct PacedSchedule {
  double rate = 0.0;  // points/s
  std::size_t windows = 0;
  double window_ns = 0.0;
};

// Every replayed stroke of a pass checked against its reference.
struct PassCheck {
  std::uint64_t strokes = 0;
  std::uint64_t expected_results = 0;
  std::uint64_t failed_ops = 0;          // see StrokeCheck::failed_ops
  std::uint64_t divergent_strokes = 0;   // untainted strokes answered wrongly
  std::uint64_t tainted_strokes = 0;
  std::uint64_t slo_met = 0;             // paced: correct and within the limit
  std::int64_t last_ns = 0;              // latest answer, ns from the pass origin
  WindowedSamples fire_us;               // paced only, windowed by due time
  WindowedSamples end_us;
};

// Checks the first `blocks` replayed blocks' slots; `paced` also times each
// answer from its due time.
PassCheck CheckAnswers(const Load& load, Collector& collector, std::size_t blocks,
                       const std::optional<PacedSchedule>& paced);

struct PassResult {
  std::size_t blocks = 0;          // blocks submitted
  std::uint64_t events = 0;        // events submitted
  std::uint64_t points = 0;        // points submitted
  std::uint64_t groups = 0;        // touch groups submitted
  double wall_s = 0.0;             // first Submit to last result
  double pts_per_s = 0.0;
  std::uint64_t attempted = 0;
  // Failures outside the stroke check: refused session ends and touch
  // groups, unexpected results, failed adapts.
  std::uint64_t other_failed = 0;
  std::uint64_t adapts = 0;
  std::uint64_t adapts_failed = 0;
  PassCheck check;
  WindowedSamples gen_lag_us;  // how late the producer ran, by due time
  Samples adapt_us;
  serve::ShardMetrics totals;
  serve::ModelLifecycleMetrics models;  // registry counters over the pass
  serve::TouchFrontEndStats touch;
  std::vector<obs::StageSummary> stages;
  // Benchmark-side spans of the producer and adapter threads (traced runs).
  std::vector<SpanLog> logs;

  std::uint64_t failed() const { return check.failed_ops + other_failed; }
};

// A paced segment is split into windows of about this length (at least one)
// for latency and producer-lag percentiles.
inline constexpr double kWindowSeconds = 0.6;

struct PassOptions {
  bool paced = false;
  bool traced = false;
  double seconds = 1.0;  // capacity: time budget; paced: schedule length
};

// Runs one pass on `server` (built with ServerOptionsFor(..., options.paced)
// and sharing `registry`), shuts the server down, and checks every answer.
PassResult RunPass(const Load& load, serve::RecognitionServer& server,
                   serve::ModelRegistry& registry, Collector& collector,
                   const PassOptions& options);

// Number of blocks the paced pass submits for a schedule of `seconds`.
std::size_t PacedBlocks(const Load& load, double seconds);

}  // namespace perfbench

#endif  // GRANDMA_PERFBENCH_SRC_PASSES_H_
