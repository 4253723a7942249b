// The traced run's layer split. One cycle of the same wire blocks is replayed
// on one thread through the public calls a shard worker makes, each wrapped
// in a benchmark-side span, so every layer's self time is measured without
// queueing or cross-thread effects:
//
//   io.next_frame / serve.to_event      decode (io, serve)
//   sessions.get_or_create / .erase     serve::SessionManager
//   registry.current_for                serve::ModelRegistry (personalize)
//   eager.begin_stroke                  EagerStream::Rebind / Reset at stroke start
//   eager.add_span                      eager::EagerStream::AddSpan (features +
//                                       AUC fire check + fire classify)
//   classify.plain / classify.nbest     EagerStream::ClassifyNow / ClassifyNowNBest
//   robust.track / toolkit.touch_track  touch groups only (bench.assemble
//                                       rebuilds each group from its events)
//
// A separate features-only pass (features::FeatureExtractor::AddPoint +
// FeaturesInto) gives the feature share of AddSpan.
#ifndef GRANDMA_PERFBENCH_SRC_REPLAY_H_
#define GRANDMA_PERFBENCH_SRC_REPLAY_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "workload.h"

namespace perfbench {

enum Layer : std::size_t {
  kNextFrame,
  kToEvent,
  kAssemble,  // touch: rebuilding the contact group (benchmark-side work)
  kGetOrCreate,
  kErase,
  kCurrentFor,
  kBeginStroke,
  kAddSpan,
  kClassify,
  kClassifyNBest,
  kTrack,
  kTouchTrack,
  kNumLayers,
};

// Span names, indexed by Layer.
extern const std::array<const char*, kNumLayers> kLayerNames;

struct LayerTotal {
  double ns = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t units = 0;  // points for per-point layers, else calls

  double NsPerCall() const { return calls > 0 ? ns / static_cast<double>(calls) : 0.0; }
  double NsPerUnit() const { return units > 0 ? ns / static_cast<double>(units) : 0.0; }
};

struct ReplayResult {
  std::array<LayerTotal, kNumLayers> layers{};
  double wall_ns = 0.0;                      // the replay loop, end to end
  double covered_ns = 0.0;                   // sum of its top-level spans
  double features_ns_per_point = 0.0;        // features-only pass
  std::uint64_t fires = 0;
  double fire_point_share = 0.0;  // mean fired_at / stroke length over fired strokes
  std::uint64_t nbest_deferred = 0;
  std::uint64_t divergent_strokes = 0;  // replay answers that differ from the reference
  SpanLog log{"replay", 0};

  double UnattributedShare() const {
    return wall_ns > 0.0 ? 1.0 - covered_ns / wall_ns : 0.0;
  }
};

// Replays one pool cycle. `registry` must be the run's registry (personalized
// users resolve to their adapted models exactly as in the live passes).
// Cycles are repeated (answers and counts from the first only) until the
// replay has run for `min_seconds`.
ReplayResult RunReplay(const Load& load, serve::ModelRegistry& registry, Clock::time_point origin,
                       double min_seconds);

}  // namespace perfbench

#endif  // GRANDMA_PERFBENCH_SRC_REPLAY_H_
