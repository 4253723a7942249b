// The correctness side of the benchmark: the single-threaded eager::EagerStream
// reference every served answer is compared with, the per-stroke slot the
// result sink fills, and the checker that turns a slot into failed operations.
#ifndef GRANDMA_PERFBENCH_SRC_CHECK_H_
#define GRANDMA_PERFBENCH_SRC_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "classify/rejection.h"
#include "eager/eager_recognizer.h"
#include "geom/point.h"
#include "serve/event.h"
#include "serve/model_registry.h"
#include "serve/recognizer_bundle.h"
#include "workload.h"

namespace perfbench {

// Replays `points` one at a time through a fresh EagerStream (the paper's
// per-point loop, not the server's batched AddSpan) and records the fire and
// the mouse-up answers, with the same n-best depth and policy the server
// sessions use.
StrokeReference ReferenceFor(const eager::EagerRecognizer& recognizer,
                             std::span<const geom::TimedPoint> points, std::size_t nbest_depth,
                             const classify::RejectionPolicy& policy);

// Fills PoolStroke::ref for every stroke of the load. Stroke workloads use the
// bundle CurrentFor(user) returns (the user's adapted model under
// personalization); touch groups run robust::ContactTracker and
// toolkit::ComputeTouchTrack first, then the classifier reference on the
// primary contact of single-stroke groups.
void ComputeReferences(Load& load, serve::ModelRegistry& registry,
                       const classify::RejectionPolicy& policy);

// Converts a served result into the compact answer form.
StrokeAnswer AnswerOf(const serve::RecognitionResult& result);

// What was delivered for one replayed stroke. The result fields are written
// only by the stroke's shard worker (the sink and the drop callback), the
// refusal counters only by the producer; both are read after Shutdown.
struct StrokeSlot {
  std::int64_t fire_ns = 0;  // receive time, ns from the pass origin
  std::int64_t end_ns = 0;
  StrokeAnswer fire;
  StrokeAnswer end;
  std::uint32_t end_fired_at = 0;
  bool end_eager_fired = false;
  std::uint8_t fire_results = 0;
  std::uint8_t end_results = 0;
  std::uint8_t dropped = 0;      // events expired in queue (worker side)
  std::uint8_t dropped_end = 0;  // ... of which the kStrokeEnd
  std::uint8_t refused = 0;      // Submit refusals (producer side)
  std::uint8_t refused_end = 0;  // ... of which the kStrokeEnd
};

struct StrokeCheck {
  bool fire_ok = true;
  bool end_ok = true;
  std::uint64_t expected_results = 0;
  // Operations of this stroke that failed: each refused or expired event,
  // plus the fire and the end event when their result is missing or differs
  // from the reference (an expired kStrokeEnd with no result counts once).
  std::uint64_t failed_ops = 0;
  // Some event of the stroke was refused or expired, so its answers may
  // legitimately differ from the reference (they still count as failed).
  bool tainted = false;
  // An untainted stroke whose answers are missing, extra, or differ from the
  // reference: the program is wrong, not merely overloaded.
  bool diverged = false;
};

StrokeCheck CheckStroke(const PoolStroke& want, const StrokeSlot& got);

}  // namespace perfbench

#endif  // GRANDMA_PERFBENCH_SRC_CHECK_H_
