// The benchmark's workloads and the seeded input they replay. Everything the
// server sees is generated here from the workload seed and encoded as
// `grandma-events v1` bytes; the passes decode those bytes and nothing else.
//
// Input is a pool of blocks. Each block is a complete wire stream holding a
// batch of sessions whose events are interleaved round-robin (touch groups,
// which a device reports whole, follow one another), and every session in it
// ends with kSessionEnd. A pass replays the pool cyclically;
// cycle c adds c * pool_sessions to every session id, so each replayed stroke
// has its own (session, stroke) key while the bytes stay the same.
#ifndef GRANDMA_PERFBENCH_SRC_WORKLOAD_H_
#define GRANDMA_PERFBENCH_SRC_WORKLOAD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "classify/linear_classifier.h"
#include "classify/training_set.h"
#include "geom/contact.h"
#include "geom/gesture.h"
#include "serve/event.h"
#include "serve/recognizer_bundle.h"
#include "toolkit/touch_attributes.h"

namespace perfbench {

using namespace grandma;

struct WorkloadConfig {
  std::string name;
  // 200-class synth::MakeExtensiveLexicon instead of the paper's 11 GDP
  // classes.
  bool lexicon = false;
  // Fault-free synth::GenerateContactSet groups through serve::TouchFrontEnd.
  bool touch = false;
  std::size_t train_per_class = 10;
  std::size_t pool_per_class = 20;    // distinct replayed gestures per class
  std::size_t points_per_event = 2;   // points per kPoints event
  std::size_t nbest_depth = 0;
  std::size_t min_strokes = 12;       // strokes per session
  std::size_t max_strokes = 12;
  std::size_t sessions_per_block = 32;  // interleaved sessions
  std::size_t blocks = 16;
  // Personalization: sessions belong to `users` users pre-adapted during
  // set-up; an adapter thread adapts `adapter_users` other users at
  // `adapt_rate_hz` while the passes run.
  std::size_t users = 0;
  std::size_t adapter_users = 0;
  double adapt_rate_hz = 0.0;
  // Open-loop paced-pass rate in points/s, fixed once from the measured
  // capacity of the commit that introduced the benchmark; never rescaled.
  double paced_rate_pts_per_s = 0.0;
  // Upper bound on capacity-pass throughput, used only to size result buffers
  // (a pass that reaches it ends early).
  double max_rate_pts_per_s = 0.0;
  std::size_t setup_reps = 5;
};

// All workload names, in BENCHMARK.json order.
const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

// Deadline budget on every event except kSessionEnd, as in overload_soak.
inline constexpr std::uint32_t kDeadlineUs = 50'000;
// The end-to-end latency limit: 1/16 of a 60 Hz frame.
inline constexpr double kLatencyLimitUs = 1000.0;
// Touch-area reported for decoded contacts: grandma-events v1 carries no
// area, so every contact gets the synthesizer's nominal fingertip area.
inline constexpr double kNominalContactArea = 55.0;
inline constexpr std::size_t kMaxNBest = classify::kMaxNBest;

// One answer for a stroke — the reference's or a delivered result's. Compact
// so the per-stroke result slots of a long pass stay small. For a
// multi-contact touch group, class_id holds the TouchGestureKind and
// points_seen the number of attribute frames.
struct StrokeAnswer {
  std::uint32_t points_seen = 0;
  std::uint16_t class_id = 0;
  std::array<std::uint16_t, kMaxNBest> nbest{};
  std::uint8_t nbest_count = 0;
  std::uint8_t action = 0;  // classify::NBestAction

  friend bool operator==(const StrokeAnswer&, const StrokeAnswer&) = default;
};

struct StrokeReference {
  bool fired = false;
  std::uint32_t fired_at = 0;
  StrokeAnswer fire;  // valid when fired
  StrokeAnswer end;
};

// One stroke of the pool cycle: where it sits in the byte stream, when it is
// due, and what the reference says it must produce.
struct PoolStroke {
  bool used = false;
  std::uint64_t wire_session = 0;
  serve::StrokeId stroke = 0;
  serve::UserId user = 0;
  std::uint32_t gesture = 0;  // index into Load::gestures (stroke workloads)
  std::uint32_t points = 0;
  // Cycle-relative cumulative point count through each of this stroke's
  // kPoints events, and through its kStrokeEnd event: an event is due when
  // the schedule has produced every point up to and including it.
  std::vector<std::uint64_t> points_event_cum;
  std::uint64_t end_cum = 0;
  // Touch workload: the group (one per session) did not resolve to a single
  // stroke, so its answer is the touch kind, not a classification.
  bool touch_multi = false;
  StrokeReference ref;

  // Due point count of the kPoints event holding the reference fire point.
  std::uint64_t FireCum(std::size_t points_per_event) const;
};

struct Block {
  std::string bytes;  // one complete grandma-events v1 stream
  std::size_t events = 0;
  std::size_t points = 0;
};

struct Load {
  const WorkloadConfig* config = nullptr;
  std::uint64_t seed = 0;
  classify::GestureTrainingSet training;
  std::vector<geom::Gesture> gestures;           // replayed stroke shapes
  std::vector<geom::Gesture> adapt_examples;     // set-up and adapter examples
  std::vector<classify::ClassId> adapt_classes;  // parallel to adapt_examples
  std::vector<geom::ContactGroup> groups;       // touch groups, as decoded
  std::vector<Block> blocks;
  std::vector<PoolStroke> strokes;  // index: wire_session * max_strokes + stroke - 1
  std::size_t pool_sessions = 0;
  std::size_t cycle_points = 0;
  std::size_t cycle_events = 0;
  std::size_t cycle_bytes = 0;
  std::size_t used_strokes = 0;

  std::size_t max_strokes() const { return config->max_strokes; }
  std::size_t StrokeIndex(std::uint64_t wire_session, serve::StrokeId stroke) const {
    return static_cast<std::size_t>(wire_session) * config->max_strokes + stroke - 1;
  }
  // Derived user of a wire session (grandma-events v1 has no user field).
  serve::UserId UserOf(std::uint64_t wire_session) const;
};

// The user the adapter thread adapts on its i-th call; disjoint from every
// user a replayed session belongs to.
serve::UserId AdapterUser(std::size_t i, std::size_t adapter_users);

// Synthesizes the training set, the replayed gestures and the wire blocks.
// Deterministic in `seed`; the references are filled later by ComputeReferences.
Load MakeLoad(const WorkloadConfig& config, std::uint64_t seed);

// Rebuilds the contact group a touch session's decoded events describe.
geom::ContactGroup ContactGroupFromEvents(const std::vector<serve::ServeEvent>& events);

}  // namespace perfbench

#endif  // GRANDMA_PERFBENCH_SRC_WORKLOAD_H_
