#include "check.h"

#include <array>
#include <stdexcept>

#include "robust/contact_tracker.h"
#include "toolkit/touch_attributes.h"

namespace perfbench {

namespace {

StrokeAnswer AnswerNow(const eager::EagerRecognizer& recognizer, const eager::EagerStream& stream,
                       const classify::RejectionPolicy& policy) {
  StrokeAnswer a;
  a.points_seen = static_cast<std::uint32_t>(stream.points_seen());
  if (stream.nbest_depth() == 0) {
    a.class_id = static_cast<std::uint16_t>(stream.ClassifyNow().class_id);
    return a;
  }
  std::array<classify::NBestEntry, classify::kMaxNBest> entries{};
  classify::Classification top;
  const std::size_t n = stream.ClassifyNowNBest(
      std::span<classify::NBestEntry>(entries.data(), stream.nbest_depth()), &top);
  a.class_id = static_cast<std::uint16_t>(top.class_id);
  a.nbest_count = static_cast<std::uint8_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.nbest[i] = static_cast<std::uint16_t>(entries[i].class_id);
  }
  const classify::NBestDecision decision =
      classify::DecideNBest(policy, std::span<const classify::NBestEntry>(entries.data(), n),
                            top.mahalanobis_squared, recognizer.full().mask().count());
  a.action = static_cast<std::uint8_t>(decision.action);
  return a;
}

}  // namespace

StrokeReference ReferenceFor(const eager::EagerRecognizer& recognizer,
                             std::span<const geom::TimedPoint> points, std::size_t nbest_depth,
                             const classify::RejectionPolicy& policy) {
  StrokeReference ref;
  eager::EagerStream stream(recognizer);
  stream.SetNBest(nbest_depth);
  for (const geom::TimedPoint& p : points) {
    if (stream.AddPoint(p)) {
      ref.fired = true;
      ref.fired_at = static_cast<std::uint32_t>(stream.fired_at());
      ref.fire = AnswerNow(recognizer, stream, policy);
    }
  }
  ref.end = AnswerNow(recognizer, stream, policy);
  return ref;
}

void ComputeReferences(Load& load, serve::ModelRegistry& registry,
                       const classify::RejectionPolicy& policy) {
  const WorkloadConfig& config = *load.config;
  if (config.touch) {
    const robust::ContactTracker tracker;
    const auto bundle = registry.Current();
    // One reference per distinct group; strokes point into the group pool.
    std::vector<StrokeReference> refs(load.groups.size());
    std::vector<bool> multi(load.groups.size());
    for (std::size_t g = 0; g < load.groups.size(); ++g) {
      auto tracked = tracker.Track(load.groups[g]);
      if (!tracked.ok()) {
        throw std::runtime_error("perfbench: a fault-free touch group was rejected");
      }
      const toolkit::TouchTrack track = toolkit::ComputeTouchTrack(tracked->group);
      multi[g] = track.kind != toolkit::TouchGestureKind::kSingleStroke;
      if (multi[g]) {
        refs[g].end.class_id = static_cast<std::uint16_t>(track.kind);
        refs[g].end.points_seen = static_cast<std::uint32_t>(track.frames.size());
      } else {
        refs[g] = ReferenceFor(bundle->recognizer(),
                               tracked->group[track.primary_index].stroke.span(),
                               config.nbest_depth, policy);
      }
    }
    for (PoolStroke& s : load.strokes) {
      if (s.used) {
        s.touch_multi = multi[s.gesture];
        s.ref = refs[s.gesture];
      }
    }
    return;
  }
  // Per (user, gesture): the user's pinned model decides the answer.
  std::vector<std::shared_ptr<const serve::RecognizerBundle>> bundles(config.users + 1);
  for (std::size_t u = 0; u <= config.users; ++u) {
    bundles[u] = registry.CurrentFor(u);
  }
  std::vector<std::vector<std::pair<std::uint32_t, StrokeReference>>> memo(config.users + 1);
  for (PoolStroke& s : load.strokes) {
    if (!s.used) {
      continue;
    }
    auto& seen = memo[s.user];
    bool found = false;
    for (const auto& [g, ref] : seen) {
      if (g == s.gesture) {
        s.ref = ref;
        found = true;
        break;
      }
    }
    if (!found) {
      s.ref = ReferenceFor(bundles[s.user]->recognizer(), load.gestures[s.gesture].span(),
                           config.nbest_depth, policy);
      seen.emplace_back(s.gesture, s.ref);
    }
  }
}

StrokeAnswer AnswerOf(const serve::RecognitionResult& result) {
  StrokeAnswer a;
  a.points_seen = static_cast<std::uint32_t>(result.points_seen);
  a.class_id = static_cast<std::uint16_t>(result.classification.class_id);
  a.nbest_count = static_cast<std::uint8_t>(result.nbest_count);
  for (std::size_t i = 0; i < result.nbest_count && i < kMaxNBest; ++i) {
    a.nbest[i] = static_cast<std::uint16_t>(result.nbest[i].class_id);
  }
  a.action = static_cast<std::uint8_t>(result.nbest_action);
  return a;
}

StrokeCheck CheckStroke(const PoolStroke& want, const StrokeSlot& got) {
  StrokeCheck c;
  const StrokeReference& ref = want.ref;
  if (want.touch_multi) {
    c.expected_results = 1;
    c.end_ok = got.end_results == 1 && got.fire_results == 0 && got.end == ref.end;
    c.fire_ok = true;
  } else {
    c.expected_results = ref.fired ? 2 : 1;
    c.fire_ok = ref.fired ? got.fire_results == 1 && got.fire == ref.fire &&
                                got.fire.points_seen == ref.fired_at
                          : got.fire_results == 0;
    c.end_ok = got.end_results == 1 && got.end == ref.end && got.end_eager_fired == ref.fired &&
               got.end_fired_at == ref.fired_at;
  }
  const std::uint64_t lost_events = got.refused + got.dropped;
  const bool end_lost = got.refused_end + got.dropped_end > 0;
  c.failed_ops = lost_events + (c.fire_ok ? 0 : 1) + (c.end_ok || end_lost ? 0 : 1);
  c.tainted = lost_events > 0;
  c.diverged = !c.tainted && !(c.fire_ok && c.end_ok);
  return c;
}

}  // namespace perfbench
