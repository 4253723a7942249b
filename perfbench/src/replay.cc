#include "replay.h"

#include <algorithm>
#include <istream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "classify/rejection.h"
#include "eager/eager_recognizer.h"
#include "features/extractor.h"
#include "features/feature_vector.h"
#include "io/event_wire.h"
#include "robust/contact_tracker.h"
#include "serve/session_manager.h"
#include "serve/wire_adapter.h"
#include "toolkit/touch_attributes.h"

namespace perfbench {

const std::array<const char*, kNumLayers> kLayerNames = {
    "io.next_frame",      "serve.to_event",       "bench.assemble",
    "sessions.get_or_create", "sessions.erase",   "registry.current_for",
    "eager.begin_stroke", "eager.add_span",       "classify.plain",
    "classify.nbest",     "robust.track",         "toolkit.touch_track",
};

namespace {

constexpr std::size_t kReplaySpans = std::size_t{1} << 17;
constexpr double kFeaturesSeconds = 0.2;

// What the replay itself answered for one pool stroke (first cycle only).
struct ReplayAnswer {
  bool fired = false;
  std::uint32_t fired_at = 0;
  std::uint16_t fire_class = 0;
  std::uint16_t end_class = 0;
  std::uint32_t end_points = 0;
  bool done = false;
};

class Replayer {
 public:
  Replayer(const Load& load, serve::ModelRegistry& registry, Clock::time_point origin,
           ReplayResult& out)
      : load_(load),
        config_(*load.config),
        registry_(registry),
        origin_(origin),
        out_(out),
        base_(registry.Current()),
        sessions_(base_, serve::NBestOptions{config_.nbest_depth, {}}),
        answers_(load.strokes.size()) {
    streams_.reserve(load.pool_sessions);
    for (std::size_t i = 0; i < load.pool_sessions; ++i) {
      streams_.emplace_back(base_->recognizer());
      streams_.back().SetNBest(config_.nbest_depth);
    }
    pins_.resize(load.pool_sessions);
  }

  // One pool cycle; answers and counts are recorded when `first` is set.
  void Cycle(bool first) {
    first_ = first;
    std::vector<io::WireEvent> frame;
    std::vector<serve::ServeEvent> group_events;
    for (const Block& block : load_.blocks) {
      MemoryBuf buf(block.bytes.data(), block.bytes.size());
      std::istream in(&buf);
      io::EventWireReader reader(in);
      if (!reader.Open().ok()) {
        throw std::runtime_error("perfbench: replay block header failed to decode");
      }
      while (!reader.done()) {
        Clock::time_point t0 = Clock::now();
        const robust::Status read = reader.NextFrame(frame);
        // Spans of this frame's events name its decode as their parent.
        parent_ = Span(kNextFrame, 0, t0, frame.size());
        if (!read.ok()) {
          throw std::runtime_error("perfbench: replay frame failed to decode");
        }
        for (io::WireEvent& wire : frame) {
          const std::uint64_t ws = wire.session;
          t0 = Clock::now();
          serve::ServeEvent event = serve::ToServeEvent(std::move(wire));
          Span(kToEvent, ws, t0, 1);
          if (config_.touch) {
            const bool complete = event.type == serve::EventType::kSessionEnd;
            group_events.push_back(std::move(event));
            if (complete) {
              t0 = Clock::now();
              const geom::ContactGroup group = ContactGroupFromEvents(group_events);
              Span(kAssemble, ws, t0, 1);
              group_events.clear();
              Touch(ws, group);
            }
            continue;
          }
          Stroke(ws, load_.UserOf(ws), event);
        }
      }
    }
  }

  void FeaturesPass() {
    features::FeatureExtractor fx;
    std::array<double, features::kNumFeatures> buf{};
    const linalg::MutVecView view(buf.data(), buf.size());
    double sink = 0.0;
    std::uint64_t points = 0;
    // Whole passes over the strokes until kFeaturesSeconds have elapsed.
    const Clock::time_point t0 = Clock::now();
    do {
      for (const geom::Gesture* g : classified_) {
        fx.Reset();
        for (const geom::TimedPoint& p : *g) {
          fx.AddPoint(p);
          fx.FeaturesInto(view);
          sink += buf[0];
        }
        points += g->size();
      }
    } while (std::chrono::duration<double>(Clock::now() - t0).count() < kFeaturesSeconds);
    const double ns = static_cast<double>(NanosSince(t0, Clock::now()));
    out_.features_ns_per_point = points > 0 ? ns / static_cast<double>(points) : 0.0;
    volatile double keep = sink;
    (void)keep;
  }

  void Finish() {
    std::uint64_t fired = 0;
    double share = 0.0;
    for (std::size_t i = 0; i < load_.strokes.size(); ++i) {
      const PoolStroke& want = load_.strokes[i];
      if (!want.used) {
        continue;
      }
      const ReplayAnswer& got = answers_[i];
      bool ok = got.done && got.end_class == want.ref.end.class_id;
      if (want.touch_multi) {
        ok = ok && got.end_points == want.ref.end.points_seen;
      } else {
        ok = ok && got.fired == want.ref.fired && got.fired_at == want.ref.fired_at &&
             (!got.fired || got.fire_class == want.ref.fire.class_id);
      }
      out_.divergent_strokes += ok ? 0 : 1;
      if (got.fired) {
        ++fired;
        share += static_cast<double>(got.fired_at) / static_cast<double>(got.end_points);
      }
    }
    out_.fires = fired;
    out_.fire_point_share = fired > 0 ? share / static_cast<double>(fired) : 0.0;
  }

 private:
  std::uint32_t Span(Layer layer, std::uint64_t session, Clock::time_point t0,
                     std::uint64_t units) {
    const Clock::time_point t1 = Clock::now();
    const double ns = static_cast<double>(NanosSince(t0, t1));
    LayerTotal& l = out_.layers[layer];
    l.ns += ns;
    ++l.calls;
    l.units += units;
    out_.covered_ns += ns;
    return out_.log.Add(kLayerNames[layer], session, NanosSince(origin_, t0),
                        NanosSince(origin_, t1),
                        layer == kNextFrame ? SpanRecord::kNoParent : parent_);
  }

  ReplayAnswer* AnswerFor(std::uint64_t ws, serve::StrokeId stroke) {
    return first_ ? &answers_[load_.StrokeIndex(ws, stroke)] : nullptr;
  }

  void CountDeferred(std::span<const classify::NBestEntry> entries, double mahalanobis_sq) {
    if (!first_ || config_.nbest_depth == 0) {
      return;
    }
    const classify::NBestDecision d =
        classify::DecideNBest(classify::RejectionPolicy{}, entries, mahalanobis_sq,
                              base_->recognizer().full().mask().count());
    out_.nbest_deferred += d.action == classify::NBestAction::kDefer ? 1 : 0;
  }

  void BeginStroke(std::uint64_t ws, serve::UserId user) {
    Clock::time_point t0 = Clock::now();
    sessions_.GetOrCreate(ws);
    Span(kGetOrCreate, ws, t0, 1);
    t0 = Clock::now();
    std::shared_ptr<const serve::RecognizerBundle> pin = registry_.CurrentFor(user);
    Span(kCurrentFor, ws, t0, 1);
    t0 = Clock::now();
    if (pin.get() != pins_[ws].get()) {
      streams_[ws].Rebind(pin->recognizer());
    } else {
      streams_[ws].Reset();
    }
    Span(kBeginStroke, ws, t0, 1);
    pins_[ws] = std::move(pin);
  }

  void AddPoints(std::uint64_t ws, serve::StrokeId stroke,
                 std::span<const geom::TimedPoint> points) {
    Clock::time_point t0 = Clock::now();
    sessions_.GetOrCreate(ws);
    Span(kGetOrCreate, ws, t0, 1);
    eager::FireEvent fire;
    t0 = Clock::now();
    streams_[ws].AddSpan(points, &fire);
    Span(kAddSpan, ws, t0, points.size());
    if (fire.fired) {
      if (ReplayAnswer* a = AnswerFor(ws, stroke)) {
        a->fired = true;
        a->fired_at = static_cast<std::uint32_t>(fire.fired_at);
        a->fire_class = static_cast<std::uint16_t>(fire.classification.class_id);
      }
      CountDeferred(std::span<const classify::NBestEntry>(fire.nbest.data(), fire.nbest_count),
                    fire.classification.mahalanobis_squared);
    }
  }

  void EndStroke(std::uint64_t ws, serve::StrokeId stroke) {
    Clock::time_point t0 = Clock::now();
    sessions_.GetOrCreate(ws);
    Span(kGetOrCreate, ws, t0, 1);
    eager::EagerStream& stream = streams_[ws];
    t0 = Clock::now();
    const classify::Classification plain = stream.ClassifyNow();
    Span(kClassify, ws, t0, 1);
    // Plain is timed on every workload; n-best only where the workload runs
    // it (the server then calls it instead of plain).
    if (config_.nbest_depth > 0) {
      std::array<classify::NBestEntry, classify::kMaxNBest> entries{};
      classify::Classification top;
      t0 = Clock::now();
      const std::size_t n = stream.ClassifyNowNBest(
          std::span<classify::NBestEntry>(entries.data(), config_.nbest_depth), &top);
      Span(kClassifyNBest, ws, t0, 1);
      CountDeferred(std::span<const classify::NBestEntry>(entries.data(), n),
                    top.mahalanobis_squared);
    }
    if (ReplayAnswer* a = AnswerFor(ws, stroke)) {
      a->end_class = static_cast<std::uint16_t>(plain.class_id);
      a->end_points = static_cast<std::uint32_t>(stream.points_seen());
      a->done = true;
    }
  }

  void EndSession(std::uint64_t ws) {
    const Clock::time_point t0 = Clock::now();
    sessions_.Erase(ws);
    Span(kErase, ws, t0, 1);
  }

  void Stroke(std::uint64_t ws, serve::UserId user, const serve::ServeEvent& event) {
    switch (event.type) {
      case serve::EventType::kStrokeBegin:
        BeginStroke(ws, user);
        if (first_) {
          classified_.push_back(&load_.gestures[load_.strokes[load_.StrokeIndex(ws, event.stroke)]
                                                    .gesture]);
        }
        break;
      case serve::EventType::kPoints:
        AddPoints(ws, event.stroke, event.points);
        break;
      case serve::EventType::kStrokeEnd:
        EndStroke(ws, event.stroke);
        break;
      case serve::EventType::kSessionEnd:
        EndSession(ws);
        break;
    }
  }

  void Touch(std::uint64_t ws, const geom::ContactGroup& group) {
    Clock::time_point t0 = Clock::now();
    auto tracked = tracker_.Track(group);
    Span(kTrack, ws, t0, 1);
    if (!tracked.ok()) {
      return;  // no answer: the check counts the stroke as divergent
    }
    t0 = Clock::now();
    const toolkit::TouchTrack track = toolkit::ComputeTouchTrack(tracked->group);
    Span(kTouchTrack, ws, t0, 1);
    if (track.kind != toolkit::TouchGestureKind::kSingleStroke) {
      if (ReplayAnswer* a = AnswerFor(ws, 1)) {
        a->end_class = static_cast<std::uint16_t>(track.kind);
        a->end_points = static_cast<std::uint32_t>(track.frames.size());
        a->done = true;
      }
      return;
    }
    // Single contact: the stroke path the front end routes it to.
    const geom::Gesture& primary = tracked->group[track.primary_index].stroke;
    BeginStroke(ws, 0);
    AddPoints(ws, 1, primary.span());
    EndStroke(ws, 1);
    EndSession(ws);
    if (first_) {
      primaries_.push_back(std::make_unique<geom::Gesture>(primary));
      classified_.push_back(primaries_.back().get());
    }
  }

  const Load& load_;
  const WorkloadConfig& config_;
  serve::ModelRegistry& registry_;
  Clock::time_point origin_;
  ReplayResult& out_;
  std::shared_ptr<const serve::RecognizerBundle> base_;
  serve::SessionManager sessions_;
  const robust::ContactTracker tracker_;
  std::vector<eager::EagerStream> streams_;
  std::vector<std::shared_ptr<const serve::RecognizerBundle>> pins_;
  std::vector<ReplayAnswer> answers_;
  // Point sequences the classifier saw in the first cycle (features pass).
  std::vector<const geom::Gesture*> classified_;
  std::vector<std::unique_ptr<geom::Gesture>> primaries_;
  bool first_ = true;
  std::uint32_t parent_ = SpanRecord::kNoParent;
};

}  // namespace

ReplayResult RunReplay(const Load& load, serve::ModelRegistry& registry, Clock::time_point origin,
                       double min_seconds) {
  ReplayResult out;
  out.log = SpanLog("replay", kReplaySpans);
  out.log.set_enabled(true);
  Replayer replayer(load, registry, origin, out);
  const Clock::time_point start = Clock::now();
  replayer.Cycle(/*first=*/true);
  while (std::chrono::duration<double>(Clock::now() - start).count() < min_seconds) {
    replayer.Cycle(/*first=*/false);
  }
  out.wall_ns = static_cast<double>(NanosSince(start, Clock::now()));
  replayer.Finish();
  replayer.FeaturesPass();
  return out;
}

}  // namespace perfbench
