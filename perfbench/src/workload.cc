#include "workload.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/event_wire.h"
#include "synth/contact_synth.h"
#include "synth/generator.h"
#include "synth/lexicon.h"
#include "synth/rng.h"
#include "synth/sets.h"

namespace perfbench {

namespace {

// Small frames keep the decode burst in front of a paced event short.
constexpr std::size_t kEventsPerFrame = 64;
// Adapter-thread users live far above the measured users' ids, so adapts
// never touch a model a measured stroke pins.
constexpr serve::UserId kFirstAdapterUser = 1'000'000;

// adapt_churn's write rate models users correcting misrecognitions: one
// AdaptUser per stroke their model gets wrong. Its users are adapted, and
// bench/personalize_churn measures adapted models at 0.973 accuracy
// (EXPERIMENTS.md), so 0.027 adapts per stroke at the paced stroke rate:
// the paced points/s over the mean pool stroke of 28.0 GDP points (28.05
// over seeds 1-10), about 240 adapts/s.
constexpr double kCorrectionAdaptsPerStroke = 1.0 - 0.973;
constexpr double kGdpPointsPerStroke = 28.0;
// touch_groups' mix: bench/touch_noise_soak's corpus holds 96 single strokes
// and 72 two-finger groups, so of every 7 sessions 4 are single strokes.
constexpr std::size_t kTouchMixPeriod = 7;
constexpr std::size_t kTouchSinglesPerPeriod = 4;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<WorkloadConfig> MakeWorkloads() {
  std::vector<WorkloadConfig> out;

  // Mouse-move granularity over the paper's GDP set: per-point kernel work is
  // small, so the per-event path (decode, Submit, session lookup, callback)
  // dominates.
  WorkloadConfig gdp;
  gdp.name = "mouse_gdp";
  gdp.points_per_event = 2;
  gdp.paced_rate_pts_per_s = 0.3e6;
  gdp.max_rate_pts_per_s = 8.0e6;
  gdp.setup_reps = 25;
  out.push_back(gdp);

  // 200-class lexicon, n-best 3, coalesced 16-point frames: per-event cost is
  // spread over 8x more points and per-point kernel cost is higher, so
  // features, the AUC fire check and classify/n-best dominate.
  WorkloadConfig lex;
  lex.name = "lexicon_frames";
  lex.lexicon = true;
  lex.train_per_class = 8;
  lex.pool_per_class = 4;
  lex.points_per_event = 16;
  lex.nbest_depth = 3;
  lex.blocks = 8;
  lex.paced_rate_pts_per_s = 0.3e6;
  lex.max_rate_pts_per_s = 4.0e6;
  lex.setup_reps = 5;
  out.push_back(lex);

  // GDP with personalization: 1-2 stroke sessions from pre-adapted users, so
  // session create/erase and model pinning happen at stroke boundaries while
  // an adapter thread writes other users' models.
  WorkloadConfig churn;
  churn.name = "adapt_churn";
  churn.points_per_event = 2;
  churn.min_strokes = 1;
  churn.max_strokes = 2;
  churn.blocks = 32;
  churn.users = 300;
  // The adapter population mirrors the measured one, so each adapter user is
  // written as often as a measured user would be.
  churn.adapter_users = 300;
  churn.paced_rate_pts_per_s = 0.25e6;
  churn.adapt_rate_hz =
      kCorrectionAdaptsPerStroke * churn.paced_rate_pts_per_s / kGdpPointsPerStroke;
  churn.max_rate_pts_per_s = 8.0e6;
  churn.setup_reps = 25;
  out.push_back(churn);

  // Contact groups through serve::TouchFrontEnd: single-contact strokes go
  // to the classifier, two-finger pinch/rotate/swipe groups take the
  // tracker + touch-attribute path, in the mix of bench/touch_noise_soak's
  // corpus (96 single strokes to 72 two-finger groups).
  WorkloadConfig touch;
  touch.name = "touch_groups";
  touch.touch = true;
  touch.pool_per_class = 12;
  touch.points_per_event = 16;
  touch.min_strokes = 1;
  touch.max_strokes = 1;
  touch.sessions_per_block = 64;
  touch.blocks = 8;
  touch.paced_rate_pts_per_s = 0.4e6;
  touch.max_rate_pts_per_s = 6.0e6;
  touch.setup_reps = 25;
  out.push_back(touch);
  return out;
}

// Appends one stroke's begin / points... / end events.
void AppendStroke(std::uint64_t session, serve::StrokeId stroke,
                  const std::vector<geom::TimedPoint>& points, std::size_t per_event,
                  std::vector<io::WireEvent>& out) {
  out.push_back({session, stroke, kDeadlineUs, io::WireEventType::kStrokeBegin, {}});
  for (std::size_t i = 0; i < points.size(); i += per_event) {
    const std::size_t end = std::min(points.size(), i + per_event);
    io::WireEvent e{session, stroke, kDeadlineUs, io::WireEventType::kPoints, {}};
    e.points.assign(points.begin() + static_cast<std::ptrdiff_t>(i),
                    points.begin() + static_cast<std::ptrdiff_t>(end));
    out.push_back(std::move(e));
  }
  out.push_back({session, stroke, kDeadlineUs, io::WireEventType::kStrokeEnd, {}});
}

Block Encode(const std::vector<io::WireEvent>& events) {
  std::ostringstream os;
  if (!io::SaveEventWire(events, os, kEventsPerFrame)) {
    throw std::runtime_error("perfbench: SaveEventWire rejected a generated event");
  }
  Block block;
  block.bytes = os.str();
  block.events = events.size();
  for (const io::WireEvent& e : events) {
    block.points += e.points.size();
  }
  return block;
}

// Records the schedule of `e` (already placed at cycle-relative cumulative
// point count `cum`) on the pool stroke it belongs to.
void NoteSchedule(Load& load, const io::WireEvent& e, std::uint64_t cum) {
  if (load.config->touch) {
    // A group is due as a whole, once its kSessionEnd has been produced.
    if (e.type == io::WireEventType::kSessionEnd) {
      load.strokes[load.StrokeIndex(e.session, 1)].end_cum = cum;
    }
    return;
  }
  if (e.type == io::WireEventType::kPoints) {
    load.strokes[load.StrokeIndex(e.session, e.stroke)].points_event_cum.push_back(cum);
  } else if (e.type == io::WireEventType::kStrokeEnd) {
    load.strokes[load.StrokeIndex(e.session, e.stroke)].end_cum = cum;
  }
}

}  // namespace

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::uint64_t PoolStroke::FireCum(std::size_t points_per_event) const {
  if (!ref.fired) {
    return 0;
  }
  if (points_event_cum.empty()) {
    return end_cum;  // touch: the whole group is submitted at once
  }
  const std::size_t k = (ref.fired_at - 1) / points_per_event;
  return points_event_cum[std::min(k, points_event_cum.size() - 1)];
}

serve::UserId Load::UserOf(std::uint64_t wire_session) const {
  if (config->users == 0) {
    return 0;
  }
  return 1 + wire_session % config->users;
}

serve::UserId AdapterUser(std::size_t i, std::size_t adapter_users) {
  return kFirstAdapterUser + i % adapter_users;
}

Load MakeLoad(const WorkloadConfig& config, std::uint64_t seed) {
  Load load;
  load.config = &config;
  load.seed = seed;
  const std::uint64_t train_seed = Mix(seed * 4 + 1);
  const std::uint64_t pool_seed = Mix(seed * 4 + 2);
  const std::uint64_t adapt_seed = Mix(seed * 4 + 3);
  synth::Rng rng(Mix(seed * 4 + 4));

  const std::vector<synth::PathSpec> specs =
      config.lexicon ? synth::MakeExtensiveLexicon() : synth::MakeGdpSpecs();
  const synth::NoiseModel noise;
  load.training = synth::ToTrainingSet(
      synth::GenerateSet(specs, noise, config.train_per_class, train_seed));
  for (const synth::LabeledSamples& batch :
       synth::GenerateSet(specs, noise, config.pool_per_class, pool_seed)) {
    for (const synth::GestureSample& s : batch.samples) {
      load.gestures.push_back(s.gesture);
    }
  }
  if (config.users > 0) {
    const auto batches = synth::GenerateSet(synth::MakeGdpSpecs(), noise, 4, adapt_seed);
    for (std::size_t c = 0; c < batches.size(); ++c) {
      for (const synth::GestureSample& s : batches[c].samples) {
        load.adapt_examples.push_back(s.gesture);
        load.adapt_classes.push_back(static_cast<classify::ClassId>(c));
      }
    }
  }

  // Touch groups: the two-finger groups, then one single-contact group per
  // replayed GDP gesture. The session id fixes which kind a session draws
  // (kTouchSinglesPerPeriod singles in every kTouchMixPeriod sessions), so
  // every seed replays the same mix.
  std::vector<geom::ContactGroup> groups;
  std::size_t multi_groups = 0;
  if (config.touch) {
    const auto sets = synth::GenerateContactSet(synth::MakeTouchSpecs(), noise,
                                                config.pool_per_class, pool_seed + 1);
    for (const auto& set : sets) {
      groups.insert(groups.end(), set.groups.begin(), set.groups.end());
    }
    multi_groups = groups.size();
    for (const geom::Gesture& g : load.gestures) {
      groups.push_back(synth::AsContactGroup(g));
    }
    for (geom::ContactGroup& g : groups) {
      for (geom::Contact& c : g.contacts()) {
        c.area = kNominalContactArea;
      }
    }
  }

  load.pool_sessions = config.blocks * config.sessions_per_block;
  load.strokes.resize(load.pool_sessions * config.max_strokes);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < config.blocks; ++b) {
    // Per-session event lists, then a round-robin interleave.
    std::vector<std::vector<io::WireEvent>> per_session(config.sessions_per_block);
    for (std::size_t j = 0; j < config.sessions_per_block; ++j) {
      const std::uint64_t session = b * config.sessions_per_block + j;
      std::vector<io::WireEvent>& events = per_session[j];
      if (config.touch) {
        const std::size_t g = session % kTouchMixPeriod < kTouchSinglesPerPeriod
                                  ? multi_groups + rng.Index(groups.size() - multi_groups)
                                  : rng.Index(multi_groups);
        PoolStroke& s = load.strokes[load.StrokeIndex(session, 1)];
        s.used = true;
        s.wire_session = session;
        s.stroke = 1;
        s.gesture = static_cast<std::uint32_t>(g);
        s.points = static_cast<std::uint32_t>(groups[g].TotalPoints());
        for (const geom::Contact& c : groups[g].contacts()) {
          AppendStroke(session, static_cast<serve::StrokeId>(c.id), c.stroke.points(),
                       config.points_per_event, events);
        }
      } else {
        const std::size_t n =
            config.min_strokes + rng.Index(config.max_strokes - config.min_strokes + 1);
        for (std::size_t k = 1; k <= n; ++k) {
          const std::size_t g = rng.Index(load.gestures.size());
          PoolStroke& s = load.strokes[load.StrokeIndex(session, static_cast<serve::StrokeId>(k))];
          s.used = true;
          s.wire_session = session;
          s.stroke = static_cast<serve::StrokeId>(k);
          s.user = load.UserOf(session);
          s.gesture = static_cast<std::uint32_t>(g);
          s.points = static_cast<std::uint32_t>(load.gestures[g].size());
          AppendStroke(session, s.stroke, load.gestures[g].points(), config.points_per_event,
                       events);
        }
      }
      events.push_back({session, 0, 0, io::WireEventType::kSessionEnd, {}});
    }

    // Stroke sessions interleave round-robin, one event at a time. A touch
    // group arrives whole (the device reports it as one interaction), so
    // touch sessions follow one another.
    std::vector<io::WireEvent> block_events;
    std::vector<std::size_t> next(config.sessions_per_block, 0);
    const std::size_t step = config.touch ? std::numeric_limits<std::size_t>::max() : 1;
    for (bool more = true; more;) {
      more = false;
      for (std::size_t j = 0; j < config.sessions_per_block; ++j) {
        for (std::size_t n = 0; n < step && next[j] < per_session[j].size(); ++n) {
          io::WireEvent& e = per_session[j][next[j]++];
          cum += e.points.size();
          NoteSchedule(load, e, cum);
          block_events.push_back(std::move(e));
          more = true;
        }
      }
    }
    load.blocks.push_back(Encode(block_events));
    load.cycle_events += load.blocks.back().events;
    load.cycle_bytes += load.blocks.back().bytes.size();
  }
  load.cycle_points = cum;
  for (const PoolStroke& s : load.strokes) {
    load.used_strokes += s.used ? 1 : 0;
  }
  load.groups = std::move(groups);
  return load;
}

geom::ContactGroup ContactGroupFromEvents(const std::vector<serve::ServeEvent>& events) {
  geom::ContactGroup group;
  for (const serve::ServeEvent& e : events) {
    if (e.type == serve::EventType::kStrokeBegin) {
      geom::Contact c;
      c.id = static_cast<std::int32_t>(e.stroke);
      c.area = kNominalContactArea;
      group.AddContact(std::move(c));
    } else if (e.type == serve::EventType::kPoints && !group.empty()) {
      geom::Gesture& stroke = group.contacts().back().stroke;
      for (const geom::TimedPoint& p : e.points) {
        stroke.AppendPoint(p);
      }
    }
  }
  return group;
}

}  // namespace perfbench
