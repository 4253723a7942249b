#include "passes.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <istream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "io/event_wire.h"
#include "obs/trace.h"
#include "serve/wire_adapter.h"

namespace perfbench {

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kPacedQueueCapacity = 8192;
// Span capacity of the producer log in a traced capacity pass. Its spans feed
// no metric (only the span file), so it keeps the pass's first ones.
constexpr std::size_t kCapacityLogSpans = std::size_t{1} << 16;
// The adapter sleeps until this long before an adapt is due, then spins, so
// timer slack does not read as adapt latency.
constexpr std::chrono::microseconds kSpinLead{300};
// The paced schedule releases events in ticks: an event is due at the end of
// the tick in which its last point was produced, the way a device reports
// coalesced input at its polling rate. Between ticks the producer sleeps, so
// it does not hold a core spinning on the clock.
constexpr double kTickNs = 100'000.0;

// Sleeps (then spins the last stretch) until `due`. The sleep is short
// enough that timer slack matters; the calling thread's slack is set to 1 ns.
void SpinUntil(Clock::time_point due) {
  if (due - Clock::now() > kSpinLead) {
    std::this_thread::sleep_until(due - kSpinLead);
  }
  while (Clock::now() < due) {
  }
}

// Due time (ns from the pass origin) of the event that completes `points`
// points of the paced schedule.
double DueNs(double points, double rate) {
  return std::ceil(points * 1e9 / rate / kTickNs) * kTickNs;
}

// Runs a loop on its own thread until Join (or destruction, on an exception
// path) stops it; an exception the loop throws is rethrown by Join.
class AdapterThread {
 public:
  AdapterThread() = default;
  AdapterThread(const AdapterThread&) = delete;
  AdapterThread& operator=(const AdapterThread&) = delete;
  ~AdapterThread() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  template <typename Loop>
  void Start(Loop loop) {
    thread_ = std::thread([this, loop] {
      try {
        loop();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  void Join() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
      thread_.join();
    }
    if (error_) {
      std::rethrow_exception(error_);
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;
  std::thread thread_;
};

serve::ModelLifecycleMetrics Delta(const serve::ModelLifecycleMetrics& after,
                                   const serve::ModelLifecycleMetrics& before) {
  serve::ModelLifecycleMetrics d = after;
  d.user_adapts -= before.user_adapts;
  d.user_cache_hits -= before.user_cache_hits;
  d.user_cache_misses -= before.user_cache_misses;
  d.user_materializations -= before.user_materializations;
  d.user_materialize_failed -= before.user_materialize_failed;
  d.user_evictions -= before.user_evictions;
  return d;
}

}  // namespace

Collector::Collector(const Load& load, std::size_t max_slots, std::size_t span_capacity)
    : load_(load), slots_(max_slots), sink_totals_(kShards) {
  for (std::size_t s = 0; s < kShards; ++s) {
    sink_logs_.emplace_back("shard" + std::to_string(s), span_capacity);
  }
}

double Collector::SinkNsMean() const {
  double ns = 0.0;
  std::uint64_t calls = 0;
  for (const SinkTotal& t : sink_totals_) {
    ns += t.ns;
    calls += t.calls;
  }
  return calls > 0 ? ns / static_cast<double>(calls) : 0.0;
}

Clock::time_point Collector::BeginPass(const serve::RecognitionServer* server, bool traced) {
  std::fill(slots_.begin(), slots_.end(), StrokeSlot{});
  unexpected_.store(0, std::memory_order_relaxed);
  server_ = server;
  traced_ = traced;
  for (SpanLog& log : sink_logs_) {
    log.set_enabled(traced);
  }
  origin_ = Clock::now();
  return origin_;
}

StrokeSlot* Collector::SlotFor(std::uint64_t session, serve::StrokeId stroke) {
  if (stroke == 0 || stroke > load_.max_strokes()) {
    return nullptr;
  }
  const std::uint64_t index = session * load_.max_strokes() + stroke - 1;
  return index < slots_.size() ? &slots_[static_cast<std::size_t>(index)] : nullptr;
}

void Collector::OnResult(const serve::RecognitionResult& result) {
  const Clock::time_point now = Clock::now();
  StrokeSlot* slot = SlotFor(result.session, result.stroke);
  if (slot == nullptr) {
    unexpected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::int64_t ns = NanosSince(origin_, now);
  if (result.kind == serve::ResultKind::kEagerFire) {
    ++slot->fire_results;
    slot->fire_ns = ns;
    slot->fire = AnswerOf(result);
  } else {
    ++slot->end_results;
    slot->end_ns = ns;
    slot->end = AnswerOf(result);
    slot->end_fired_at = static_cast<std::uint32_t>(result.fired_at);
    slot->end_eager_fired = result.eager_fired;
  }
  if (traced_) {
    const std::size_t shard = server_->ShardOf(result.session);
    const std::int64_t end_ns = NanosSince(origin_, Clock::now());
    sink_logs_[shard].Add("bench.sink", result.session, ns, end_ns);
    sink_totals_[shard].ns += static_cast<double>(end_ns - ns);
    ++sink_totals_[shard].calls;
  }
}

void Collector::OnDrop(const serve::ServeEvent& event) {
  StrokeSlot* slot = SlotFor(event.session, event.stroke);
  if (slot == nullptr) {
    unexpected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++slot->dropped;
  if (event.type == serve::EventType::kStrokeEnd) {
    ++slot->dropped_end;
  }
}

std::size_t SlotsFor(const Load& load, double capacity_seconds, double paced_seconds) {
  const WorkloadConfig& config = *load.config;
  const std::size_t cap_cycles =
      static_cast<std::size_t>(capacity_seconds * config.max_rate_pts_per_s /
                               static_cast<double>(load.cycle_points)) +
      1;
  const std::size_t paced_cycles = PacedBlocks(load, paced_seconds) / load.blocks.size() + 1;
  return std::max(cap_cycles, paced_cycles) * load.pool_sessions * config.max_strokes;
}

std::shared_ptr<serve::ModelRegistry> BuildRegistry(const Load& load, SpanLog& log,
                                                    Clock::time_point origin) {
  const WorkloadConfig& config = *load.config;
  const Clock::time_point t0 = Clock::now();
  std::shared_ptr<const serve::RecognizerBundle> bundle =
      serve::RecognizerBundle::Train(load.training);
  log.Add("serve.bundle_train", 0, NanosSince(origin, t0), NanosSince(origin, Clock::now()));
  auto registry = std::make_shared<serve::ModelRegistry>(std::move(bundle));
  if (config.users == 0) {
    return registry;
  }
  serve::PersonalizationOptions options;
  // Room for every measured and adapter user: nothing is evicted here.
  options.cache_max_entries = 4 * (config.users + config.adapter_users);
  options.cache_max_bytes = std::size_t{1} << 30;
  registry->EnablePersonalization(options);
  for (serve::UserId u = 1; u <= config.users; ++u) {
    const std::size_t e = u % load.adapt_examples.size();
    const Clock::time_point ta = Clock::now();
    const robust::Status status =
        registry->AdaptUser(u, load.adapt_classes[e], load.adapt_examples[e]);
    log.Add("personalize.adapt_user", u, NanosSince(origin, ta), NanosSince(origin, Clock::now()));
    if (!status.ok()) {
      throw std::runtime_error("pre-adaptation failed: " + status.message());
    }
  }
  return registry;
}

serve::ResultSink SinkFor(Collector& collector) {
  return [&collector](const serve::RecognitionResult& r) { collector.OnResult(r); };
}

serve::DropSink DropFor(Collector& collector) {
  return [&collector](const serve::ServeEvent& e, const robust::Status&) {
    collector.OnDrop(e);
  };
}

serve::ServerOptions ServerOptionsFor(const WorkloadConfig& config, Collector& collector,
                                      bool paced) {
  serve::ServerOptions options;
  options.num_shards = kShards;
  options.overload = paced ? serve::OverloadPolicy::kAdaptive : serve::OverloadPolicy::kBlock;
  options.nbest.depth = config.nbest_depth;
  options.on_drop = DropFor(collector);
  if (paced) {
    // Deep enough to hold a full deadline budget of arrivals, so a stalled
    // worker shows up as queue wait and expiry, not as a producer blocked
    // in Submit (which would break the open loop).
    options.queue_capacity = kPacedQueueCapacity;
  }
  return options;
}

std::size_t PacedBlocks(const Load& load, double seconds) {
  const double target = load.config->paced_rate_pts_per_s * seconds;
  double points = 0.0;
  std::size_t k = 0;
  while (points < target) {
    points += static_cast<double>(load.blocks[k % load.blocks.size()].points);
    ++k;
  }
  return k;
}

PassCheck CheckAnswers(const Load& load, Collector& collector, std::size_t blocks,
                       const std::optional<PacedSchedule>& paced) {
  const WorkloadConfig& config = *load.config;
  PassCheck r;
  if (paced) {
    const std::size_t per_window =
        (blocks / load.blocks.size() + 1) * load.used_strokes / paced->windows + 1;
    r.fire_us = WindowedSamples(paced->windows, paced->window_ns, per_window);
    r.end_us = WindowedSamples(paced->windows, paced->window_ns, per_window);
  }
  const std::size_t per_block = config.sessions_per_block;
  for (std::size_t j = 0; j < blocks; ++j) {
    const std::size_t cycle = j / load.blocks.size();
    const std::size_t b = j % load.blocks.size();
    const double base_points = static_cast<double>(cycle * load.cycle_points);
    for (std::size_t ws = b * per_block; ws < (b + 1) * per_block; ++ws) {
      for (serve::StrokeId stroke = 1; stroke <= config.max_strokes; ++stroke) {
        const PoolStroke& want = load.strokes[load.StrokeIndex(ws, stroke)];
        if (!want.used) {
          continue;
        }
        const StrokeSlot& got = *collector.SlotFor(cycle * load.pool_sessions + ws, stroke);
        const StrokeCheck c = CheckStroke(want, got);
        ++r.strokes;
        r.expected_results += c.expected_results;
        // A touch group is one operation, however many of its answers failed.
        r.failed_ops += config.touch ? std::min<std::uint64_t>(c.failed_ops, 1) : c.failed_ops;
        r.divergent_strokes += c.diverged ? 1 : 0;
        r.tainted_strokes += c.tainted ? 1 : 0;
        r.last_ns = std::max({r.last_ns, got.fire_ns, got.end_ns});
        if (!paced) {
          continue;
        }
        if (want.ref.fired && got.fire_results > 0) {
          const double due_ns = DueNs(
              base_points + static_cast<double>(want.FireCum(config.points_per_event)),
              paced->rate);
          const double us = (static_cast<double>(got.fire_ns) - due_ns) / 1000.0;
          r.fire_us.Add(due_ns, us);
          r.slo_met += c.fire_ok && us <= kLatencyLimitUs ? 1 : 0;
        }
        if (got.end_results > 0) {
          const double due_ns = DueNs(base_points + static_cast<double>(want.end_cum), paced->rate);
          const double us = (static_cast<double>(got.end_ns) - due_ns) / 1000.0;
          r.end_us.Add(due_ns, us);
          r.slo_met += c.end_ok && us <= kLatencyLimitUs ? 1 : 0;
        }
      }
    }
  }
  r.fire_us.Finish();
  r.end_us.Finish();
  return r;
}

PassResult RunPass(const Load& load, serve::RecognitionServer& server,
                   serve::ModelRegistry& registry, Collector& collector,
                   const PassOptions& options) {
  const WorkloadConfig& config = *load.config;
  const bool paced = options.paced;
  const bool traced = options.traced;
  const double rate = config.paced_rate_pts_per_s;
  const std::size_t cycle_slots = load.pool_sessions * config.max_strokes;
  const std::size_t slot_blocks = collector.max_slots() / cycle_slots * load.blocks.size();
  const std::size_t max_blocks =
      paced ? PacedBlocks(load, options.seconds) : slot_blocks;
  if (max_blocks > slot_blocks) {
    throw std::logic_error("perfbench: paced pass does not fit the result slots");
  }

  PassResult r;
  // A traced paced pass keeps every producer span (they feed
  // serve.submit_ns_*): per event at most a frame decode, a conversion and a
  // submit; per touch group (three or more events) a front-end submit and a
  // session end. The adapter log holds every adapt of the pass.
  std::size_t producer_spans = 0;
  if (traced) {
    producer_spans = kCapacityLogSpans;
    if (paced) {
      std::size_t events = 0;
      for (std::size_t j = 0; j < max_blocks; ++j) {
        events += load.blocks[j % load.blocks.size()].events;
      }
      producer_spans = 3 * events;
    }
  }
  const std::size_t max_adapts =
      static_cast<std::size_t>(config.adapt_rate_hz * (options.seconds + 5.0));
  SpanLog producer_log("producer", producer_spans);
  SpanLog adapter_log("adapter", traced ? max_adapts : 0);
  producer_log.set_enabled(traced);
  adapter_log.set_enabled(traced);
  std::size_t windows = 0;
  double window_ns = 0.0;
  if (paced) {
    double schedule_points = 0.0;
    for (std::size_t j = 0; j < max_blocks; ++j) {
      schedule_points += static_cast<double>(load.blocks[j % load.blocks.size()].points);
    }
    const double schedule_s = schedule_points / rate;
    windows = std::max<std::size_t>(1, static_cast<std::size_t>(schedule_s / kWindowSeconds + 0.5));
    window_ns = schedule_s * 1e9 / static_cast<double>(windows);
    const std::size_t per_window =
        (max_blocks / load.blocks.size() + 1) * load.cycle_events / windows + 1;
    r.gen_lag_us = WindowedSamples(windows, window_ns, per_window);
  }

  std::unique_ptr<serve::TouchFrontEnd> front;
  if (config.touch) {
    serve::TouchFrontEndOptions touch_options;
    touch_options.deadline_us = paced ? kDeadlineUs : 0;
    front = std::make_unique<serve::TouchFrontEnd>(&server, touch_options);
  }

  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // producer: wake on the tick
  const serve::ModelLifecycleMetrics models_before = registry.Metrics();
  if (traced) {
    obs::ResetAll();  // workers idle, adapter not started: nothing records
    obs::SetClockMode(obs::ClockMode::kReal);
  }
  obs::EnableTracing(traced);
  const Clock::time_point origin = collector.BeginPass(&server, traced);

  // Adapter thread: open loop at adapt_rate_hz on users no session belongs to.
  AdapterThread adapter;
  if (config.adapt_rate_hz > 0.0) {
    r.adapt_us = Samples(max_adapts);
    adapter.Start([&] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const double period_ns = 1e9 / config.adapt_rate_hz;
      for (std::size_t i = 0;; ++i) {
        const Clock::time_point due =
            origin + std::chrono::nanoseconds(static_cast<std::int64_t>(
                         static_cast<double>(i) * period_ns));
        SpinUntil(due);
        if (adapter.stopping()) {
          break;
        }
        const std::size_t e = i % load.adapt_examples.size();
        const serve::UserId user = AdapterUser(i, config.adapter_users);
        const Clock::time_point t0 = Clock::now();
        const robust::Status status =
            registry.AdaptUser(user, load.adapt_classes[e], load.adapt_examples[e]);
        const Clock::time_point t1 = Clock::now();
        adapter_log.Add("personalize.adapt_user", user, NanosSince(origin, t0),
                        NanosSince(origin, t1));
        ++r.adapts;
        r.adapts_failed += status.ok() ? 0 : 1;
        r.adapt_us.Add(static_cast<double>(NanosSince(due, t1)) / 1000.0);
      }
    });
  }

  // Span timing on the producer: no clock reads at all in an untraced pass.
  auto stamp = [traced] { return traced ? Clock::now() : Clock::time_point{}; };
  auto span = [&](const char* name, std::uint64_t session, Clock::time_point t0,
                  std::uint32_t parent) {
    return traced ? producer_log.Add(name, session, NanosSince(origin, t0),
                                     NanosSince(origin, Clock::now()), parent)
                  : SpanRecord::kNoParent;
  };

  // Producer: decode each block, stamp the replay's session offset and the
  // derived user, wait for the due time (paced), submit.
  std::uint64_t session_end_refused = 0;
  std::uint64_t touch_refused = 0;
  std::uint64_t pass_cum = 0;
  std::vector<io::WireEvent> frame;
  std::vector<serve::ServeEvent> group_events;
  std::size_t k = 0;
  for (; k < max_blocks; ++k) {
    if (!paced && k > 0 &&
        std::chrono::duration<double>(Clock::now() - origin).count() >= options.seconds) {
      break;
    }
    const std::size_t cycle = k / load.blocks.size();
    const Block& block = load.blocks[k % load.blocks.size()];
    const std::uint64_t session_offset = cycle * load.pool_sessions;
    MemoryBuf buf(block.bytes.data(), block.bytes.size());
    std::istream in(&buf);
    io::EventWireReader reader(in);
    if (!reader.Open().ok()) {
      throw std::runtime_error("perfbench: block header failed to decode");
    }
    while (!reader.done()) {
      const Clock::time_point t_read = stamp();
      const robust::Status read = reader.NextFrame(frame);
      // The frame's decode is the parent of its events' conversion and submit.
      const std::uint32_t frame_span = span("io.next_frame", 0, t_read, SpanRecord::kNoParent);
      if (!read.ok()) {
        throw std::runtime_error("perfbench: frame failed to decode: " + read.message());
      }
      for (io::WireEvent& wire : frame) {
        const std::uint64_t wire_session = wire.session;
        const io::WireEventType type = wire.type;
        pass_cum += wire.points.size();
        r.points += wire.points.size();
        ++r.events;
        const Clock::time_point t_convert = stamp();
        serve::ServeEvent event = serve::ToServeEvent(std::move(wire));
        event.session += session_offset;
        event.user = load.UserOf(wire_session);
        if (!paced) {
          event.deadline_us = 0;  // lossless pass: nothing may expire
        }
        span("serve.to_event", event.session, t_convert, frame_span);
        if (paced) {
          const double due_ns = DueNs(static_cast<double>(pass_cum), rate);
          std::int64_t now_ns = NanosSince(origin, Clock::now());
          if (static_cast<double>(now_ns) < due_ns) {
            std::this_thread::sleep_until(
                origin + std::chrono::nanoseconds(static_cast<std::int64_t>(due_ns)));
            now_ns = NanosSince(origin, Clock::now());
          }
          r.gen_lag_us.Add(due_ns, (static_cast<double>(now_ns) - due_ns) / 1000.0);
        }

        if (config.touch) {
          // A touch group is complete, as the device reports it, at its
          // kSessionEnd.
          const bool complete = event.type == serve::EventType::kSessionEnd;
          const serve::SessionId session = event.session;
          group_events.push_back(std::move(event));
          if (!complete) {
            continue;
          }
          const geom::ContactGroup group = ContactGroupFromEvents(group_events);
          group_events.clear();
          const Clock::time_point t0 = stamp();
          auto submitted = front->Submit(session, 0, 1, group);
          const Clock::time_point t1 = Clock::now();  // also the answer's time
          span("serve.touch_submit", session, t0, frame_span);
          ++r.groups;
          // The server refusing part of a routed stroke is a failure; the
          // tracker rejecting a fault-free group leaves the slot empty, which
          // the check reports as a divergence.
          const bool server_refused =
              !submitted.ok() &&
              (submitted.status().code() == robust::StatusCode::kOverloaded ||
               submitted.status().code() == robust::StatusCode::kFailedPrecondition);
          const bool routed = submitted.ok() ? submitted->routed_to_classifier : server_refused;
          StrokeSlot* slot = collector.SlotFor(session, 1);
          if (slot == nullptr) {
            ++touch_refused;
          } else if (server_refused) {
            ++slot->refused;
          } else if (submitted.ok() && !routed) {
            ++slot->end_results;
            slot->end_ns = NanosSince(origin, t1);
            slot->end.class_id = static_cast<std::uint16_t>(submitted->track.kind);
            slot->end.points_seen = static_cast<std::uint32_t>(submitted->track.frames.size());
          }
          if (routed) {
            // The front end opened a server session for the routed stroke,
            // even when a later event of it was refused; the client's
            // disconnect frees it.
            serve::ServeEvent end;
            end.session = session;
            end.type = serve::EventType::kSessionEnd;
            const Clock::time_point t_submit = stamp();
            session_end_refused += server.Submit(std::move(end)).ok() ? 0 : 1;
            span("serve.submit", session, t_submit, frame_span);
          }
          continue;
        }

        const serve::SessionId session = event.session;
        const serve::StrokeId stroke = event.stroke;
        const Clock::time_point t_submit = stamp();
        const robust::Status status = server.Submit(std::move(event));
        span("serve.submit", session, t_submit, frame_span);
        if (!status.ok()) {
          StrokeSlot* slot = collector.SlotFor(session, stroke);
          if (type == io::WireEventType::kSessionEnd || slot == nullptr) {
            ++session_end_refused;
          } else {
            ++slot->refused;
            slot->refused_end += type == io::WireEventType::kStrokeEnd ? 1 : 0;
          }
        }
      }
    }
  }
  r.blocks = k;
  adapter.Join();  // rethrows what the adapter thread threw
  server.Shutdown();
  obs::EnableTracing(false);
  if (traced) {
    r.stages = obs::SnapshotStages();
  }
  r.totals = server.Metrics().Totals();
  r.models = Delta(registry.Metrics(), models_before);
  if (front) {
    r.touch = front->Stats();
  }

  r.check = CheckAnswers(load, collector, k,
                         paced ? std::optional<PacedSchedule>({rate, windows, window_ns})
                               : std::nullopt);
  r.wall_s = static_cast<double>(r.check.last_ns) / 1e9;
  r.pts_per_s = r.wall_s > 0.0 ? static_cast<double>(r.points) / r.wall_s : 0.0;
  r.attempted = (config.touch ? r.groups : r.events) + r.adapts;
  r.other_failed =
      session_end_refused + touch_refused + collector.unexpected() + r.adapts_failed;
  r.gen_lag_us.Finish();
  r.adapt_us.Finish();
  r.logs.push_back(std::move(producer_log));
  r.logs.push_back(std::move(adapter_log));
  return r;
}

}  // namespace perfbench
