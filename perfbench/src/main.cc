// perfbench: the repository's end-to-end serving benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--spans-out <file>]
//
// Replays seeded synthetic input, encoded as `grandma-events v1` bytes,
// through serve::RecognitionServer and checks every answer against a
// single-threaded eager::EagerStream reference. --trace 0 measures the
// end-to-end metrics; --trace 1 is the separate traced run that splits the
// same work layer by layer (see README.md). The last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit code is
// nonzero when an answer diverged or a measurement was invalid.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "check.h"
#include "common.h"
#include "linalg/simd.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "passes.h"
#include "replay.h"
#include "serve/model_registry.h"
#include "serve/recognizer_bundle.h"
#include "serve/server.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr std::size_t kSinkSpans = std::size_t{1} << 17;
// Spans written per thread log at exit (all retained spans feed the metrics).
constexpr std::size_t kSpansWritten = std::size_t{1} << 14;
// A run is one round per kSecondsPerRound of --seconds, at least kMinRounds.
constexpr double kSecondsPerRound = 2.0;
constexpr std::size_t kMinRounds = 5;

using WindowList = std::vector<const WindowedSamples*>;

// The passes of one kind in a run, with their checks summed.
struct Passes {
  std::vector<PassResult> runs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t divergent_strokes = 0;
  std::uint64_t tainted_strokes = 0;
  std::uint64_t strokes = 0;
  std::uint64_t expected_results = 0;
  std::uint64_t slo_met = 0;

  void Add(PassResult pass) {
    attempted += pass.attempted;
    failed += pass.failed();
    divergent_strokes += pass.check.divergent_strokes;
    tainted_strokes += pass.check.tainted_strokes;
    strokes += pass.check.strokes;
    expected_results += pass.check.expected_results;
    slo_met += pass.check.slo_met;
    runs.push_back(std::move(pass));
  }

  // The pass with the median rate (the lower middle for an even count).
  const PassResult& MedianRate() const {
    std::vector<const PassResult*> sorted;
    for (const PassResult& p : runs) {
      sorted.push_back(&p);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const PassResult* a, const PassResult* b) { return a->pts_per_s < b->pts_per_s; });
    return *sorted[(sorted.size() - 1) / 2];
  }

  std::string Rates() const {
    std::string out;
    for (const PassResult& p : runs) {
      out += std::to_string(static_cast<long long>(p.pts_per_s)) + " ";
    }
    return out;
  }

  template <typename Get>
  WindowList Windows(Get get) const {
    WindowList out;
    for (const PassResult& p : runs) {
      out.push_back(get(p));
    }
    return out;
  }

  // Mean over the passes of an obs stage's mean (0 when never recorded).
  double MeanStage(const char* name) const;
};

// Median over every window of every pass of the window's p-quantile.
double MedianPercentile(const WindowList& list, double p) {
  std::vector<double> values;
  for (const WindowedSamples* w : list) {
    const std::vector<double> v = w->PerWindow(p);
    values.insert(values.end(), v.begin(), v.end());
  }
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string WindowNote(const WindowList& list, double p) {
  std::size_t windows = 0;
  std::size_t samples = 0;
  std::size_t min_beyond = ~std::size_t{0};
  for (const WindowedSamples* w : list) {
    windows += w->windows();
    samples += w->count();
    min_beyond = std::min(min_beyond, w->MinBeyond(p));
  }
  return "(median of " + std::to_string(windows) + " windows, n=" + std::to_string(samples) +
         (p > 0.5 ? ", min beyond per window=" + std::to_string(min_beyond) : "") + ")";
}

// A p99 is reported only with at least 10 samples beyond it in every window.
std::string TailLine(const WindowList& list) {
  std::size_t min_beyond = ~std::size_t{0};
  for (const WindowedSamples* w : list) {
    min_beyond = std::min(min_beyond, w->MinBeyond(0.99));
  }
  if (min_beyond < 10) {
    return "not reported " + WindowNote(list, 0.99);
  }
  return std::to_string(MedianPercentile(list, 0.99)) + " us " + WindowNote(list, 0.99);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 && args.trace >= 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double StageMean(const std::vector<obs::StageSummary>& stages, const char* name) {
  for (const obs::StageSummary& s : stages) {
    if (s.name == name) {
      return s.mean;
    }
  }
  return 0.0;
}

double Passes::MeanStage(const char* name) const {
  double sum = 0.0;
  for (const PassResult& p : runs) {
    sum += StageMean(p.stages, name);
  }
  return runs.empty() ? 0.0 : sum / static_cast<double>(runs.size());
}

// Durations (ns) of every retained span named `name` across `logs`.
Samples SpanDurations(const std::vector<const SpanLog*>& logs, const char* name) {
  Samples out;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& s : log->spans()) {
      if (std::strcmp(s.name, name) == 0) {
        out.Add(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
  }
  out.Finish();
  return out;
}

void WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  out << "thread,name,start_ns,end_ns,parent,session\n";
  for (const SpanLog* log : logs) {
    const std::size_t n = std::min(log->spans().size(), kSpansWritten);
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRecord& s = log->spans()[i];
      out << log->thread_name() << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
          << (s.parent == SpanRecord::kNoParent ? -1 : static_cast<std::int64_t>(s.parent)) << ','
          << s.session << '\n';
    }
  }
}

// Metrics in print order; printed to the human-readable report and, in the
// same order, into the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void Info(std::string name, std::string text) { info_.emplace_back(std::move(name), std::move(text)); }

  void Print(bool correct, std::uint64_t attempted, std::uint64_t failed,
             bool json = true) const {
    for (const auto& [name, text] : info_) {
      std::printf("  %-32s %s\n", name.c_str(), text.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.empty() ? "" : "  ", m.note.c_str());
    }
    if (!json) {
      return;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

std::string Counted(const Samples& s) { return "(n=" + std::to_string(s.count()) + ")"; }

std::string Calls(const LayerTotal& l) { return "(n=" + std::to_string(l.calls) + ")"; }

std::string CountedTail(const Samples& s, double p) {
  return "(n=" + std::to_string(s.count()) + ", beyond=" + std::to_string(s.Beyond(p)) + ")";
}

int Run(const Args& args) {
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", config->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf(
      "{\"env\": {\"simd_tier\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"tracing_compiled_in\": %s, \"seed\": %llu, \"commit\": \"%s\", \"workload\": "
      "\"%s\", \"trace\": %d}}\n",
      linalg::simd::TierName(linalg::simd::ActiveTier()), cores,
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      PERFBENCH_BUILD_TYPE, obs::kCompiledIn ? "true" : "false",
      static_cast<unsigned long long>(args.seed), args.commit.c_str(), config->name.c_str(),
      args.trace);
  if (traced && !obs::kCompiledIn) {
    std::fprintf(stderr, "perfbench: the traced run needs tracing compiled in\n");
    return 2;
  }

  // --- input synthesis (not part of set-up time) ---
  Load load = MakeLoad(*config, args.seed);

  // Pass lengths per round, as shares of --seconds.
  const std::size_t rounds =
      std::max(kMinRounds, static_cast<std::size_t>(args.seconds / kSecondsPerRound));
  const double cap_s = args.seconds * (traced ? 0.2 : 0.4) / static_cast<double>(rounds);
  const double paced_s = args.seconds * (traced ? 0.35 : 0.6) / static_cast<double>(rounds);
  const double replay_s = args.seconds * 0.15;
  Collector collector(load, SlotsFor(load, cap_s, paced_s), traced ? kSinkSpans : 0);

  // --- set-up: train, registry, personalization, server; median of reps ---
  SpanLog main_log("main", traced ? 4096 : 0);
  main_log.set_enabled(traced);
  const Clock::time_point origin = Clock::now();
  if (traced) {
    obs::ResetAll();
    obs::SetClockMode(obs::ClockMode::kReal);
    obs::EnableTracing(true);
  }
  // One set-up now; the other setup_reps - 1 are spread over the rounds
  // below so the median samples the whole run, like the passes do.
  Samples setup_s(config->setup_reps);
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::RecognitionServer> server;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    auto built = BuildRegistry(load, main_log, origin);
    auto built_server = std::make_unique<serve::RecognitionServer>(
        built, ServerOptionsFor(*config, collector, /*paced=*/false), SinkFor(collector));
    setup_s.Add(std::chrono::duration<double>(Clock::now() - t0).count());
    return std::make_pair(std::move(built), std::move(built_server));
  };
  std::tie(registry, server) = set_up();
  // Exact per-span training times from the obs ring of the traced set-up
  // (the stage histogram's bucket bounds would read the same on most runs).
  Samples eager_train_ns;
  Samples classify_train_ns;
  if (traced) {
    obs::EnableTracing(false);
    for (const obs::ThreadTrace& thread : obs::CollectAll()) {
      for (const obs::Span& span : thread.spans) {
        const std::string_view name = obs::NameOf(span.name_id);
        const auto ns = static_cast<double>(span.t_end - span.t_start);
        if (name == "eager.train") {
          eager_train_ns.Add(ns);
        } else if (name == "classify.train") {
          classify_train_ns.Add(ns);
        }
      }
    }
  }

  // --- reference answers (untimed) ---
  ComputeReferences(load, *registry, classify::RejectionPolicy{});

  auto fresh_server = [&](bool paced) {
    return std::make_unique<serve::RecognitionServer>(
        registry, ServerOptionsFor(*config, collector, paced), SinkFor(collector));
  };

  // --- passes ---
  // Rounds, each a capacity burst then a paced segment, every one on
  // a fresh server and a fresh producer thread. On a shared host the speed
  // of the vCPUs a run lands on drifts by tens of percent over seconds; the
  // rounds spread each measurement over the whole run, and the medians keep
  // one slow stretch from deciding it.
  auto pass = [&](bool paced_pass, bool traced_pass) {
    if (server == nullptr) {
      server = fresh_server(paced_pass);
    }
    PassResult result;
    std::exception_ptr error;
    std::thread producer([&] {
      try {
        result = RunPass(load, *server, *registry, collector,
                         {paced_pass, traced_pass, paced_pass ? paced_s : cap_s});
      } catch (...) {
        error = std::current_exception();
      }
    });
    producer.join();
    server.reset();
    if (error) {
      std::rethrow_exception(error);
    }
    return result;
  };
  Passes cap;
  Passes cap_traced;
  Passes paced;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t rep = 1 + round; rep < config->setup_reps; rep += rounds) {
      set_up();  // timed and discarded; the run keeps serving the first
    }
    // Traced and untraced bursts swap order every round, so neither always
    // runs on the heels of a paced segment.
    if (traced && round % 2 == 1) {
      cap_traced.Add(pass(false, true));
    }
    cap.Add(pass(false, false));
    if (traced && round % 2 == 0) {
      cap_traced.Add(pass(false, true));
    }
    paced.Add(pass(true, traced));
  }
  ReplayResult replay;
  if (traced) {
    replay = RunReplay(load, *registry, origin, replay_s);
  }
  const double peak_rss_mb = PeakRssMb();
  setup_s.Finish();

  // --- validity and correctness ---
  const std::uint64_t divergences = cap.divergent_strokes + cap_traced.divergent_strokes +
                                    paced.divergent_strokes + replay.divergent_strokes;
  const bool lossless = cap.failed == 0 && cap_traced.failed == 0;
  const bool correct = divergences == 0 && lossless;
  const std::uint64_t attempted = cap.attempted + cap_traced.attempted + paced.attempted;
  const std::uint64_t failed = cap.failed + cap_traced.failed + paced.failed;
  const auto lag = paced.Windows([](const PassResult& p) { return &p.gen_lag_us; });
  const auto fire = paced.Windows([](const PassResult& p) { return &p.check.fire_us; });
  const auto end = paced.Windows([](const PassResult& p) { return &p.check.end_us; });
  const double gen_lag_p99 = MedianPercentile(lag, 0.99);
  // The producer fell behind when the typical event of the typical window
  // was submitted later than the latency limit. A host stall delays producer
  // and server alike and recovers; it raises the lag tail (reported) and the
  // latencies (measured from due times either way), not the typical lag.
  const double gen_lag_p50 = MedianPercentile(lag, 0.5);
  const bool paced_valid = gen_lag_p50 <= kLatencyLimitUs;
  const double failed_share =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  serve::ShardMetrics paced_totals;
  serve::ModelLifecycleMetrics paced_models;
  for (const PassResult& p : paced.runs) {
    paced_totals.Merge(p.totals);
    paced_models.Merge(p.models);
  }

  Report report;
  report.Info("env.simd_tier", linalg::simd::TierName(linalg::simd::ActiveTier()));
  report.Info("env.nproc", std::to_string(cores));
  report.Info("input.points_per_stroke",
              std::to_string(static_cast<double>(load.cycle_points) /
                             static_cast<double>(load.used_strokes)));
  report.Info("capacity.bursts_pts_per_s", cap.Rates());
  report.Info("check.divergences",
              std::to_string(divergences) + " (capacity " + std::to_string(cap.divergent_strokes) +
                  ", paced " + std::to_string(paced.divergent_strokes) + ", replay " +
                  std::to_string(replay.divergent_strokes) + ")");
  report.Info("check.strokes", "capacity " + std::to_string(cap.strokes) + ", paced " +
                                   std::to_string(paced.strokes) + " (tainted " +
                                   std::to_string(paced.tainted_strokes) + ")");
  report.Info("check.paced_losses",
              "shed " + std::to_string(paced_totals.events_shed) + ", deadline-expired " +
                  std::to_string(paced_totals.events_deadline_expired) + ", queue max depth " +
                  std::to_string(paced_totals.queue_max_depth));
  report.Info("check.paced_pass",
              std::string(paced_valid ? "valid" : "INVALID") + ": producer lag p50 " +
                  std::to_string(gen_lag_p50) + " us, p99 " + std::to_string(gen_lag_p99) +
                  " us, vs limit " +
                  std::to_string(kLatencyLimitUs) + " us " + WindowNote(lag, 0.99));

  if (!traced) {
    report.Add("setup_s", setup_s.Percentile(0.5), "s",
               "(median of " + std::to_string(setup_s.count()) + ")");
    const PassResult& median_burst = cap.MedianRate();
    report.Add("capacity_pts_per_s", median_burst.pts_per_s, "pts/s",
               "(median of " + std::to_string(cap.runs.size()) + " bursts; " +
                   std::to_string(median_burst.points) + " pts in " +
                   std::to_string(median_burst.wall_s) + " s)");
    report.Add("fire_p50_us", MedianPercentile(fire, 0.5), "us", WindowNote(fire, 0.5));
    report.Add("end_p50_us", MedianPercentile(end, 0.5), "us", WindowNote(end, 0.5));
    report.Add("slo_met_share",
               paced.expected_results > 0 ? static_cast<double>(paced.slo_met) /
                                                static_cast<double>(paced.expected_results)
                                          : 0.0,
               "share",
               "(" + std::to_string(paced.slo_met) + " of " +
                   std::to_string(paced.expected_results) + " within 1 ms)");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    // Printed, not in the JSON (see README.md): the p99s are dominated by
    // host scheduling stalls on a shared machine, failed_share is zero on a
    // healthy run, and the adapt latencies exist only on adapt_churn.
    report.Info("fire_p99_us", TailLine(fire));
    report.Info("end_p99_us", TailLine(end));
    report.Info("failed_share", std::to_string(failed_share) + " share (failed " +
                                    std::to_string(failed) + " of " + std::to_string(attempted) +
                                    " operations)");
    Samples adapt_us;
    for (const PassResult& p : paced.runs) {
      adapt_us.Append(p.adapt_us);
    }
    adapt_us.Finish();
    if (adapt_us.count() > 0) {
      report.Info("adapt_p50_us", std::to_string(adapt_us.Percentile(0.5)) + " us " +
                                      Counted(adapt_us));
      report.Info("adapt_p99_us", adapt_us.Beyond(0.99) >= 10
                                      ? std::to_string(adapt_us.Percentile(0.99)) + " us " +
                                            CountedTail(adapt_us, 0.99)
                                      : "not reported " + CountedTail(adapt_us, 0.99));
    } else {
      report.Info("adapt_p50_us", "n/a (no adapter on this workload)");
      report.Info("adapt_p99_us", "n/a (no adapter on this workload)");
    }
    // An invalid paced pass reports no latencies: the lines above are
    // printed for diagnosis, the JSON result is withheld.
    if (!paced_valid) {
      report.Print(correct, attempted, failed, /*json=*/false);
      std::fprintf(stderr, "perfbench: paced pass invalid (producer fell behind); latencies "
                           "not reported\n");
      return 3;
    }
    report.Print(correct, attempted, failed);
    return correct ? 0 : 1;
  }

  // --- traced run: per-layer metrics ---
  std::vector<const SpanLog*> logs = {&main_log};
  std::vector<const SpanLog*> producer_logs;
  std::vector<const SpanLog*> adapter_logs;
  for (const Passes* kind : {&cap_traced, &paced}) {
    for (const PassResult& p : kind->runs) {
      logs.push_back(&p.logs[0]);
      logs.push_back(&p.logs[1]);
      if (kind == &paced) {
        producer_logs.push_back(&p.logs[0]);
        adapter_logs.push_back(&p.logs[1]);
      }
    }
  }
  std::vector<const SpanLog*> sink_logs;
  for (const SpanLog& l : collector.sink_logs()) {
    logs.push_back(&l);
    sink_logs.push_back(&l);
  }
  logs.push_back(&replay.log);
  const Samples submit_ns = SpanDurations(producer_logs, "serve.submit");
  const Samples touch_submit_ns = SpanDurations(producer_logs, "serve.touch_submit");
  const Samples adapt_ns = SpanDurations(adapter_logs, "personalize.adapt_user");
  const auto& L = replay.layers;
  const std::uint64_t lookups = paced_models.user_cache_hits + paced_models.user_cache_misses;
  std::uint64_t routed_single = 0;
  std::uint64_t routed_touch = 0;
  for (const PassResult& p : paced.runs) {
    routed_single += p.touch.routed_single_stroke;
    routed_touch += p.touch.routed_touch;
  }

  report.Add("io.decode_ns_per_event", L[kNextFrame].NsPerUnit(), "ns");
  report.Add("io.bytes_per_point",
             static_cast<double>(load.cycle_bytes) / static_cast<double>(load.cycle_points),
             "bytes");
  report.Add("serve.submit_ns_p50", submit_ns.Percentile(0.5), "ns", Counted(submit_ns));
  report.Add("serve.submit_ns_p99", submit_ns.Percentile(0.99), "ns", CountedTail(submit_ns, 0.99));
  report.Add("serve.queue_wait_us_mean", paced.MeanStage("queue.wait") / 1000.0, "us");
  report.Add("serve.queue_max_depth", static_cast<double>(paced_totals.queue_max_depth), "count");
  report.Add("serve.event_ns_mean", cap_traced.MeanStage("serve.event"), "ns");
  report.Add("serve.session_lookup_ns", L[kGetOrCreate].NsPerCall(), "ns");
  report.Add("serve.sessions_created", static_cast<double>(paced_totals.sessions_created),
             "count");
  report.Add("serve.events_shed", static_cast<double>(paced_totals.events_shed), "count");
  report.Add("serve.events_deadline_expired",
             static_cast<double>(paced_totals.events_deadline_expired), "count");
  report.Add("features.add_point_ns", replay.features_ns_per_point, "ns");
  report.Add("eager.add_span_ns_per_point", L[kAddSpan].NsPerUnit(), "ns");
  report.Add("eager.fire_check_ns_per_point",
             L[kAddSpan].NsPerUnit() - replay.features_ns_per_point, "ns");
  report.Add("classify.classify_ns", L[kClassify].NsPerCall(), "ns");
  report.Add("classify.classify_nbest_ns", L[kClassifyNBest].NsPerCall(), "ns",
             Calls(L[kClassifyNBest]));
  report.Add("eager.fires", static_cast<double>(replay.fires), "count");
  report.Add("eager.fire_point_share", replay.fire_point_share, "share");
  report.Add("classify.nbest_deferred", static_cast<double>(replay.nbest_deferred), "count");
  report.Add("eager.train_s", eager_train_ns.Mean() / 1e9, "s", Counted(eager_train_ns));
  report.Add("classify.train_s", classify_train_ns.Mean() / 1e9, "s",
             Counted(classify_train_ns));
  report.Add("personalize.current_for_ns", L[kCurrentFor].NsPerCall(), "ns");
  report.Add("personalize.cache_hit_share",
             lookups > 0 ? static_cast<double>(paced_models.user_cache_hits) /
                               static_cast<double>(lookups)
                         : 0.0,
             "share");
  // A layer the workload does not exercise reads 0 with n=0: without the
  // adapter thread no adapts or materializations, without touch groups no
  // tracker, touch attributes or front end.
  report.Add("personalize.adapt_us_mean", adapt_ns.Mean() / 1000.0, "us", Counted(adapt_ns));
  report.Add("personalize.materialize_us_mean",
             paced.MeanStage("personalize.materialize") / 1000.0, "us");
  report.Add("personalize.materializations",
             static_cast<double>(paced_models.user_materializations), "count");
  report.Add("robust.track_us", L[kTrack].NsPerCall() / 1000.0, "us", Calls(L[kTrack]));
  report.Add("toolkit.touch_track_us", L[kTouchTrack].NsPerCall() / 1000.0, "us",
             Calls(L[kTouchTrack]));
  report.Add("serve.touch_submit_us_p50", touch_submit_ns.Percentile(0.5) / 1000.0, "us",
             Counted(touch_submit_ns));
  report.Add("serve.touch_routed_single", static_cast<double>(routed_single), "count");
  report.Add("serve.touch_routed_touch", static_cast<double>(routed_touch), "count");
  report.Add("bench.gen_lag_us_p99", gen_lag_p99, "us", WindowNote(lag, 0.99));
  report.Add("bench.sink_ns_mean", collector.SinkNsMean(), "ns");
  report.Add("bench.unattributed_share", replay.UnattributedShare(), "share");
  const double untraced_rate = cap.MedianRate().pts_per_s;
  const double traced_rate = cap_traced.MedianRate().pts_per_s;
  report.Add("bench.trace_overhead_pct",
             untraced_rate > 0.0 ? (untraced_rate - traced_rate) / untraced_rate * 100.0 : 0.0,
             "%", "(untraced " + std::to_string(untraced_rate) + " vs traced " +
                      std::to_string(traced_rate) + " pts/s, medians of " +
                      std::to_string(rounds) + " bursts)");
  report.Info("failed_share", std::to_string(failed_share));
  report.Info("peak_rss_mb", std::to_string(peak_rss_mb));
  std::uint64_t spans_dropped = 0;
  for (const SpanLog* l : logs) {
    spans_dropped += l->dropped();
  }
  report.Info("spans_dropped", std::to_string(spans_dropped) + " (past a log's capacity)");
  if (!args.spans_out.empty()) {
    WriteSpans(args.spans_out, logs);
    report.Info("spans_out", args.spans_out);
  }
  // The per-layer metrics hold no paced latencies, so a producer that fell
  // behind is reported (bench.gen_lag_us_p99, check.paced_pass) but does not
  // withhold them.
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <id>] [--spans-out <file>]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
