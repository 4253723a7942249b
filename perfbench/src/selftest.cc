// The benchmark's own test: the correctness check is not vacuous, and the
// program gives zero divergences on every workload.
//
//   1. For every workload (seed 1), a short capacity pass and a short paced
//      pass through RecognitionServer: every answer must equal the
//      single-threaded reference, and the lossless capacity pass must fail
//      no operation.
//   2. On the mouse_gdp paced pass, three kinds of bad answer are planted in
//      the delivered results — a flipped class id, a shifted fired_at, a
//      dropped kStrokeEnd result — and the checker must count each one as a
//      failed operation and a divergence. A stray result that matches no
//      stroke counts as a failure of its own pass only.
//
// Exit 0 when every expectation holds. Run it with
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "check.h"
#include "common.h"
#include "passes.h"
#include "serve/server.h"
#include "workload.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

// Plants one bad answer in a delivered slot and checks it is counted.
void ExpectCounted(const Load& load, Collector& collector, std::size_t blocks,
                   const PassCheck& clean, StrokeSlot& slot, void (*plant)(StrokeSlot&),
                   const std::string& what) {
  const StrokeSlot saved = slot;
  plant(slot);
  const PassCheck bad = CheckAnswers(load, collector, blocks, std::nullopt);
  slot = saved;
  Expect(bad.failed_ops == clean.failed_ops + 1 &&
             bad.divergent_strokes == clean.divergent_strokes + 1,
         what + " counts one failed operation and one divergence (failed " +
             std::to_string(clean.failed_ops) + " -> " + std::to_string(bad.failed_ops) + ")");
}

void PlantedAnswers(const Load& load, Collector& collector, const PassResult& paced) {
  const PassCheck clean = CheckAnswers(load, collector, paced.blocks, std::nullopt);
  Expect(clean.failed_ops == 0 && clean.divergent_strokes == 0,
         "re-checking the delivered answers finds nothing wrong");
  // Strokes of the first block (cycle 0: serve session == wire session).
  StrokeSlot* fired = nullptr;
  StrokeSlot* other = nullptr;
  StrokeSlot* third = nullptr;
  for (std::size_t ws = 0; ws < load.config->sessions_per_block && third == nullptr; ++ws) {
    for (serve::StrokeId k = 1; k <= load.config->max_strokes; ++k) {
      const PoolStroke& s = load.strokes[load.StrokeIndex(ws, k)];
      StrokeSlot* slot = collector.SlotFor(ws, k);
      if (!s.used || slot == nullptr) {
        continue;
      }
      if (fired == nullptr && s.ref.fired) {
        fired = slot;
      } else if (other == nullptr) {
        other = slot;
      } else if (third == nullptr) {
        third = slot;
      }
    }
  }
  if (fired == nullptr || other == nullptr || third == nullptr) {
    Expect(false, "the first block holds a fired stroke and two others");
    return;
  }
  ExpectCounted(load, collector, paced.blocks, clean, *other,
                [](StrokeSlot& s) { s.end.class_id ^= 1; }, "a flipped class id");
  ExpectCounted(load, collector, paced.blocks, clean, *fired,
                [](StrokeSlot& s) { s.fire.points_seen += 1; }, "a shifted fired_at");
  ExpectCounted(load, collector, paced.blocks, clean, *third,
                [](StrokeSlot& s) { s.end_results = 0; }, "a dropped kStrokeEnd result");

  // All three at once move failed_share off zero by exactly three operations.
  const StrokeSlot a = *other, b = *fired, c = *third;
  other->end.class_id ^= 1;
  fired->fire.points_seen += 1;
  third->end_results = 0;
  const PassCheck bad = CheckAnswers(load, collector, paced.blocks, std::nullopt);
  *other = a;
  *fired = b;
  *third = c;
  const double share = static_cast<double>(bad.failed_ops + paced.other_failed) /
                       static_cast<double>(paced.attempted);
  Expect(bad.failed_ops == 3 && share > 0.0,
         "three planted answers give failed_share " + std::to_string(share) + " (3 of " +
             std::to_string(paced.attempted) + ")");
}

// A result for no replayed stroke counts once, in the pass it arrived in.
void StrayResult(Collector& collector) {
  serve::RecognitionResult stray;
  stray.stroke = 0;  // no slot
  collector.OnResult(stray);
  const bool counted = collector.unexpected() == 1;
  collector.BeginPass(nullptr, false);
  Expect(counted && collector.unexpected() == 0,
         "a stray result counts in its own pass and not in the next");
}

void RunWorkload(const WorkloadConfig& config) {
  constexpr double kCapacitySeconds = 0.3;
  constexpr double kPacedSeconds = 0.6;
  Load load = MakeLoad(config, 1);
  SpanLog log("main", 0);
  const auto registry = BuildRegistry(load, log, Clock::now());
  ComputeReferences(load, *registry, classify::RejectionPolicy{});
  Collector collector(load, SlotsFor(load, kCapacitySeconds, kPacedSeconds), 0);

  PassResult cap;
  {
    serve::RecognitionServer server(registry, ServerOptionsFor(config, collector, false),
                                    SinkFor(collector));
    cap = RunPass(load, server, *registry, collector, {false, false, kCapacitySeconds});
  }
  Expect(cap.check.strokes > 0 && cap.check.divergent_strokes == 0 && cap.failed() == 0,
         config.name + " capacity pass: " + std::to_string(cap.check.strokes) +
             " strokes, 0 divergences, 0 failed");

  PassResult paced;
  {
    serve::RecognitionServer server(registry, ServerOptionsFor(config, collector, true),
                                    SinkFor(collector));
    paced = RunPass(load, server, *registry, collector, {true, false, kPacedSeconds});
  }
  Expect(paced.check.strokes > 0 && paced.check.divergent_strokes == 0,
         config.name + " paced pass: " + std::to_string(paced.check.strokes) +
             " strokes, 0 divergences");
  if (config.name == "mouse_gdp") {
    PlantedAnswers(load, collector, paced);
    StrayResult(collector);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  try {
    for (const perfbench::WorkloadConfig& config : perfbench::Workloads()) {
      perfbench::RunWorkload(config);
    }
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    return 1;
  }
  std::printf("%s (%d failed)\n", perfbench::g_failures == 0 ? "OK" : "FAILED",
              perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
