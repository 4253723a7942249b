// Deterministic fault injection: a decorator over the synthetic gesture
// generator (src/synth) and the input-event replay path that damages
// strokes the way misbehaving hardware does — dropped events, timestamp
// jitter and reordering, coordinate spikes, non-finite samples, stuck
// points, truncation. Seeded, so every test and bench can replay the exact
// same fault load and assert on the FaultRecord it produces.
#ifndef GRANDMA_SRC_ROBUST_FAULT_INJECTOR_H_
#define GRANDMA_SRC_ROBUST_FAULT_INJECTOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "geom/contact.h"
#include "geom/gesture.h"
#include "toolkit/event.h"

namespace grandma::robust {

enum class FaultKind : std::size_t {
  // --- point-level: damage inside one stroke ---
  kDropPoints = 0,      // lose 1-3 interior samples (event-queue overflow)
  kTimestampJitter,     // +-jitter on a run of timestamps; may reorder
  kDuplicateTimestamp,  // a stuck clock: t[i+1] == t[i]
  kCoordinateSpike,     // one sample teleports thousands of px away
  kNonFinite,           // one coordinate becomes NaN or Inf
  kStuckPoint,          // one sample repeats several times, clock frozen
  kTruncate,            // the tail of the stroke never arrives
  // --- contact-level: damage to a multi-touch group's lifecycle ---
  kContactBounce,       // up/down chatter: one contact splits into two within
                        // the debounce window (libinput evdev-debounce)
  kPalmTouch,           // a large-area short-lived spurious contact lands
  kFingerCountChange,   // an extra contact joins mid-gesture
  kContactIdSwap,       // two concurrent contacts swap slot ids mid-stream
};
inline constexpr std::size_t kNumPointFaultKinds = 7;
inline constexpr std::size_t kNumFaultKinds = 11;

const char* FaultKindName(FaultKind kind);

// Whether a fault of this kind is *repairable* — the validator/tracker can
// restore a classifiable stroke or group (spikes dropped, timestamps clamped,
// chatter stitched, palms rejected, crossed ids swapped back) — or only
// *degrading*: the data is gone (dropped/truncated samples) and the stroke
// survives in a lossy form. The fault-sweep accounting depends on this split.
bool FaultKindRepairable(FaultKind kind);

// True for the kinds that only make sense on a ContactGroup (they alter the
// set of contacts rather than the points of one stroke). Corrupt()/
// CorruptTrace() never apply these; CorruptContacts() applies both levels.
bool FaultKindContactLevel(FaultKind kind);

struct FaultInjectorOptions {
  // Per-stroke probability that any faults are injected at all.
  double fault_rate = 0.1;
  // When a stroke is selected, 1..max_faults_per_stroke distinct kinds fire.
  std::size_t max_faults_per_stroke = 2;
  // Per-kind enable switches (indexed by FaultKind).
  std::array<bool, kNumFaultKinds> enabled = {true, true, true, true, true, true,
                                              true, true, true, true, true};

  double timestamp_jitter_ms = 40.0;   // magnitude for kTimestampJitter
  double spike_distance = 5000.0;      // offset for kCoordinateSpike
  std::size_t stuck_repeats = 4;       // copies inserted by kStuckPoint

  // kContactBounce: the released-and-relanded contact reappears after this
  // many milliseconds (uniform in (0, bounce_gap_ms]); kept under the
  // tracker's default debounce window so the chatter is stitchable.
  double bounce_gap_ms = 18.0;
  // kPalmTouch: area of the spurious contact (uniform in [1, 2] times this —
  // well above any fingertip) and the lifetime cap that makes it short-lived.
  double palm_area = 400.0;
  double palm_duration_ms = 120.0;
  // How far from the gesture's bounding box the palm lands.
  double palm_offset_px = 120.0;
  // kFingerCountChange: the joining contact lands this far into the group's
  // lifetime (fraction, uniform in [this, 0.9]); well past any legitimate
  // start stagger.
  double late_join_fraction = 0.5;
  // kContactIdSwap: minimum separation between the two contacts at the swap
  // instant. Two-finger synth gestures run 30-120px apart — under
  // ContactPolicy::id_swap_jump_px (200), so an injected cross between them
  // would produce seam jumps too small for the tracker's un-cross pass to
  // detect and surface as plain degradation instead of exercising the
  // repair. When the pair is closer than this, the injector translates one
  // contact's whole stroke outward until the crossed tails jump at least
  // this far. Keep it above the tracker policy's id_swap_jump_px.
  double id_swap_min_separation_px = 250.0;
};

// What one injector instance has done so far.
struct FaultRecord {
  std::array<std::uint64_t, kNumFaultKinds> counts{};
  std::uint64_t strokes_seen = 0;
  std::uint64_t strokes_faulted = 0;

  std::uint64_t total_faults() const;
  std::string ToJson() const;
};

// Per-stroke outcome of one Corrupt() call.
struct InjectedFaults {
  std::array<std::uint8_t, kNumFaultKinds> applied{};
  bool any() const;
  // True when at least one fault fired and every fired fault is repairable.
  bool only_repairable() const;
};

class FaultInjector {
 public:
  FaultInjector(const FaultInjectorOptions& options, std::uint64_t seed)
      : options_(options), engine_(seed) {}

  // Damages one gesture (the synth decoration point). Returns the corrupted
  // stroke; `injected` (optional) reports which kinds fired on this stroke.
  geom::Gesture Corrupt(const geom::Gesture& g, InjectedFaults* injected = nullptr);

  // Damages the point-carrying events of an input trace (the playback
  // decoration point). The mouse-down/up bracketing is rebuilt around the
  // surviving points so replay still forms a gesture; timer events are
  // discarded (replay regenerates ticks from the gaps).
  std::vector<toolkit::InputEvent> CorruptTrace(const std::vector<toolkit::InputEvent>& trace,
                                                InjectedFaults* injected = nullptr);

  // Damages one multi-contact group (the contact-synth decoration point).
  // Both fault levels apply: contact-level kinds alter the set of contacts
  // (chatter splits, palm landings, late joiners, id swaps); point-level
  // kinds damage the points of one randomly chosen contact. A group counts
  // as one "stroke" in the FaultRecord.
  geom::ContactGroup CorruptContacts(const geom::ContactGroup& group,
                                     InjectedFaults* injected = nullptr);

  const FaultRecord& record() const { return record_; }
  void ResetRecord() { record_ = FaultRecord{}; }
  const FaultInjectorOptions& options() const { return options_; }

 private:
  // Applies point-level faults to a raw point vector; shared by the stroke
  // and trace decoration points (contact-level kinds are skipped there).
  void CorruptPoints(std::vector<geom::TimedPoint>& pts, InjectedFaults& injected);
  void ApplyFault(FaultKind kind, std::vector<geom::TimedPoint>& pts);
  // Contact-level damage; returns true when the group actually changed.
  bool ApplyContactFault(FaultKind kind, geom::ContactGroup& group);
  // The enabled kinds, optionally restricted to point-level ones, in a
  // freshly shuffled order.
  std::vector<FaultKind> ShuffledKinds(bool point_level_only);

  double Uniform(double lo, double hi);
  std::size_t Index(std::size_t n);  // uniform in [0, n)

  FaultInjectorOptions options_;
  std::mt19937_64 engine_;
  FaultRecord record_;
};

}  // namespace grandma::robust

#endif  // GRANDMA_SRC_ROBUST_FAULT_INJECTOR_H_
