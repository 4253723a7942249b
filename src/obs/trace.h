// Span-based execution tracing for the recognition pipeline: this layer
// records *where time goes* while input events are processed.
//
// Design constraints, in order:
//   1. Zero heap allocations on the hot path. Every span lands in a
//      per-thread fixed-capacity ring buffer of POD Span records; the buffer
//      itself is acquired once per thread (warm-up) from a registry that
//      recycles buffers of exited threads.
//   2. Deterministic under the synth/event-queue harness. With the virtual
//      clock, timestamps are per-thread tick counters — two runs of the same
//      seeded workload produce byte-identical traces, which makes the trace
//      itself a correctness oracle (tests/obs_trace_replay_test.cc).
//   3. Compiles out entirely. Under -DGRANDMA_TRACING=OFF the TRACE_* macros
//      expand to nothing: no name registration, no enabled check, no code.
//   4. Race-free recording. Each buffer has exactly one writer (its owning
//      thread); records are published with a release store of the cursor.
//      Collectors (CollectAll) must run quiesced — after the traced threads
//      joined, which the serve layer's Shutdown() provides.
//
// Instrumentation vocabulary:
//   TRACE_SPAN("stage.name")        — coarse RAII span, always recorded when
//                                     tracing is enabled at runtime;
//   TRACE_SPAN_FINE("stage.name")   — per-point inner stage, recorded only at
//                                     Detail::kFine (keeps default-enabled
//                                     overhead within the 10% budget);
//   TRACE_SESSION_SCOPE(id)         — tags nested spans with a session id;
//   TRACE_MANUAL_SPAN(name, ns, id) — cross-thread duration measured
//                                     externally (the queue enqueue->dequeue
//                                     wait), recorded by the consumer.
#ifndef GRANDMA_SRC_OBS_TRACE_H_
#define GRANDMA_SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace grandma::obs {

// True when the TRACE_* macros expand to real instrumentation (the
// GRANDMA_TRACING cmake option). Tests use this to assert either direction:
// spans exist, or the macros provably vanished.
#if defined(GRANDMA_TRACING_ENABLED) && GRANDMA_TRACING_ENABLED
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

using NameId = std::uint32_t;

// Fixed capacities: the whole subsystem is sized at compile time so that
// recording never allocates. 64 distinct span names is ~4x what the pipeline
// uses; 16384 retained spans per thread covers several thousand points of
// fine-detail tracing before the ring wraps (wrapping drops the oldest
// records, never blocks or allocates).
inline constexpr std::size_t kMaxNames = 64;
inline constexpr std::size_t kSpanCapacity = 16384;
inline constexpr std::size_t kStageBuckets = 256;

// One completed span. POD, 48 bytes, written exactly once at span close.
struct Span {
  NameId name_id = 0;
  // Nesting depth at open (0 = top level on its thread).
  std::uint32_t depth = 0;
  // Session tag inherited from the innermost TRACE_SESSION_SCOPE (0 if none).
  std::uint64_t session = 0;
  // Per-thread record index, assigned at close; strictly increasing.
  std::uint64_t seq = 0;
  // Clock ticks: nanoseconds since an arbitrary epoch (real clock) or
  // per-thread virtual ticks (virtual clock). t_end >= t_start always.
  std::uint64_t t_start = 0;
  std::uint64_t t_end = 0;
};

enum class ClockMode : std::uint8_t {
  kReal,     // steady_clock nanoseconds — wall-time profiling
  kVirtual,  // per-thread tick counter — deterministic replay / golden traces
};

enum class Detail : std::uint8_t {
  kCoarse,  // TRACE_SPAN only (default; per-point cost is one span)
  kFine,    // also TRACE_SPAN_FINE (per-point inner stages)
};

// Per-thread span storage. The owning thread is the only writer of `slots`,
// `depth`, `current_session`, and `virtual_tick`; `cursor` publishes records
// to collectors with release/acquire. Heap-allocated once by the registry and
// recycled when the owning thread exits (see trace.cc).
struct TraceBuffer {
  std::array<Span, kSpanCapacity> slots{};
  // Records ever written (monotonic). slot(seq) = slots[seq % kSpanCapacity];
  // only the last min(cursor, kSpanCapacity) records are retained.
  std::atomic<std::uint64_t> cursor{0};
  std::uint32_t depth = 0;
  std::uint64_t current_session = 0;
  std::uint64_t virtual_tick = 0;
  // Registration-order identity of the owning thread (fresh on every acquire,
  // including buffer reuse).
  std::uint32_t thread_index = 0;
  std::atomic<bool> owner_alive{true};
};

namespace internal {

// Runtime switches, relaxed-loaded on the hot path. Inline so the enabled
// check compiles to one load + branch at every instrumentation site.
inline std::atomic<bool> g_enabled{false};
inline std::atomic<bool> g_fine{false};
inline std::atomic<bool> g_virtual{false};

inline thread_local TraceBuffer* tls_buffer = nullptr;

// Cold path: registers (or recycles) a buffer for this thread. Defined in
// trace.cc; allocates at most once per thread lifetime.
TraceBuffer& AcquireThreadBuffer();

inline TraceBuffer& ThisThreadBuffer() {
  TraceBuffer* b = tls_buffer;
  return b != nullptr ? *b : AcquireThreadBuffer();
}

inline std::uint64_t TickNow(TraceBuffer& buf) {
  if (g_virtual.load(std::memory_order_relaxed)) {
    return ++buf.virtual_tick;
  }
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline void WriteSpan(TraceBuffer& buf, NameId id, std::uint32_t depth, std::uint64_t t_start,
                      std::uint64_t t_end) {
  const std::uint64_t seq = buf.cursor.load(std::memory_order_relaxed);
  Span& s = buf.slots[seq % kSpanCapacity];
  s.name_id = id;
  s.depth = depth;
  s.session = buf.current_session;
  s.seq = seq;
  s.t_start = t_start;
  s.t_end = t_end;
  buf.cursor.store(seq + 1, std::memory_order_release);
}

// Quarter-log2 duration buckets: exact for 0..15, then four buckets per
// power of two (growth ~1.19x) up to 2^63. All bit ops — no float math on
// the recording path, unlike serve's log()-based histogram.
inline std::uint32_t BucketOf(std::uint64_t v) {
  if (v < 16) {
    return static_cast<std::uint32_t>(v);
  }
  const int k = 63 - std::countl_zero(v);
  return static_cast<std::uint32_t>(16 + 4 * (k - 4) + ((v >> (k - 2)) & 3));
}

// Inclusive upper bound of bucket `b` (inverse of BucketOf).
inline std::uint64_t BucketUpperBound(std::uint32_t b) {
  if (b < 16) {
    return b;
  }
  const std::uint32_t k = 4 + (b - 16) / 4;
  const std::uint64_t frac = (b - 16) % 4;
  return ((frac + 5) << (k - 2)) - 1;
}

// Process-wide per-stage duration histograms, indexed by NameId. Relaxed
// atomic increments: many recording threads, snapshot readers tolerate a
// point-in-time view. ~130 KB of .bss.
//
// Deliberately a bare bucket array: recording is exactly ONE relaxed RMW per
// span close (the 10% per-point overhead budget in bench/trace_profile.cc
// has no room for separate count/total counters). Count, percentiles, and
// the mean are all derived from the buckets at snapshot time
// (obs::SnapshotStages), which makes every derived statistic a conservative
// bucket-upper-bound figure.
struct StageHistogram {
  std::array<std::atomic<std::uint64_t>, kStageBuckets> buckets{};
};

inline std::array<StageHistogram, kMaxNames> g_stages{};

inline void RecordStage(NameId id, std::uint64_t duration) {
  g_stages[id].buckets[BucketOf(duration)].fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

// --- Runtime control ------------------------------------------------------
// All safe to call from any thread, but flipping them mid-workload makes the
// trace a mixture; tests bracket workloads with enable/disable.

inline void EnableTracing(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}
inline bool TracingEnabled() { return internal::g_enabled.load(std::memory_order_relaxed); }

inline void SetDetail(Detail d) {
  internal::g_fine.store(d == Detail::kFine, std::memory_order_relaxed);
}
inline Detail CurrentDetail() {
  return internal::g_fine.load(std::memory_order_relaxed) ? Detail::kFine : Detail::kCoarse;
}

inline void SetClockMode(ClockMode m) {
  internal::g_virtual.store(m == ClockMode::kVirtual, std::memory_order_relaxed);
}
inline ClockMode CurrentClockMode() {
  return internal::g_virtual.load(std::memory_order_relaxed) ? ClockMode::kVirtual
                                                             : ClockMode::kReal;
}

// Interns a span-name literal; the same string from any site returns the same
// id. The string is NOT copied — pass string literals only. Throws
// std::length_error past kMaxNames. Cold (sites cache the id in a static).
NameId RegisterName(const char* literal);
const char* NameOf(NameId id);
std::size_t NumNames();

// Zeroes every registered buffer (cursor, depth, session, virtual clock) and
// the stage histograms, and makes buffers of exited threads reusable.
// Contract: no thread may be recording concurrently (quiesced).
void ResetAll();

// The retained spans of one thread, oldest first, in seq order.
struct ThreadTrace {
  std::uint32_t thread_index = 0;
  // Records overwritten by ring wrap (cursor - kSpanCapacity when positive).
  std::uint64_t dropped = 0;
  std::vector<Span> spans;
};

// Snapshot of every thread's retained spans (threads with none are skipped),
// sorted by thread_index. Contract: writers quiesced — call after the traced
// threads joined (serve::RecognitionServer::Shutdown) or from the only
// tracing thread.
std::vector<ThreadTrace> CollectAll();

// --- RAII recording -------------------------------------------------------

class ScopedSpan {
 public:
  struct FineTag {};

  explicit ScopedSpan(NameId id) {
    if (internal::g_enabled.load(std::memory_order_relaxed)) {
      Open(id);
    } else {
      buf_ = nullptr;
    }
  }

  ScopedSpan(NameId id, FineTag) {
    if (internal::g_enabled.load(std::memory_order_relaxed) &&
        internal::g_fine.load(std::memory_order_relaxed)) {
      Open(id);
    } else {
      buf_ = nullptr;
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (buf_ == nullptr) {
      return;
    }
    const std::uint64_t t_end = internal::TickNow(*buf_);
    --buf_->depth;
    internal::WriteSpan(*buf_, id_, depth_, t_start_, t_end);
    internal::RecordStage(id_, t_end - t_start_);
  }

 private:
  void Open(NameId id) {
    buf_ = &internal::ThisThreadBuffer();
    id_ = id;
    depth_ = buf_->depth++;
    t_start_ = internal::TickNow(*buf_);
  }

  TraceBuffer* buf_;
  NameId id_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t t_start_ = 0;
};

// Tags every span recorded on this thread inside the scope with `session`.
class SessionScope {
 public:
  explicit SessionScope(std::uint64_t session) {
    if (!internal::g_enabled.load(std::memory_order_relaxed)) {
      buf_ = nullptr;
      return;
    }
    buf_ = &internal::ThisThreadBuffer();
    prev_ = buf_->current_session;
    buf_->current_session = session;
  }

  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

  ~SessionScope() {
    if (buf_ != nullptr) {
      buf_->current_session = prev_;
    }
  }

 private:
  TraceBuffer* buf_;
  std::uint64_t prev_ = 0;
};

// Records a span whose duration was measured externally (e.g. the
// enqueue->dequeue wait, timed across threads with the real clock by the
// server). Under the real clock the span is back-dated by `duration_ns`;
// under the virtual clock it is recorded at the consumer's current tick with
// zero tick extent (cross-thread tick arithmetic would be meaningless) while
// the histogram still accumulates the real nanoseconds.
inline void RecordManualSpan(NameId id, std::uint64_t duration_ns, std::uint64_t session) {
  if (!internal::g_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  TraceBuffer& buf = internal::ThisThreadBuffer();
  const std::uint64_t t_end = internal::TickNow(buf);
  const std::uint64_t t_start = internal::g_virtual.load(std::memory_order_relaxed)
                                    ? t_end
                                    : (duration_ns <= t_end ? t_end - duration_ns : 0);
  const std::uint64_t saved = buf.current_session;
  buf.current_session = session;
  internal::WriteSpan(buf, id, buf.depth, t_start, t_end);
  buf.current_session = saved;
  internal::RecordStage(id, duration_ns);
}

}  // namespace grandma::obs

// --- Instrumentation macros ----------------------------------------------
// Each site caches its interned NameId in a function-local static (one guard
// load per pass after the first), then opens an RAII span. Under
// GRANDMA_TRACING=OFF every macro is a no-op statement and the names are
// never registered — the hot libraries contain no tracing code at all.

#define GRANDMA_OBS_CONCAT_(a, b) a##b
#define GRANDMA_OBS_CONCAT(a, b) GRANDMA_OBS_CONCAT_(a, b)

#if defined(GRANDMA_TRACING_ENABLED) && GRANDMA_TRACING_ENABLED

#define TRACE_SPAN(name_literal)                                                      \
  static const ::grandma::obs::NameId GRANDMA_OBS_CONCAT(grandma_obs_name_,          \
                                                         __LINE__) =                 \
      ::grandma::obs::RegisterName(name_literal);                                    \
  const ::grandma::obs::ScopedSpan GRANDMA_OBS_CONCAT(grandma_obs_span_, __LINE__)(  \
      GRANDMA_OBS_CONCAT(grandma_obs_name_, __LINE__))

#define TRACE_SPAN_FINE(name_literal)                                                \
  static const ::grandma::obs::NameId GRANDMA_OBS_CONCAT(grandma_obs_name_,          \
                                                         __LINE__) =                 \
      ::grandma::obs::RegisterName(name_literal);                                    \
  const ::grandma::obs::ScopedSpan GRANDMA_OBS_CONCAT(grandma_obs_span_, __LINE__)(  \
      GRANDMA_OBS_CONCAT(grandma_obs_name_, __LINE__),                               \
      ::grandma::obs::ScopedSpan::FineTag{})

#define TRACE_SESSION_SCOPE(session_id)                                              \
  const ::grandma::obs::SessionScope GRANDMA_OBS_CONCAT(grandma_obs_sess_,           \
                                                        __LINE__)(session_id)

#define TRACE_MANUAL_SPAN(name_literal, duration_ns, session_id)                     \
  do {                                                                               \
    static const ::grandma::obs::NameId grandma_obs_manual_name =                    \
        ::grandma::obs::RegisterName(name_literal);                                  \
    ::grandma::obs::RecordManualSpan(grandma_obs_manual_name, (duration_ns),         \
                                     (session_id));                                  \
  } while (0)

#else  // tracing compiled out: the macros vanish.

#define TRACE_SPAN(name_literal) static_cast<void>(0)
#define TRACE_SPAN_FINE(name_literal) static_cast<void>(0)
#define TRACE_SESSION_SCOPE(session_id) static_cast<void>(0)
#define TRACE_MANUAL_SPAN(name_literal, duration_ns, session_id) static_cast<void>(0)

#endif  // GRANDMA_TRACING_ENABLED

#endif  // GRANDMA_SRC_OBS_TRACE_H_
