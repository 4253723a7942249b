// Per-stream scratch for the zero-allocation recognition kernel. One
// Workspace belongs to exactly one EagerStream (or other single-threaded
// caller) and is threaded by reference through EagerRecognizer ->
// GestureClassifier/Auc -> LinearClassifier, so the steady-state per-point
// loop performs no heap allocations: the feature snapshot, the masked
// projection, the Mahalanobis difference, and the score buffer all live
// here.
//
// Ownership rules (see docs/PERFORMANCE.md):
//   - the stream that owns the Workspace is the only writer; recognizers
//     never retain a pointer to it beyond a call;
//   - the fixed arrays never allocate; the score buffer is sized by
//     Prepare() on first use (warm-up) and only ever re-allocates if the
//     recognizer it serves changes shape — steady state is allocation-free;
//   - contents are scratch: every kernel call overwrites them, so nothing
//     here carries state between points.
//
// Thread-safety: none, by design — same single-ownership contract as
// EagerStream.
#ifndef GRANDMA_SRC_EAGER_WORKSPACE_H_
#define GRANDMA_SRC_EAGER_WORKSPACE_H_

#include <array>
#include <cstddef>
#include <vector>

#include "features/feature_vector.h"
#include "linalg/vec_view.h"

namespace grandma::eager {

struct Workspace {
  // Points per ingest chunk (EagerStream::AddSpan), fixed so the blocks
  // below never allocate.
  static constexpr std::size_t kBatchPoints = 16;

  // Raw 13-entry feature snapshot (FeatureExtractor::FeaturesInto target).
  std::array<double, features::kNumFeatures> features{};
  // Mask-projected features; the leading mask().count() entries are live.
  std::array<double, features::kNumFeatures> masked{};
  // Mahalanobis difference scratch (classifier dimension <= kNumFeatures).
  std::array<double, features::kNumFeatures> diff{};
  // Batched-chunk blocks: row r (kNumFeatures doubles apart) is point r's
  // feature snapshot / mask projection within the current chunk.
  alignas(64) std::array<double, kBatchPoints * features::kNumFeatures> feature_block{};
  alignas(64) std::array<double, kBatchPoints * features::kNumFeatures> masked_block{};
  // Full-classifier score buffer (C classes). The AUC's fire check stores
  // no scores (see Auc::UnambiguousView). Sized by Prepare(); steady state
  // never reallocates.
  std::vector<double> full_scores;

  // Ensures the score buffer matches the recognizer shape. Cheap when already
  // sized (one integer compare); allocates only on first use or when the
  // shape changed.
  void Prepare(std::size_t num_full_classes) {
    if (full_scores.size() != num_full_classes) {
      full_scores.resize(num_full_classes);
    }
  }

  linalg::MutVecView FeaturesView() { return linalg::ViewOf(features); }
  linalg::MutVecView MaskedView(std::size_t n) { return linalg::ViewOf(masked, n); }
  linalg::MutVecView DiffView(std::size_t n) { return linalg::ViewOf(diff, n); }
  linalg::MutVecView FullScoresView() {
    return linalg::MutVecView(full_scores.data(), full_scores.size());
  }
  // Feature-snapshot row r of the batched chunk (full kNumFeatures width).
  linalg::MutVecView FeatureRowView(std::size_t r) {
    assert(r < kBatchPoints);
    return linalg::MutVecView(feature_block.data() + r * features::kNumFeatures,
                              features::kNumFeatures);
  }
  // Mask-projection row r (leading n = mask.count() entries are live).
  linalg::MutVecView MaskedRowView(std::size_t r, std::size_t n) {
    assert(r < kBatchPoints && n <= features::kNumFeatures);
    return linalg::MutVecView(masked_block.data() + r * features::kNumFeatures, n);
  }
};

}  // namespace grandma::eager

#endif  // GRANDMA_SRC_EAGER_WORKSPACE_H_
