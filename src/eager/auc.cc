#include "eager/auc.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace grandma::eager {

AucTrainReport Auc::Train(const SubgesturePartition& partition, const AucOptions& options) {
  AucTrainReport report;
  sets_.clear();
  num_complete_ = 0;
  linear_ = classify::LinearClassifier();

  // Gather the non-empty sets into a dense AUC class list; complete sets
  // first, then incomplete, each remembering its full-classifier class.
  classify::FeatureTrainingSet data;
  std::size_t next_id = 0;
  bool any_incomplete = false;
  for (classify::ClassId c = 0; c < partition.num_classes(); ++c) {
    if (partition.complete_sets[c].empty()) {
      continue;
    }
    sets_.push_back(SetInfo{/*complete=*/true, c});
    ++num_complete_;
    for (const LabeledSubgesture& sub : partition.complete_sets[c]) {
      data.Add(next_id, sub.features);
    }
    ++next_id;
  }
  for (classify::ClassId c = 0; c < partition.num_classes(); ++c) {
    if (partition.incomplete_sets[c].empty()) {
      continue;
    }
    any_incomplete = true;
    sets_.push_back(SetInfo{/*complete=*/false, c});
    for (const LabeledSubgesture& sub : partition.incomplete_sets[c]) {
      data.Add(next_id, sub.features);
    }
    ++next_id;
  }
  if (num_complete_ == 0 && !any_incomplete) {
    throw std::invalid_argument("Auc::Train: empty partition");
  }
  if (!any_incomplete) {
    mode_ = Mode::kAlwaysUnambiguous;
    report.degenerate = true;
    return report;
  }
  if (num_complete_ == 0) {
    mode_ = Mode::kAlwaysAmbiguous;
    report.degenerate = true;
    return report;
  }

  report.ridge_used = linear_.Train(data);
  mode_ = Mode::kNormal;

  // Conservative bias: ambiguous five times more likely a priori.
  for (classify::ClassId k = 0; k < sets_.size(); ++k) {
    if (!sets_[k].complete) {
      linear_.AdjustBias(k, options.ambiguous_bias);
    }
  }

  // Tweak pass: no incomplete training subgesture may be classified into a
  // complete set (that is the "serious mistake" — it would fire eager
  // recognition on an ambiguous prefix). Lower offending complete-class
  // constants until clean or the pass budget runs out.
  for (std::size_t pass = 0; pass < options.max_tweak_passes; ++pass) {
    ++report.tweak_passes;
    std::size_t adjustments = 0;
    for (classify::ClassId c = 0; c < partition.num_classes(); ++c) {
      for (const LabeledSubgesture& sub : partition.incomplete_sets[c]) {
        const std::vector<double> scores = linear_.Evaluate(sub.features);
        classify::ClassId winner = 0;
        for (classify::ClassId k = 1; k < scores.size(); ++k) {
          if (scores[k] > scores[winner]) {
            winner = k;
          }
        }
        if (!sets_[winner].complete) {
          continue;
        }
        // Best incomplete score: the target the winner must drop below.
        double best_incomplete = 0.0;
        bool first = true;
        for (classify::ClassId k = 0; k < scores.size(); ++k) {
          if (sets_[k].complete) {
            continue;
          }
          if (first || scores[k] > best_incomplete) {
            best_incomplete = scores[k];
            first = false;
          }
        }
        const double gap = scores[winner] - best_incomplete;
        const double delta = gap * (1.0 + options.tweak_margin) + 1e-9;
        linear_.AdjustBias(winner, -delta);
        ++adjustments;
      }
    }
    report.tweak_adjustments += adjustments;
    if (adjustments == 0) {
      return report;
    }
  }
  report.converged = false;
  return report;
}

bool Auc::Unambiguous(const linalg::Vector& masked_features) const {
  return UnambiguousView(masked_features.view());
}

bool Auc::UnambiguousView(linalg::VecView masked_features) const {
  switch (mode_) {
    case Mode::kUntrained:
      throw std::logic_error("Auc::Unambiguous before Train");
    case Mode::kAlwaysAmbiguous:
      return false;
    case Mode::kAlwaysUnambiguous:
      return true;
    case Mode::kNormal:
      break;
  }
  // Same answer as evaluate + argmax + sets_[winner].complete on every tier
  // (see simd::EvaluateArgMaxInPrefix).
  return linear_.EvaluateWinnerInPrefix(masked_features, num_complete_);
}

std::size_t Auc::FirstUnambiguous(const double* masked_rows, std::size_t batch,
                                  std::size_t stride) const {
  switch (mode_) {
    case Mode::kUntrained:
      throw std::logic_error("Auc::Unambiguous before Train");
    case Mode::kAlwaysAmbiguous:
      return kNone;
    case Mode::kAlwaysUnambiguous:
      return batch > 0 ? 0 : kNone;
    case Mode::kNormal:
      break;
  }
  const std::size_t dim = linear_.dimension();
  for (std::size_t r = 0; r < batch; ++r) {
    if (linear_.EvaluateWinnerInPrefix(linalg::VecView(masked_rows + r * stride, dim),
                                       num_complete_)) {
      return r;
    }
  }
  return kNone;
}

Auc Auc::FromParameters(Mode mode, classify::LinearClassifier linear,
                        std::vector<SetInfo> sets) {
  if (mode == Mode::kNormal && linear.num_classes() != sets.size()) {
    throw std::invalid_argument("Auc::FromParameters: classifier/set count mismatch");
  }
  // order[k] is the persisted id of the set that lands at id k.
  std::vector<std::size_t> order(sets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_partition(order.begin(), order.end(),
                        [&sets](std::size_t k) { return sets[k].complete; });

  Auc out;
  out.mode_ = mode;
  for (std::size_t k : order) {
    out.sets_.push_back(sets[k]);
    if (sets[k].complete) {
      ++out.num_complete_;
    }
  }
  if (mode == Mode::kNormal) {
    std::vector<linalg::Vector> weights;
    std::vector<double> biases;
    std::vector<linalg::Vector> means;
    for (std::size_t k : order) {
      weights.push_back(linear.weights(k));
      biases.push_back(linear.bias(k));
      means.push_back(linear.mean(k));
    }
    linear = classify::LinearClassifier::FromParameters(
        std::move(weights), std::move(biases), std::move(means), linear.inverse_covariance());
  }
  out.linear_ = std::move(linear);
  return out;
}

classify::Classification Auc::Classify(const linalg::Vector& masked_features) const {
  if (mode_ != Mode::kNormal) {
    throw std::logic_error("Auc::Classify is only meaningful in normal mode");
  }
  return linear_.Classify(masked_features);
}

}  // namespace grandma::eager
