#include "classify/linear_classifier.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "classify/training_set.h"
#include "linalg/vec_view.h"

namespace grandma::classify {
namespace {

// Two well-separated 2-D Gaussian-ish clusters.
FeatureTrainingSet TwoClusters() {
  FeatureTrainingSet data(2);
  const double a[][2] = {{0.0, 0.0}, {1.0, 0.5}, {-0.5, 1.0}, {0.5, -1.0}, {0.2, 0.3}};
  const double b[][2] = {{10.0, 10.0}, {11.0, 10.5}, {9.5, 11.0}, {10.5, 9.0}, {10.2, 10.3}};
  for (const auto& p : a) {
    data.Add(0, linalg::Vector{p[0], p[1]});
  }
  for (const auto& p : b) {
    data.Add(1, linalg::Vector{p[0], p[1]});
  }
  return data;
}

TEST(LinearClassifierTest, SeparatesTwoClusters) {
  LinearClassifier c;
  const double ridge = c.Train(TwoClusters());
  EXPECT_DOUBLE_EQ(ridge, 0.0);
  EXPECT_TRUE(c.trained());
  EXPECT_EQ(c.num_classes(), 2u);
  EXPECT_EQ(c.dimension(), 2u);
  EXPECT_EQ(c.Classify(linalg::Vector{0.1, 0.1}).class_id, 0u);
  EXPECT_EQ(c.Classify(linalg::Vector{10.1, 9.9}).class_id, 1u);
}

TEST(LinearClassifierTest, DecisionBoundaryPassesThroughMeanMidpoint) {
  LinearClassifier c;
  c.Train(TwoClusters());
  // With w_c = Sigma^-1 mu_c and w_c0 = -1/2 mu_c^T Sigma^-1 mu_c, the two
  // scores are exactly equal at the midpoint of the class means.
  const linalg::Vector midpoint = 0.5 * (c.mean(0) + c.mean(1));
  const auto scores = c.Evaluate(midpoint);
  EXPECT_NEAR(scores[0], scores[1], 1e-6 * (1.0 + std::abs(scores[0])));
}

TEST(LinearClassifierTest, ProbabilityNearOneFarFromBoundaryAndHalfAtIt) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const Classification r = c.Classify(linalg::Vector{0.0, 0.0});
  EXPECT_GT(r.probability, 0.99);
  const linalg::Vector midpoint = 0.5 * (c.mean(0) + c.mean(1));
  const Classification mid = c.Classify(midpoint);
  EXPECT_NEAR(mid.probability, 0.5, 1e-6);
}

TEST(LinearClassifierTest, MahalanobisSmallAtMeanLargeFarAway) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const double at_mean = c.MahalanobisSquared(c.mean(0), 0);
  EXPECT_NEAR(at_mean, 0.0, 1e-9);
  const double far = c.MahalanobisSquared(linalg::Vector{100.0, -100.0}, 0);
  EXPECT_GT(far, 100.0);
}

TEST(LinearClassifierTest, BiasAdjustmentShiftsDecision) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const linalg::Vector midpoint{5.1, 5.1};
  // Bias class 0 heavily: midpoint now classifies 0.
  c.AdjustBias(0, 100.0);
  EXPECT_EQ(c.Classify(midpoint).class_id, 0u);
  c.AdjustBias(0, -200.0);
  EXPECT_EQ(c.Classify(midpoint).class_id, 1u);
}

TEST(LinearClassifierTest, WeightsMatchClosedForm) {
  LinearClassifier c;
  c.Train(TwoClusters());
  // w_c = Sigma^-1 mu_c ; w_c0 = -1/2 mu_c . w_c.
  for (ClassId k = 0; k < 2; ++k) {
    const linalg::Vector expected = linalg::Multiply(c.inverse_covariance(), c.mean(k));
    EXPECT_TRUE(AlmostEqual(c.weights(k), expected, 1e-9));
    EXPECT_NEAR(c.bias(k), -0.5 * linalg::Dot(c.weights(k), c.mean(k)), 1e-9);
  }
}

TEST(LinearClassifierTest, SingularCovarianceIsRepaired) {
  // A constant second feature makes the pooled covariance singular.
  FeatureTrainingSet data(2);
  data.Add(0, linalg::Vector{0.0, 5.0});
  data.Add(0, linalg::Vector{1.0, 5.0});
  data.Add(1, linalg::Vector{10.0, 5.0});
  data.Add(1, linalg::Vector{11.0, 5.0});
  LinearClassifier c;
  const double ridge = c.Train(data);
  EXPECT_GT(ridge, 0.0);
  EXPECT_EQ(c.Classify(linalg::Vector{0.5, 5.0}).class_id, 0u);
  EXPECT_EQ(c.Classify(linalg::Vector{10.5, 5.0}).class_id, 1u);
}

TEST(LinearClassifierTest, TrainingValidation) {
  LinearClassifier c;
  FeatureTrainingSet empty;
  EXPECT_THROW(c.Train(empty), std::invalid_argument);

  FeatureTrainingSet one_class(1);
  one_class.Add(0, linalg::Vector{1.0});
  EXPECT_THROW(c.Train(one_class), std::invalid_argument);

  // Two classes, one example each: no covariance degrees of freedom.
  FeatureTrainingSet starved(2);
  starved.Add(0, linalg::Vector{1.0});
  starved.Add(1, linalg::Vector{2.0});
  EXPECT_THROW(c.Train(starved), std::invalid_argument);
}

TEST(LinearClassifierTest, UsesBeforeTrainingThrow) {
  LinearClassifier c;
  EXPECT_THROW(c.Evaluate(linalg::Vector{1.0}), std::logic_error);
  EXPECT_THROW(c.MahalanobisSquaredBetween(linalg::Vector{1.0}, linalg::Vector{1.0}),
               std::logic_error);
}

TEST(RecognitionProbabilityTest, UniformScoresGiveOneOverC) {
  const std::vector<double> scores{3.0, 3.0, 3.0, 3.0};
  EXPECT_NEAR(RecognitionProbability(scores, 0), 0.25, 1e-12);
}

TEST(RecognitionProbabilityTest, DominantWinnerNearOne) {
  const std::vector<double> scores{100.0, 0.0, -5.0};
  EXPECT_NEAR(RecognitionProbability(scores, 0), 1.0, 1e-12);
}

// The zero-allocation kernel surface (EvaluateAllInto / BestClassView /
// ClassifyView / MahalanobisSquaredView) must be bit-identical to the
// allocating flavors it backs — exact == on doubles, no tolerance.
TEST(LinearClassifierTest, KernelSurfaceMatchesAllocatingSurfaceBitForBit) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const linalg::Vector probes[] = {
      {0.1, 0.1}, {10.1, 9.9}, {5.0, 5.0}, {-3.0, 17.0}, {0.0, 0.0}};
  std::array<double, 2> scores_buf{};
  std::array<double, 2> diff_buf{};
  const linalg::MutVecView scores = linalg::ViewOf(scores_buf);
  const linalg::MutVecView diff = linalg::ViewOf(diff_buf);
  for (const linalg::Vector& f : probes) {
    const std::vector<double> legacy_scores = c.Evaluate(f);
    c.EvaluateAllInto(f.view(), scores);
    ASSERT_EQ(legacy_scores.size(), scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(legacy_scores[i], scores[i]) << "class " << i;
    }

    const Classification legacy = c.Classify(f);
    EXPECT_EQ(c.BestClassView(f.view(), scores), legacy.class_id);
    const Classification kernel = c.ClassifyView(f.view(), scores, diff);
    EXPECT_EQ(kernel.class_id, legacy.class_id);
    EXPECT_EQ(kernel.score, legacy.score);
    EXPECT_EQ(kernel.probability, legacy.probability);
    EXPECT_EQ(kernel.mahalanobis_squared, legacy.mahalanobis_squared);

    for (ClassId cls = 0; cls < c.num_classes(); ++cls) {
      EXPECT_EQ(c.MahalanobisSquaredView(f.view(), cls, diff), c.MahalanobisSquared(f, cls));
    }
  }
}

TEST(LinearClassifierTest, KernelSurfaceValidatesScratchSizes) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const linalg::Vector f{0.0, 0.0};
  std::array<double, 4> buf{};
  // scores must be exactly num_classes(), diff exactly dimension().
  EXPECT_THROW(c.EvaluateAllInto(f.view(), linalg::ViewOf(buf, 1)), std::invalid_argument);
  EXPECT_THROW(c.EvaluateAllInto(f.view(), linalg::ViewOf(buf, 3)), std::invalid_argument);
  EXPECT_THROW(
      c.ClassifyView(f.view(), linalg::ViewOf(buf, 2), linalg::ViewOf(buf, 1)),
      std::invalid_argument);
  EXPECT_THROW(c.MahalanobisSquaredView(f.view(), 0, linalg::ViewOf(buf, 3)),
               std::invalid_argument);
  // Wrong feature width.
  const linalg::Vector bad{1.0};
  EXPECT_THROW(c.EvaluateAllInto(bad.view(), linalg::ViewOf(buf, 2)), std::invalid_argument);
}

TEST(LinearClassifierTest, RecognitionProbabilityViewMatchesVectorFlavor) {
  const std::vector<double> scores{1.0, 3.5, -2.0, 3.2};
  const linalg::VecView view(scores.data(), scores.size());
  for (ClassId w = 0; w < scores.size(); ++w) {
    EXPECT_EQ(RecognitionProbability(view, w), RecognitionProbability(scores, w));
  }
}

TEST(LinearClassifierTest, FromParametersRoundTrip) {
  LinearClassifier c;
  c.Train(TwoClusters());
  LinearClassifier copy = LinearClassifier::FromParameters(
      {c.weights(0), c.weights(1)}, {c.bias(0), c.bias(1)}, {c.mean(0), c.mean(1)},
      c.inverse_covariance());
  const linalg::Vector probe{2.0, 3.0};
  EXPECT_EQ(copy.Classify(probe).class_id, c.Classify(probe).class_id);
  EXPECT_NEAR(copy.Classify(probe).score, c.Classify(probe).score, 1e-12);
}

}  // namespace
}  // namespace grandma::classify
