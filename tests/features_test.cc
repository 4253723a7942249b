#include "features/extractor.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "features/feature_vector.h"
#include "linalg/vec_view.h"
#include "geom/transform.h"

namespace grandma::features {
namespace {

constexpr double kPi = std::numbers::pi;
using geom::Gesture;
using linalg::Vector;

// A horizontal stroke: 5 points right at 10 px / 10 ms each.
Gesture RightStroke() {
  Gesture g;
  for (int i = 0; i < 5; ++i) {
    g.AppendPoint({10.0 * i, 0.0, 10.0 * i});
  }
  return g;
}

// Right 30 then up 40 (sharp 90-degree left turn), `step` px apart at one
// px per ms; `step` must divide 10.
Gesture LStroke(double step = 10.0) {
  Gesture g;
  const int right = static_cast<int>(30.0 / step);
  const int up = static_cast<int>(40.0 / step);
  for (int i = 0; i <= right; ++i) {
    g.AppendPoint({step * i, 0.0, step * i});
  }
  for (int i = 1; i <= up; ++i) {
    g.AppendPoint({30.0, step * i, 30.0 + step * i});
  }
  return g;
}

TEST(FeatureNamesTest, AllThirteenNamed) {
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    EXPECT_FALSE(FeatureName(static_cast<Feature>(i)).empty());
    EXPECT_FALSE(FeatureDescription(static_cast<Feature>(i)).empty());
  }
}

TEST(FeatureMaskTest, AllAndGeometryOnly) {
  EXPECT_EQ(FeatureMask::All().count(), kNumFeatures);
  const FeatureMask geo = FeatureMask::GeometryOnly();
  EXPECT_EQ(geo.count(), kNumFeatures - 2);
  EXPECT_FALSE(geo.test(kMaxSpeedSquared));
  EXPECT_FALSE(geo.test(kDuration));
  EXPECT_TRUE(geo.test(kPathLength));
}

TEST(FeatureMaskTest, ProjectSelectsInOrder) {
  FeatureMask mask;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    mask.set(static_cast<Feature>(i), false);
  }
  mask.set(kBboxDiagonal, true);
  mask.set(kDuration, true);
  Vector full(kNumFeatures);
  full[kBboxDiagonal] = 42.0;
  full[kDuration] = 7.0;
  const Vector out = mask.Project(full);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 42.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
  EXPECT_THROW(mask.Project(Vector(3)), std::invalid_argument);
}

TEST(FeatureExtractorTest, RightStrokeAnalyticValues) {
  const Vector f = ExtractFeatures(RightStroke());
  EXPECT_NEAR(f[kInitialCos], 1.0, 1e-12);        // f1: initial direction +x
  EXPECT_NEAR(f[kInitialSin], 0.0, 1e-12);        // f2
  EXPECT_NEAR(f[kBboxDiagonal], 40.0, 1e-12);     // f3
  EXPECT_NEAR(f[kBboxAngle], 0.0, 1e-12);         // f4: flat box
  EXPECT_NEAR(f[kStartEndDistance], 40.0, 1e-12); // f5
  EXPECT_NEAR(f[kStartEndCos], 1.0, 1e-12);       // f6
  EXPECT_NEAR(f[kStartEndSin], 0.0, 1e-12);       // f7
  EXPECT_NEAR(f[kPathLength], 40.0, 1e-12);       // f8
  EXPECT_NEAR(f[kTotalAngle], 0.0, 1e-12);        // f9: no turning
  EXPECT_NEAR(f[kTotalAbsAngle], 0.0, 1e-12);     // f10
  EXPECT_NEAR(f[kSharpness], 0.0, 1e-12);         // f11
  EXPECT_NEAR(f[kMaxSpeedSquared], 1.0, 1e-12);   // f12: 10px/10ms -> 1 px^2/ms^2
  EXPECT_NEAR(f[kDuration], 40.0, 1e-12);         // f13
}

TEST(FeatureExtractorTest, LStrokeTurningFeatures) {
  const Vector f = ExtractFeatures(LStroke());
  // One +90-degree (ccw) turn at the corner.
  EXPECT_NEAR(f[kTotalAngle], kPi / 2.0, 1e-12);
  EXPECT_NEAR(f[kTotalAbsAngle], kPi / 2.0, 1e-12);
  EXPECT_NEAR(f[kSharpness], (kPi / 2.0) * (kPi / 2.0), 1e-12);
  EXPECT_NEAR(f[kPathLength], 70.0, 1e-12);
  EXPECT_NEAR(f[kStartEndDistance], 50.0, 1e-12);
  // f6/f7: direction from first to last = atan2(40, 30).
  EXPECT_NEAR(f[kStartEndCos], 0.6, 1e-12);
  EXPECT_NEAR(f[kStartEndSin], 0.8, 1e-12);
}

TEST(FeatureExtractorTest, ClockwiseTurnIsNegative) {
  Gesture g;
  for (int i = 0; i <= 3; ++i) {
    g.AppendPoint({10.0 * i, 0.0, 10.0 * i});
  }
  for (int i = 1; i <= 3; ++i) {
    g.AppendPoint({30.0, -10.0 * i, 30.0 + 10.0 * i});
  }
  const Vector f = ExtractFeatures(g);
  EXPECT_NEAR(f[kTotalAngle], -kPi / 2.0, 1e-12);
  EXPECT_NEAR(f[kTotalAbsAngle], kPi / 2.0, 1e-12);
}

TEST(FeatureExtractorTest, IncrementalMatchesBatch) {
  const Gesture g = LStroke();
  FeatureExtractor fx;
  for (const auto& p : g) {
    fx.AddPoint(p);
  }
  EXPECT_TRUE(AlmostEqual(fx.Features(), ExtractFeatures(g), 1e-12));
}

TEST(FeatureExtractorTest, PrefixFeaturesMatchSubgestureExtraction) {
  const Gesture g = LStroke();
  const auto prefixes = ExtractPrefixFeatures(g);
  ASSERT_EQ(prefixes.size(), g.size() - FeatureExtractor::kMinPoints + 1);
  for (std::size_t k = 0; k < prefixes.size(); ++k) {
    const Gesture sub = g.Subgesture(FeatureExtractor::kMinPoints + k);
    EXPECT_TRUE(AlmostEqual(prefixes[k], ExtractFeatures(sub), 1e-12))
        << "prefix length " << FeatureExtractor::kMinPoints + k;
  }
}

TEST(FeatureExtractorTest, ShortGesturesAreDefined) {
  FeatureExtractor fx;
  EXPECT_EQ(fx.Features().size(), kNumFeatures);  // zero points: all zeros
  fx.AddPoint({5, 5, 0});
  Vector f = fx.Features();
  EXPECT_DOUBLE_EQ(f[kPathLength], 0.0);
  fx.AddPoint({8, 9, 10});
  f = fx.Features();
  EXPECT_NEAR(f[kPathLength], 5.0, 1e-12);
  EXPECT_NEAR(f[kStartEndDistance], 5.0, 1e-12);
  // Initial angle undefined below three points.
  EXPECT_DOUBLE_EQ(f[kInitialCos], 0.0);
}

TEST(FeatureExtractorTest, TranslationInvariance) {
  const Gesture g = LStroke();
  const Gesture moved = geom::AffineTransform::Translation(123.0, -456.0).Apply(g);
  EXPECT_TRUE(AlmostEqual(ExtractFeatures(g), ExtractFeatures(moved), 1e-9));
}

TEST(FeatureExtractorTest, RotationChangesOnlyAngleAnchoredFeatures) {
  const Gesture g = LStroke();
  const Gesture rotated = geom::AffineTransform::Rotation(0.7, 0.0, 0.0).Apply(g);
  const Vector a = ExtractFeatures(g);
  const Vector b = ExtractFeatures(rotated);
  // Rotation-invariant features.
  EXPECT_NEAR(a[kPathLength], b[kPathLength], 1e-9);
  EXPECT_NEAR(a[kStartEndDistance], b[kStartEndDistance], 1e-9);
  EXPECT_NEAR(a[kTotalAngle], b[kTotalAngle], 1e-9);
  EXPECT_NEAR(a[kTotalAbsAngle], b[kTotalAbsAngle], 1e-9);
  EXPECT_NEAR(a[kSharpness], b[kSharpness], 1e-9);
  EXPECT_NEAR(a[kDuration], b[kDuration], 1e-9);
  // Angle-anchored features move by the rotation.
  EXPECT_NEAR(std::atan2(b[kInitialSin], b[kInitialCos]),
              std::atan2(a[kInitialSin], a[kInitialCos]) + 0.7, 1e-9);
}

TEST(FeatureExtractorTest, UniformScaleScalesLengths) {
  const Gesture g = LStroke();
  const Gesture big = geom::AffineTransform::Scale(2.0, 0.0, 0.0).Apply(g);
  const Vector a = ExtractFeatures(g);
  const Vector b = ExtractFeatures(big);
  EXPECT_NEAR(b[kPathLength], 2.0 * a[kPathLength], 1e-9);
  EXPECT_NEAR(b[kBboxDiagonal], 2.0 * a[kBboxDiagonal], 1e-9);
  EXPECT_NEAR(b[kTotalAngle], a[kTotalAngle], 1e-9);  // turning unchanged
}

TEST(FeatureExtractorTest, CoincidentPointsDoNotCorruptAngles) {
  Gesture g = RightStroke();
  // Duplicate a point mid-stroke (zero-length segment).
  Gesture with_dup;
  for (std::size_t i = 0; i < g.size(); ++i) {
    with_dup.AppendPoint(g[i]);
    if (i == 2) {
      with_dup.AppendPoint(g[i]);
    }
  }
  const Vector f = ExtractFeatures(with_dup);
  EXPECT_NEAR(f[kTotalAngle], 0.0, 1e-12);
  EXPECT_NEAR(f[kTotalAbsAngle], 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(f[kMaxSpeedSquared]));
}

TEST(FeatureExtractorTest, ReversalCountsAsPiTurn) {
  // Right then exactly back left: atan2-based turning angle sees pi, not 0
  // (the printed arctan formula would see 0 — we follow Rubine's code).
  Gesture g;
  g.AppendPoint({0, 0, 0});
  g.AppendPoint({10, 0, 10});
  g.AppendPoint({20, 0, 20});
  g.AppendPoint({10, 0, 30});
  const Vector f = ExtractFeatures(g);
  EXPECT_NEAR(std::abs(f[kTotalAngle]), kPi, 1e-9);
}

TEST(FeatureExtractorTest, ResetClearsState) {
  FeatureExtractor fx;
  fx.AddPoint({0, 0, 0});
  fx.AddPoint({10, 0, 10});
  fx.Reset();
  EXPECT_EQ(fx.point_count(), 0u);
  EXPECT_DOUBLE_EQ(fx.Features()[kPathLength], 0.0);
}

TEST(FeatureExtractorTest, DuplicateTimestampsKeepSpeedFinite) {
  // Regression: a stuck clock (dt == 0 between consecutive samples) must not
  // poison the max-speed feature with Inf — the segment simply contributes no
  // speed sample.
  Gesture g;
  g.AppendPoint({0, 0, 0});
  g.AppendPoint({10, 0, 0});  // dt == 0 with real displacement
  g.AppendPoint({20, 0, 10});
  g.AppendPoint({30, 0, 10});  // again mid-stroke
  g.AppendPoint({40, 0, 20});
  const Vector f = ExtractFeatures(g);
  EXPECT_TRUE(std::isfinite(f[kMaxSpeedSquared]));
  // The surviving dt>0 segments move 10 px / 10 ms = 1 px/ms.
  EXPECT_DOUBLE_EQ(f[kMaxSpeedSquared], 1.0);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_TRUE(std::isfinite(f[i])) << i;
  }
}

TEST(FeatureExtractorTest, BackwardAndNonFiniteTimestampsKeepFeaturesFinite) {
  // Reordered events (dt < 0) and a NaN clock reading must not contribute
  // speed samples either; every feature stays finite.
  Gesture g;
  g.AppendPoint({0, 0, 100});
  g.AppendPoint({10, 0, 90});  // clock went backwards
  g.AppendPoint({20, 0, std::numeric_limits<double>::quiet_NaN()});
  g.AppendPoint({30, 0, 120});
  const Vector f = ExtractFeatures(g);
  EXPECT_TRUE(std::isfinite(f[kMaxSpeedSquared]));
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i == kDuration) {
      continue;  // duration reflects the raw (garbage-in) clock values
    }
    EXPECT_TRUE(std::isfinite(f[i])) << i;
  }
}

TEST(FeatureExtractorTest, FeaturesIntoMatchesFeaturesBitForBit) {
  FeatureExtractor fx;
  for (const auto& p : LStroke()) {
    fx.AddPoint(p);
    const Vector copied = fx.Features();
    std::array<double, kNumFeatures> scratch{};
    fx.FeaturesInto(linalg::ViewOf(scratch));
    for (std::size_t i = 0; i < kNumFeatures; ++i) {
      EXPECT_EQ(copied[i], scratch[i]) << "feature " << i;  // exact
    }
  }
}

TEST(FeatureExtractorTest, FeaturesIntoRejectsWrongSize) {
  FeatureExtractor fx;
  std::array<double, kNumFeatures - 1> small{};
  std::array<double, kNumFeatures + 1> big{};
  EXPECT_THROW(fx.FeaturesInto(linalg::ViewOf(small)), std::invalid_argument);
  EXPECT_THROW(fx.FeaturesInto(linalg::ViewOf(big)), std::invalid_argument);
}

TEST(FeatureMaskTest, ProjectIntoMatchesProjectBitForBit) {
  const FeatureMask mask = FeatureMask::GeometryOnly();
  const Vector full = ExtractFeatures(LStroke());
  const Vector projected = mask.Project(full);
  std::array<double, kNumFeatures> scratch{};
  const linalg::MutVecView out = linalg::ViewOf(scratch, mask.count());
  mask.ProjectInto(full.view(), out);
  ASSERT_EQ(projected.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(projected[i], out[i]) << i;
  }
}

TEST(FeatureMaskTest, ProjectIntoRejectsWrongSizes) {
  const FeatureMask mask = FeatureMask::GeometryOnly();
  std::array<double, kNumFeatures> full{};
  std::array<double, kNumFeatures> out{};
  // Wrong input width.
  EXPECT_THROW(mask.ProjectInto(linalg::ViewOf(full, kNumFeatures - 1),
                                linalg::ViewOf(out, mask.count())),
               std::invalid_argument);
  // Wrong output width.
  EXPECT_THROW(mask.ProjectInto(linalg::ViewOf(full), linalg::ViewOf(out, mask.count() - 1)),
               std::invalid_argument);
}

TEST(FeatureExtractorTest, SamplingRobustness) {
  // The same path sampled at different densities yields similar features
  // (exactly the property that lets the classifier ignore sampling rate).
  const Gesture coarse = LStroke();
  const Gesture fine = LStroke(1.0);
  const Vector a = ExtractFeatures(coarse);
  const Vector b = ExtractFeatures(fine);
  EXPECT_NEAR(a[kPathLength], b[kPathLength], 0.5);
  EXPECT_NEAR(a[kTotalAbsAngle], b[kTotalAbsAngle], 0.1);
  EXPECT_NEAR(a[kStartEndDistance], b[kStartEndDistance], 1e-6);
}

}  // namespace
}  // namespace grandma::features
