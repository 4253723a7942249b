#include "linalg/vec_view.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <utility>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace grandma::linalg {
namespace {

TEST(VecViewTest, DefaultIsEmpty) {
  VecView v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.begin(), v.end());
  MutVecView m;
  EXPECT_TRUE(m.empty());
}

TEST(VecViewTest, ViewsAliasTheStorage) {
  std::array<double, 4> a{1.0, 2.0, 3.0, 4.0};
  MutVecView m = ViewOf(a);
  ASSERT_EQ(m.size(), 4u);
  m[2] = 30.0;
  EXPECT_DOUBLE_EQ(a[2], 30.0);  // writes land in the array

  VecView v = m;  // implicit MutVecView -> VecView
  EXPECT_EQ(v.data(), a.data());
  EXPECT_DOUBLE_EQ(v[2], 30.0);
}

TEST(VecViewTest, ViewOfPrefix) {
  std::array<double, 13> scratch{};
  MutVecView head = ViewOf(scratch, 5);
  EXPECT_EQ(head.size(), 5u);
  EXPECT_EQ(head.data(), scratch.data());
  EXPECT_EQ(head.first(2).size(), 2u);
  const std::array<double, 3> ca{7.0, 8.0, 9.0};
  VecView cv = ViewOf(ca, 2);
  EXPECT_EQ(cv.size(), 2u);
  EXPECT_DOUBLE_EQ(cv[1], 8.0);
}

TEST(VecViewTest, VectorViewAccessors) {
  Vector v{1.0, 2.0, 3.0};
  const Vector& cv = v;
  VecView r = cv.view();
  MutVecView w = v.view();
  ASSERT_EQ(r.size(), 3u);
  w[0] = 10.0;
  EXPECT_DOUBLE_EQ(v[0], 10.0);
  EXPECT_DOUBLE_EQ(r[0], 10.0);  // same storage
}

TEST(VecViewTest, RangeForIteration) {
  std::array<double, 3> a{1.0, 2.0, 3.0};
  double sum = 0.0;
  for (double x : ViewOf(std::as_const(a))) {
    sum += x;
  }
  EXPECT_DOUBLE_EQ(sum, 6.0);
  for (double& x : ViewOf(a)) {
    x *= 2.0;
  }
  EXPECT_DOUBLE_EQ(a[2], 6.0);
}

// --- Kernels ---------------------------------------------------------------

TEST(VecViewKernelTest, DotMatchesVectorDotBitForBit) {
  const Vector a{0.1, -2.7, 3.14, 1e-9, 42.0};
  const Vector b{9.9, 0.3, -1.25, 1e9, -0.5};
  EXPECT_EQ(Dot(a.view(), b.view()), Dot(a, b));  // exact, not almost
}

TEST(VecViewKernelTest, FillCopySubtract) {
  std::array<double, 3> dst{};
  Fill(ViewOf(dst), 7.0);
  EXPECT_DOUBLE_EQ(dst[1], 7.0);

  const std::array<double, 3> src{1.0, 2.0, 3.0};
  Copy(ViewOf(src), ViewOf(dst));
  EXPECT_DOUBLE_EQ(dst[2], 3.0);

  const std::array<double, 3> b{0.5, 0.5, 0.5};
  Subtract(ViewOf(src), ViewOf(b), ViewOf(dst));
  EXPECT_DOUBLE_EQ(dst[0], 0.5);
  EXPECT_DOUBLE_EQ(dst[2], 2.5);
}

TEST(VecViewKernelTest, MatrixRowViewAliasesRow) {
  Matrix m(2, 3);
  m(1, 0) = 4.0;
  m(1, 2) = 6.0;
  VecView row = m.RowView(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
}

TEST(VecViewKernelTest, QuadraticFormViewMatchesVectorOverloadBitForBit) {
  Matrix m(3, 3);
  double fill = 0.25;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m(r, c) = fill;
      fill += 0.37;
    }
  }
  const Vector x{1.1, -0.7, 2.3};
  const Vector y{0.9, 3.3, -1.5};
  EXPECT_EQ(QuadraticForm(x.view(), m, y.view()), QuadraticForm(x, m, y));
  // And the dimension check still throws in the view flavor.
  const Vector bad{1.0};
  EXPECT_THROW(QuadraticForm(bad.view(), m, y.view()), std::invalid_argument);
}

}  // namespace
}  // namespace grandma::linalg
