// Non-owning views over contiguous double storage, plus the small dense
// kernels (dot / fill / copy / subtract) the classify-time hot path runs on. This is the
// zero-allocation counterpart of linalg::Vector: training-time code keeps the
// owning, resizable Vector; the per-point recognition kernel works entirely
// on views into caller-owned, fixed-capacity scratch (see eager::Workspace).
//
// Views are cheap value types (pointer + length); pass them by value. Bounds
// and size agreement are assert-checked only — these functions sit inside the
// per-mouse-point loop, where the calling layer has already validated
// dimensions once per stroke (or once per call) and an exception check per
// element would be pure overhead.
//
// Thread-safety: a view is as safe as the storage it points at; distinct
// views over distinct storage are independent.
#ifndef GRANDMA_SRC_LINALG_VEC_VIEW_H_
#define GRANDMA_SRC_LINALG_VEC_VIEW_H_

#include <array>
#include <cassert>
#include <cstddef>

namespace grandma::linalg {

// Read-only view of `size` doubles starting at `data`.
class VecView {
 public:
  constexpr VecView() = default;
  constexpr VecView(const double* data, std::size_t size) : data_(data), size_(size) {}

  constexpr std::size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr const double* data() const { return data_; }

  double operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  constexpr const double* begin() const { return data_; }
  constexpr const double* end() const { return data_ + size_; }

  // Sub-view of the first `n` elements (n <= size()).
  VecView first(std::size_t n) const {
    assert(n <= size_);
    return VecView(data_, n);
  }

 private:
  const double* data_ = nullptr;
  std::size_t size_ = 0;
};

// Mutable view; converts implicitly to VecView.
class MutVecView {
 public:
  constexpr MutVecView() = default;
  constexpr MutVecView(double* data, std::size_t size) : data_(data), size_(size) {}

  constexpr std::size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr double* data() const { return data_; }

  double& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  constexpr double* begin() const { return data_; }
  constexpr double* end() const { return data_ + size_; }

  constexpr operator VecView() const { return VecView(data_, size_); }  // NOLINT(google-explicit-constructor)

  MutVecView first(std::size_t n) const {
    assert(n <= size_);
    return MutVecView(data_, n);
  }

 private:
  double* data_ = nullptr;
  std::size_t size_ = 0;
};

// Views over std::array scratch (the fixed-capacity backing the hot path
// uses); `n` defaults to the whole array, or views the first n slots.
template <std::size_t N>
inline MutVecView ViewOf(std::array<double, N>& a, std::size_t n = N) {
  assert(n <= N);
  return MutVecView(a.data(), n);
}
template <std::size_t N>
inline VecView ViewOf(const std::array<double, N>& a, std::size_t n = N) {
  assert(n <= N);
  return VecView(a.data(), n);
}

// --- Kernels -----------------------------------------------------------
// All size requirements are assert-checked (see file comment). Accumulation
// order matches the Vector-based equivalents element for element, so results
// are bit-identical to the owning API.

// Inner product; a.size() must equal b.size().
inline double Dot(VecView a, VecView b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

inline void Fill(MutVecView v, double value) {
  for (double& x : v) {
    x = value;
  }
}

// dst = src; sizes must match.
inline void Copy(VecView src, MutVecView dst) {
  assert(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i];
  }
}

// dst = a - b, element-wise; all three sizes must match.
inline void Subtract(VecView a, VecView b, MutVecView dst) {
  assert(a.size() == b.size() && a.size() == dst.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    dst[i] = a[i] - b[i];
  }
}

}  // namespace grandma::linalg

#endif  // GRANDMA_SRC_LINALG_VEC_VIEW_H_
