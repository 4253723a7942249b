// Kernel tables for the dispatch ladder declared in simd.h. This file is
// compiled with -ffp-contract=off (see src/linalg/CMakeLists.txt): no
// mul+add here may fuse into an FMA, or the bit-identity contract between
// the scalar and vector tiers of EvaluateAll would silently break on
// FMA-capable hardware.
#include "linalg/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>

#if !defined(GRANDMA_SIMD_DISABLED)
#if defined(__x86_64__) || defined(__i386__)
#define GRANDMA_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define GRANDMA_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace grandma::linalg::simd {

namespace {

// Raw-pointer kernel signatures; the VecView entry points below unwrap once
// and assert sizes, so the per-tier implementations stay branch-light.
struct KernelTable {
  Tier tier;
  double (*dot)(const double* a, const double* b, std::size_t n);
  void (*evaluate_all)(const double* soa, std::size_t stride, const double* biases,
                       const double* f, std::size_t dim, double* scores, std::size_t classes);
  std::size_t (*argmax)(const double* v, std::size_t n);
  bool (*argmax_in_prefix)(const double* soa, std::size_t stride, const double* biases,
                           const double* f, std::size_t dim, std::size_t split,
                           std::size_t classes);
};

// --- Scalar tier (the reference) ---------------------------------------

double DotScalar(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void EvaluateAllScalar(const double* soa, std::size_t stride, const double* biases,
                       const double* f, std::size_t dim, double* scores,
                       std::size_t classes) {
  for (std::size_t c = 0; c < classes; ++c) {
    scores[c] = 0.0;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    const double alpha = f[i];
    const double* row = soa + i * stride;
    for (std::size_t c = 0; c < classes; ++c) {
      scores[c] += alpha * row[c];
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    scores[c] += biases[c];
  }
}

std::size_t ArgMaxScalar(const double* v, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] > v[best]) {
      best = i;
    }
  }
  return best;
}

// One class's score, exactly as EvaluateAllScalar computes it: the feature
// sum in index order, bias added last.
double ScoreAtScalar(const double* soa, std::size_t stride, const double* biases,
                     const double* f, std::size_t dim, std::size_t c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += f[i] * soa[i * stride + c];
  }
  return acc + biases[c];
}

// The fused fire-check reference: evaluate every class's score (same chains
// as EvaluateAll) and report whether the running strict-> argmax — first
// index wins ties, NaN never displaces the winner — lands in [0, split).
// No score buffer: this is the per-point AUC decision, where only the
// winner's SIDE of the split matters, never its index or value.
bool EvaluateArgMaxInPrefixScalar(const double* soa, std::size_t stride, const double* biases,
                                  const double* f, std::size_t dim, std::size_t split,
                                  std::size_t classes) {
  if (split == 0) {
    return false;
  }
  if (split >= classes) {
    return true;
  }
  double best = ScoreAtScalar(soa, stride, biases, f, dim, 0);
  std::size_t winner = 0;
  for (std::size_t c = 1; c < classes; ++c) {
    const double s = ScoreAtScalar(soa, stride, biases, f, dim, c);
    if (s > best) {
      best = s;
      winner = c;
    }
  }
  return winner < split;
}

constexpr KernelTable kScalarTable{Tier::kScalar, DotScalar, EvaluateAllScalar, ArgMaxScalar,
                                 EvaluateArgMaxInPrefixScalar};

#if defined(GRANDMA_SIMD_X86)

// --- SSE2 tier (x86-64 baseline) ---------------------------------------

double DotSse2(const double* a, const double* b, std::size_t n) {
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = _mm_add_pd(acc, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
  }
  // Lane 0 + lane 1, then the odd tail element in order.
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void EvaluateAllSse2(const double* soa, std::size_t stride, const double* biases,
                     const double* f, std::size_t dim, double* scores, std::size_t classes) {
  std::size_t c = 0;
  // 8-class blocks: four independent accumulators hide the add latency.
  for (; c + 8 <= classes; c += 8) {
    __m128d a0 = _mm_setzero_pd();
    __m128d a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd();
    __m128d a3 = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m128d ff = _mm_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm_add_pd(a0, _mm_mul_pd(ff, _mm_loadu_pd(row)));
      a1 = _mm_add_pd(a1, _mm_mul_pd(ff, _mm_loadu_pd(row + 2)));
      a2 = _mm_add_pd(a2, _mm_mul_pd(ff, _mm_loadu_pd(row + 4)));
      a3 = _mm_add_pd(a3, _mm_mul_pd(ff, _mm_loadu_pd(row + 6)));
    }
    _mm_storeu_pd(scores + c, _mm_add_pd(a0, _mm_loadu_pd(biases + c)));
    _mm_storeu_pd(scores + c + 2, _mm_add_pd(a1, _mm_loadu_pd(biases + c + 2)));
    _mm_storeu_pd(scores + c + 4, _mm_add_pd(a2, _mm_loadu_pd(biases + c + 4)));
    _mm_storeu_pd(scores + c + 6, _mm_add_pd(a3, _mm_loadu_pd(biases + c + 6)));
  }
  for (; c + 2 <= classes; c += 2) {
    __m128d acc = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(f[i]), _mm_loadu_pd(col + i * stride)));
    }
    _mm_storeu_pd(scores + c, _mm_add_pd(acc, _mm_loadu_pd(biases + c)));
  }
  for (; c < classes; ++c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      acc += f[i] * soa[i * stride + c];
    }
    scores[c] = acc + biases[c];
  }
}

std::size_t ArgMaxSse2(const double* v, std::size_t n) {
  if (n < 4) {
    return ArgMaxScalar(v, n);
  }
  // Pass 1: the maximum value, plus a NaN sweep. maxpd's NaN behaviour is
  // operand-order dependent, so any NaN anywhere means the vector max is
  // untrustworthy — defer to the scalar scan, whose strict-> semantics
  // (NaN never displaces the winner) are the contract. Four independent
  // accumulators: a single max chain is latency-bound (this pass IS the
  // kernel's cost at large n).
  __m128d m0 = _mm_loadu_pd(v);
  __m128d m1 = m0;
  __m128d m2 = m0;
  __m128d m3 = m0;
  __m128d unord = _mm_cmpunord_pd(m0, m0);
  std::size_t i = 2;
  for (; i + 8 <= n; i += 8) {
    const __m128d x0 = _mm_loadu_pd(v + i);
    const __m128d x1 = _mm_loadu_pd(v + i + 2);
    const __m128d x2 = _mm_loadu_pd(v + i + 4);
    const __m128d x3 = _mm_loadu_pd(v + i + 6);
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x0, x0));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x1, x1));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x2, x2));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x3, x3));
    m0 = _mm_max_pd(m0, x0);
    m1 = _mm_max_pd(m1, x1);
    m2 = _mm_max_pd(m2, x2);
    m3 = _mm_max_pd(m3, x3);
  }
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_loadu_pd(v + i);
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x, x));
    m0 = _mm_max_pd(m0, x);
  }
  if (_mm_movemask_pd(unord) != 0) {
    return ArgMaxScalar(v, n);
  }
  const __m128d vmax = _mm_max_pd(_mm_max_pd(m0, m1), _mm_max_pd(m2, m3));
  double lanes[2];
  _mm_storeu_pd(lanes, vmax);
  double m = lanes[0] >= lanes[1] ? lanes[0] : lanes[1];
  for (; i < n; ++i) {
    if (!(v[i] == v[i])) {
      return ArgMaxScalar(v, n);
    }
    if (v[i] > m) {
      m = v[i];
    }
  }
  // Pass 2: first index holding the max. With no NaNs this is exactly the
  // index the running strict-> scan keeps (ties never displace), and ±0.0
  // compare equal under cmpeq just as neither displaces the other under >.
  const __m128d vm = _mm_set1_pd(m);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const int mask = _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(v + j), vm));
    if (mask != 0) {
      return j + ((mask & 1) != 0 ? 0 : 1);
    }
  }
  for (; j < n; ++j) {
    if (v[j] == m) {
      return j;
    }
  }
  return 0;  // Unreachable: m was read from v.
}

// Max score over classes [begin, end): the same per-class chains as
// EvaluateAllSse2, max-merged in registers instead of stored. Max is
// associative and commutative on VALUES (only the sign of a +/-0 tie and
// NaN ordering depend on merge order), so the merged maximum equals the
// scalar running maximum for any NaN-free range; *nan_seen reports NaNs so
// the caller can fall back to the exact scalar scan.
double MaxScoresRangeSse2(const double* soa, std::size_t stride, const double* biases,
                          const double* f, std::size_t dim, std::size_t begin, std::size_t end,
                          bool* nan_seen) {
  const __m128d ninf = _mm_set1_pd(-std::numeric_limits<double>::infinity());
  __m128d best0 = ninf;
  __m128d best1 = ninf;
  __m128d best2 = ninf;
  __m128d best3 = ninf;
  __m128d unord = _mm_setzero_pd();
  std::size_t c = begin;
  for (; c + 8 <= end; c += 8) {
    __m128d a0 = _mm_setzero_pd();
    __m128d a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd();
    __m128d a3 = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m128d ff = _mm_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm_add_pd(a0, _mm_mul_pd(ff, _mm_loadu_pd(row)));
      a1 = _mm_add_pd(a1, _mm_mul_pd(ff, _mm_loadu_pd(row + 2)));
      a2 = _mm_add_pd(a2, _mm_mul_pd(ff, _mm_loadu_pd(row + 4)));
      a3 = _mm_add_pd(a3, _mm_mul_pd(ff, _mm_loadu_pd(row + 6)));
    }
    a0 = _mm_add_pd(a0, _mm_loadu_pd(biases + c));
    a1 = _mm_add_pd(a1, _mm_loadu_pd(biases + c + 2));
    a2 = _mm_add_pd(a2, _mm_loadu_pd(biases + c + 4));
    a3 = _mm_add_pd(a3, _mm_loadu_pd(biases + c + 6));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(a0, a0));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(a1, a1));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(a2, a2));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(a3, a3));
    best0 = _mm_max_pd(best0, a0);
    best1 = _mm_max_pd(best1, a1);
    best2 = _mm_max_pd(best2, a2);
    best3 = _mm_max_pd(best3, a3);
  }
  for (; c + 2 <= end; c += 2) {
    __m128d acc = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(f[i]), _mm_loadu_pd(col + i * stride)));
    }
    acc = _mm_add_pd(acc, _mm_loadu_pd(biases + c));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(acc, acc));
    best0 = _mm_max_pd(best0, acc);
  }
  if (_mm_movemask_pd(unord) != 0) {
    *nan_seen = true;
    return 0.0;
  }
  const __m128d merged = _mm_max_pd(_mm_max_pd(best0, best1), _mm_max_pd(best2, best3));
  double lanes[2];
  _mm_storeu_pd(lanes, merged);
  double m = lanes[0] >= lanes[1] ? lanes[0] : lanes[1];
  for (; c < end; ++c) {
    const double s = ScoreAtScalar(soa, stride, biases, f, dim, c);
    if (!(s == s)) {
      *nan_seen = true;
      return 0.0;
    }
    if (s > m) {
      m = s;
    }
  }
  return m;
}

bool EvaluateArgMaxInPrefixSse2(const double* soa, std::size_t stride, const double* biases,
                                const double* f, std::size_t dim, std::size_t split,
                                std::size_t classes) {
  if (split == 0) {
    return false;
  }
  if (split >= classes) {
    return true;
  }
  // The winner's index is never needed — only which side of the split it
  // falls on. Prefix classes come first, so the first-max winner is in the
  // prefix exactly when the suffix max does not strictly beat the prefix
  // max. NaN anywhere defers to the scalar scan, whose sticky-NaN argmax
  // semantics are the contract.
  bool nan_seen = false;
  const double prefix_max =
      MaxScoresRangeSse2(soa, stride, biases, f, dim, 0, split, &nan_seen);
  if (!nan_seen) {
    const double suffix_max =
        MaxScoresRangeSse2(soa, stride, biases, f, dim, split, classes, &nan_seen);
    if (!nan_seen) {
      return !(suffix_max > prefix_max);
    }
  }
  return EvaluateArgMaxInPrefixScalar(soa, stride, biases, f, dim, split, classes);
}

constexpr KernelTable kSse2Table{Tier::kSse2, DotSse2, EvaluateAllSse2, ArgMaxSse2,
                                 EvaluateArgMaxInPrefixSse2};

// --- AVX2 tier (runtime-detected) --------------------------------------

__attribute__((target("avx2"))) double DotAvx2(const double* a, const double* b,
                                               std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

__attribute__((target("avx2"))) void EvaluateAllAvx2(const double* soa, std::size_t stride,
                                                     const double* biases, const double* f,
                                                     std::size_t dim, double* scores,
                                                     std::size_t classes) {
  std::size_t c = 0;
  // 16-class blocks: four independent 4-wide accumulators.
  for (; c + 16 <= classes; c += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d ff = _mm256_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(ff, _mm256_loadu_pd(row)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 12)));
    }
    _mm256_storeu_pd(scores + c, _mm256_add_pd(a0, _mm256_loadu_pd(biases + c)));
    _mm256_storeu_pd(scores + c + 4, _mm256_add_pd(a1, _mm256_loadu_pd(biases + c + 4)));
    _mm256_storeu_pd(scores + c + 8, _mm256_add_pd(a2, _mm256_loadu_pd(biases + c + 8)));
    _mm256_storeu_pd(scores + c + 12, _mm256_add_pd(a3, _mm256_loadu_pd(biases + c + 12)));
  }
  for (; c + 4 <= classes; c += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(_mm256_set1_pd(f[i]), _mm256_loadu_pd(col + i * stride)));
    }
    _mm256_storeu_pd(scores + c, _mm256_add_pd(acc, _mm256_loadu_pd(biases + c)));
  }
  for (; c < classes; ++c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      acc += f[i] * soa[i * stride + c];
    }
    scores[c] = acc + biases[c];
  }
}

__attribute__((target("avx2"))) std::size_t ArgMaxAvx2(const double* v, std::size_t n) {
  if (n < 8) {
    return ArgMaxSse2(v, n);
  }
  // Same two-pass shape as the SSE2 kernel, 4 lanes wide, with the same
  // four-accumulator unroll to break the max latency chain.
  __m256d m0 = _mm256_loadu_pd(v);
  __m256d m1 = m0;
  __m256d m2 = m0;
  __m256d m3 = m0;
  __m256d unord = _mm256_cmp_pd(m0, m0, _CMP_UNORD_Q);
  std::size_t i = 4;
  for (; i + 16 <= n; i += 16) {
    const __m256d x0 = _mm256_loadu_pd(v + i);
    const __m256d x1 = _mm256_loadu_pd(v + i + 4);
    const __m256d x2 = _mm256_loadu_pd(v + i + 8);
    const __m256d x3 = _mm256_loadu_pd(v + i + 12);
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x0, x0, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x1, x1, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x2, x2, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x3, x3, _CMP_UNORD_Q));
    m0 = _mm256_max_pd(m0, x0);
    m1 = _mm256_max_pd(m1, x1);
    m2 = _mm256_max_pd(m2, x2);
    m3 = _mm256_max_pd(m3, x3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
    m0 = _mm256_max_pd(m0, x);
  }
  if (_mm256_movemask_pd(unord) != 0) {
    return ArgMaxScalar(v, n);
  }
  const __m256d vmax = _mm256_max_pd(_mm256_max_pd(m0, m1), _mm256_max_pd(m2, m3));
  double lanes[4];
  _mm256_storeu_pd(lanes, vmax);
  double m = lanes[0];
  for (int lane = 1; lane < 4; ++lane) {
    if (lanes[lane] > m) {
      m = lanes[lane];
    }
  }
  for (; i < n; ++i) {
    if (!(v[i] == v[i])) {
      return ArgMaxScalar(v, n);
    }
    if (v[i] > m) {
      m = v[i];
    }
  }
  const __m256d vm = _mm256_set1_pd(m);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(v + j), vm, _CMP_EQ_OQ));
    if (mask != 0) {
      return j + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; j < n; ++j) {
    if (v[j] == m) {
      return j;
    }
  }
  return 0;  // Unreachable: m was read from v.
}

// Max score over classes [begin, end): EvaluateAllAvx2's 16-class block
// shape, max-merged in registers instead of stored (see the SSE2 variant
// for why the merged max equals the scalar running max on NaN-free input).
__attribute__((target("avx2"))) double MaxScoresRangeAvx2(const double* soa, std::size_t stride,
                                                          const double* biases, const double* f,
                                                          std::size_t dim, std::size_t begin,
                                                          std::size_t end, bool* nan_seen) {
  const __m256d ninf = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d best0 = ninf;
  __m256d best1 = ninf;
  __m256d best2 = ninf;
  __m256d best3 = ninf;
  __m256d unord = _mm256_setzero_pd();
  std::size_t c = begin;
  for (; c + 16 <= end; c += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d ff = _mm256_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(ff, _mm256_loadu_pd(row)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 12)));
    }
    a0 = _mm256_add_pd(a0, _mm256_loadu_pd(biases + c));
    a1 = _mm256_add_pd(a1, _mm256_loadu_pd(biases + c + 4));
    a2 = _mm256_add_pd(a2, _mm256_loadu_pd(biases + c + 8));
    a3 = _mm256_add_pd(a3, _mm256_loadu_pd(biases + c + 12));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(a0, a0, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(a1, a1, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(a2, a2, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(a3, a3, _CMP_UNORD_Q));
    best0 = _mm256_max_pd(best0, a0);
    best1 = _mm256_max_pd(best1, a1);
    best2 = _mm256_max_pd(best2, a2);
    best3 = _mm256_max_pd(best3, a3);
  }
  for (; c + 4 <= end; c += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(_mm256_set1_pd(f[i]), _mm256_loadu_pd(col + i * stride)));
    }
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(biases + c));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(acc, acc, _CMP_UNORD_Q));
    best0 = _mm256_max_pd(best0, acc);
  }
  if (_mm256_movemask_pd(unord) != 0) {
    *nan_seen = true;
    return 0.0;
  }
  const __m256d merged = _mm256_max_pd(_mm256_max_pd(best0, best1), _mm256_max_pd(best2, best3));
  double lanes[4];
  _mm256_storeu_pd(lanes, merged);
  double m = lanes[0];
  for (int lane = 1; lane < 4; ++lane) {
    if (lanes[lane] > m) {
      m = lanes[lane];
    }
  }
  for (; c < end; ++c) {
    const double s = ScoreAtScalar(soa, stride, biases, f, dim, c);
    if (!(s == s)) {
      *nan_seen = true;
      return 0.0;
    }
    if (s > m) {
      m = s;
    }
  }
  return m;
}

__attribute__((target("avx2"))) bool EvaluateArgMaxInPrefixAvx2(const double* soa,
                                                                std::size_t stride,
                                                                const double* biases,
                                                                const double* f, std::size_t dim,
                                                                std::size_t split,
                                                                std::size_t classes) {
  if (split == 0) {
    return false;
  }
  if (split >= classes) {
    return true;
  }
  bool nan_seen = false;
  const double prefix_max =
      MaxScoresRangeAvx2(soa, stride, biases, f, dim, 0, split, &nan_seen);
  if (!nan_seen) {
    const double suffix_max =
        MaxScoresRangeAvx2(soa, stride, biases, f, dim, split, classes, &nan_seen);
    if (!nan_seen) {
      return !(suffix_max > prefix_max);
    }
  }
  return EvaluateArgMaxInPrefixScalar(soa, stride, biases, f, dim, split, classes);
}

constexpr KernelTable kAvx2Table{Tier::kAvx2, DotAvx2, EvaluateAllAvx2, ArgMaxAvx2,
                                 EvaluateArgMaxInPrefixAvx2};

#elif defined(GRANDMA_SIMD_NEON)

// --- NEON tier (aarch64 baseline; fills the kSse2 rung) -----------------

double DotNeon(const double* a, const double* b, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_f64(acc, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  double sum = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void EvaluateAllNeon(const double* soa, std::size_t stride, const double* biases,
                     const double* f, std::size_t dim, double* scores, std::size_t classes) {
  std::size_t c = 0;
  for (; c + 8 <= classes; c += 8) {
    float64x2_t a0 = vdupq_n_f64(0.0);
    float64x2_t a1 = vdupq_n_f64(0.0);
    float64x2_t a2 = vdupq_n_f64(0.0);
    float64x2_t a3 = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const float64x2_t ff = vdupq_n_f64(f[i]);
      const double* row = col + i * stride;
      a0 = vaddq_f64(a0, vmulq_f64(ff, vld1q_f64(row)));
      a1 = vaddq_f64(a1, vmulq_f64(ff, vld1q_f64(row + 2)));
      a2 = vaddq_f64(a2, vmulq_f64(ff, vld1q_f64(row + 4)));
      a3 = vaddq_f64(a3, vmulq_f64(ff, vld1q_f64(row + 6)));
    }
    vst1q_f64(scores + c, vaddq_f64(a0, vld1q_f64(biases + c)));
    vst1q_f64(scores + c + 2, vaddq_f64(a1, vld1q_f64(biases + c + 2)));
    vst1q_f64(scores + c + 4, vaddq_f64(a2, vld1q_f64(biases + c + 4)));
    vst1q_f64(scores + c + 6, vaddq_f64(a3, vld1q_f64(biases + c + 6)));
  }
  for (; c + 2 <= classes; c += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(f[i]), vld1q_f64(col + i * stride)));
    }
    vst1q_f64(scores + c, vaddq_f64(acc, vld1q_f64(biases + c)));
  }
  for (; c < classes; ++c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      acc += f[i] * soa[i * stride + c];
    }
    scores[c] = acc + biases[c];
  }
}

std::size_t ArgMaxNeon(const double* v, std::size_t n) {
  if (n < 4) {
    return ArgMaxScalar(v, n);
  }
  // vceqq(x, x) is all-ones per lane unless the lane is NaN; AND-accumulate
  // so any NaN clears a lane, then defer to the scalar scan (same contract
  // as the x86 kernels). Four max accumulators break the latency chain.
  float64x2_t m0 = vld1q_f64(v);
  float64x2_t m1 = m0;
  float64x2_t m2 = m0;
  float64x2_t m3 = m0;
  uint64x2_t ord = vceqq_f64(m0, m0);
  std::size_t i = 2;
  for (; i + 8 <= n; i += 8) {
    const float64x2_t x0 = vld1q_f64(v + i);
    const float64x2_t x1 = vld1q_f64(v + i + 2);
    const float64x2_t x2 = vld1q_f64(v + i + 4);
    const float64x2_t x3 = vld1q_f64(v + i + 6);
    ord = vandq_u64(ord, vceqq_f64(x0, x0));
    ord = vandq_u64(ord, vceqq_f64(x1, x1));
    ord = vandq_u64(ord, vceqq_f64(x2, x2));
    ord = vandq_u64(ord, vceqq_f64(x3, x3));
    m0 = vmaxq_f64(m0, x0);
    m1 = vmaxq_f64(m1, x1);
    m2 = vmaxq_f64(m2, x2);
    m3 = vmaxq_f64(m3, x3);
  }
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x = vld1q_f64(v + i);
    ord = vandq_u64(ord, vceqq_f64(x, x));
    m0 = vmaxq_f64(m0, x);
  }
  if (vgetq_lane_u64(ord, 0) == 0 || vgetq_lane_u64(ord, 1) == 0) {
    return ArgMaxScalar(v, n);
  }
  const float64x2_t vmax = vmaxq_f64(vmaxq_f64(m0, m1), vmaxq_f64(m2, m3));
  const double lane0 = vgetq_lane_f64(vmax, 0);
  const double lane1 = vgetq_lane_f64(vmax, 1);
  double m = lane0 >= lane1 ? lane0 : lane1;
  for (; i < n; ++i) {
    if (!(v[i] == v[i])) {
      return ArgMaxScalar(v, n);
    }
    if (v[i] > m) {
      m = v[i];
    }
  }
  const float64x2_t vm = vdupq_n_f64(m);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const uint64x2_t eq = vceqq_f64(vld1q_f64(v + j), vm);
    if (vgetq_lane_u64(eq, 0) != 0) {
      return j;
    }
    if (vgetq_lane_u64(eq, 1) != 0) {
      return j + 1;
    }
  }
  for (; j < n; ++j) {
    if (v[j] == m) {
      return j;
    }
  }
  return 0;  // Unreachable: m was read from v.
}

// Max score over classes [begin, end): EvaluateAllNeon's 8-class block
// shape, max-merged in registers instead of stored (see the SSE2 variant
// for why the merged max equals the scalar running max on NaN-free input).
double MaxScoresRangeNeon(const double* soa, std::size_t stride, const double* biases,
                          const double* f, std::size_t dim, std::size_t begin, std::size_t end,
                          bool* nan_seen) {
  const float64x2_t ninf = vdupq_n_f64(-std::numeric_limits<double>::infinity());
  float64x2_t best0 = ninf;
  float64x2_t best1 = ninf;
  float64x2_t best2 = ninf;
  float64x2_t best3 = ninf;
  uint64x2_t ord = vdupq_n_u64(~0ULL);
  std::size_t c = begin;
  for (; c + 8 <= end; c += 8) {
    float64x2_t a0 = vdupq_n_f64(0.0);
    float64x2_t a1 = vdupq_n_f64(0.0);
    float64x2_t a2 = vdupq_n_f64(0.0);
    float64x2_t a3 = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const float64x2_t ff = vdupq_n_f64(f[i]);
      const double* row = col + i * stride;
      a0 = vaddq_f64(a0, vmulq_f64(ff, vld1q_f64(row)));
      a1 = vaddq_f64(a1, vmulq_f64(ff, vld1q_f64(row + 2)));
      a2 = vaddq_f64(a2, vmulq_f64(ff, vld1q_f64(row + 4)));
      a3 = vaddq_f64(a3, vmulq_f64(ff, vld1q_f64(row + 6)));
    }
    a0 = vaddq_f64(a0, vld1q_f64(biases + c));
    a1 = vaddq_f64(a1, vld1q_f64(biases + c + 2));
    a2 = vaddq_f64(a2, vld1q_f64(biases + c + 4));
    a3 = vaddq_f64(a3, vld1q_f64(biases + c + 6));
    ord = vandq_u64(ord, vceqq_f64(a0, a0));
    ord = vandq_u64(ord, vceqq_f64(a1, a1));
    ord = vandq_u64(ord, vceqq_f64(a2, a2));
    ord = vandq_u64(ord, vceqq_f64(a3, a3));
    best0 = vmaxq_f64(best0, a0);
    best1 = vmaxq_f64(best1, a1);
    best2 = vmaxq_f64(best2, a2);
    best3 = vmaxq_f64(best3, a3);
  }
  for (; c + 2 <= end; c += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(f[i]), vld1q_f64(col + i * stride)));
    }
    acc = vaddq_f64(acc, vld1q_f64(biases + c));
    ord = vandq_u64(ord, vceqq_f64(acc, acc));
    best0 = vmaxq_f64(best0, acc);
  }
  if (vgetq_lane_u64(ord, 0) == 0 || vgetq_lane_u64(ord, 1) == 0) {
    *nan_seen = true;
    return 0.0;
  }
  const float64x2_t merged = vmaxq_f64(vmaxq_f64(best0, best1), vmaxq_f64(best2, best3));
  const double lane0 = vgetq_lane_f64(merged, 0);
  const double lane1 = vgetq_lane_f64(merged, 1);
  double m = lane0 >= lane1 ? lane0 : lane1;
  for (; c < end; ++c) {
    const double s = ScoreAtScalar(soa, stride, biases, f, dim, c);
    if (!(s == s)) {
      *nan_seen = true;
      return 0.0;
    }
    if (s > m) {
      m = s;
    }
  }
  return m;
}

bool EvaluateArgMaxInPrefixNeon(const double* soa, std::size_t stride, const double* biases,
                                const double* f, std::size_t dim, std::size_t split,
                                std::size_t classes) {
  if (split == 0) {
    return false;
  }
  if (split >= classes) {
    return true;
  }
  bool nan_seen = false;
  const double prefix_max =
      MaxScoresRangeNeon(soa, stride, biases, f, dim, 0, split, &nan_seen);
  if (!nan_seen) {
    const double suffix_max =
        MaxScoresRangeNeon(soa, stride, biases, f, dim, split, classes, &nan_seen);
    if (!nan_seen) {
      return !(suffix_max > prefix_max);
    }
  }
  return EvaluateArgMaxInPrefixScalar(soa, stride, biases, f, dim, split, classes);
}

constexpr KernelTable kSse2Table{Tier::kSse2, DotNeon, EvaluateAllNeon, ArgMaxNeon,
                                 EvaluateArgMaxInPrefixNeon};

#endif  // GRANDMA_SIMD_X86 / GRANDMA_SIMD_NEON

bool TierSupported(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kSse2:
#if defined(GRANDMA_SIMD_X86) || defined(GRANDMA_SIMD_NEON)
      return true;
#else
      return false;
#endif
    case Tier::kAvx2:
#if defined(GRANDMA_SIMD_X86)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* TableFor(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return &kScalarTable;
    case Tier::kSse2:
#if defined(GRANDMA_SIMD_X86) || defined(GRANDMA_SIMD_NEON)
      return &kSse2Table;
#else
      return &kScalarTable;
#endif
    case Tier::kAvx2:
#if defined(GRANDMA_SIMD_X86)
      return &kAvx2Table;
#else
      return &kScalarTable;
#endif
  }
  return &kScalarTable;
}

// The startup selection: GRANDMA_SIMD env override when it names a
// supported tier, otherwise the best supported tier.
Tier StartupTier() {
  if (const char* env = std::getenv("GRANDMA_SIMD")) {
    const std::string v(env);
    Tier requested = Tier::kScalar;
    bool recognized = true;
    if (v == "scalar" || v == "off") {
      requested = Tier::kScalar;
    } else if (v == "sse2" || v == "neon") {
      requested = Tier::kSse2;
    } else if (v == "avx2") {
      requested = Tier::kAvx2;
    } else {
      recognized = false;
    }
    if (recognized && TierSupported(requested)) {
      return requested;
    }
  }
  return BestSupportedTier();
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable& Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First call (or a racing pair of first calls — both compute the same
    // table, so the double store is benign).
    table = TableFor(StartupTier());
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

}  // namespace

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
#if defined(GRANDMA_SIMD_NEON)
      return "neon";
#else
      return "sse2";
#endif
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier BestSupportedTier() {
  if (TierSupported(Tier::kAvx2)) {
    return Tier::kAvx2;
  }
  if (TierSupported(Tier::kSse2)) {
    return Tier::kSse2;
  }
  return Tier::kScalar;
}

Tier ActiveTier() { return Active().tier; }

bool ForceTier(Tier t) {
  if (!TierSupported(t)) {
    return false;
  }
  g_active.store(TableFor(t), std::memory_order_release);
  return true;
}

void ResetTier() { g_active.store(TableFor(StartupTier()), std::memory_order_release); }

double Dot(VecView a, VecView b) {
  assert(a.size() == b.size());
  return Active().dot(a.data(), b.data(), a.size());
}

double QuadraticForm(VecView x, const double* m, VecView y) {
  assert(x.size() == y.size());
  const KernelTable& table = Active();
  const std::size_t n = x.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += x[i] * table.dot(m + i * n, y.data(), n);
  }
  return sum;
}

void EvaluateAll(const double* soa, std::size_t stride, const double* biases,
                 const double* f, std::size_t dim, double* scores, std::size_t classes) {
  assert(stride >= classes);
  Active().evaluate_all(soa, stride, biases, f, dim, scores, classes);
}

std::size_t ArgMax(const double* v, std::size_t n) {
  if (n == 0) {
    return 0;
  }
  return Active().argmax(v, n);
}

bool EvaluateArgMaxInPrefix(const double* soa, std::size_t stride, const double* biases,
                            const double* f, std::size_t dim, std::size_t split,
                            std::size_t classes) {
  assert(stride >= classes);
  return Active().argmax_in_prefix(soa, stride, biases, f, dim, split, classes);
}

// --- AlignedBuffer ------------------------------------------------------

AlignedBuffer::AlignedBuffer(const AlignedBuffer& other) {
  assign(other.size_, 0.0);
  if (size_ != 0) {
    std::memcpy(data_, other.data_, size_ * sizeof(double));
  }
}

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

AlignedBuffer& AlignedBuffer::operator=(const AlignedBuffer& other) {
  if (this != &other) {
    assign(other.size_, 0.0);
    if (size_ != 0) {
      std::memcpy(data_, other.data_, size_ * sizeof(double));
    }
  }
  return *this;
}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

AlignedBuffer::~AlignedBuffer() { Release(); }

void AlignedBuffer::Release() {
  if (data_ != nullptr) {
    ::operator delete[](data_, std::align_val_t(kBlockAlignment));
    data_ = nullptr;
  }
  size_ = 0;
}

void AlignedBuffer::assign(std::size_t size, double value) {
  if (size != size_) {
    Release();
    if (size != 0) {
      data_ = static_cast<double*>(
          ::operator new[](size * sizeof(double), std::align_val_t(kBlockAlignment)));
      size_ = size;
    }
  }
  for (std::size_t i = 0; i < size_; ++i) {
    data_[i] = value;
  }
}

}  // namespace grandma::linalg::simd
