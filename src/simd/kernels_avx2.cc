// AVX2 implementations. This is the only translation unit compiled with
// -mavx2 (plus -ffp-contract=off so mul+add never fuses into FMA, which
// would change float bits vs the scalar reference); it is reached only
// after dispatch.cc's runtime CPU probe. Each function mirrors the
// structure of its _Scalar twin: the identical pinned accumulation order
// for SquaredDistance, and exact integer/whole-number arithmetic
// everywhere else, so outputs are bit-identical at both dispatch levels.

#if defined(ARDA_SIMD_COMPILED_AVX2)

#include <immintrin.h>

#include <cstring>

#include "simd/kernels.h"

namespace arda::simd::internal {

namespace {

// 64x64->64 multiply, which AVX2 lacks natively: combine the 32-bit
// cross products (Agner Fog's vectorclass sequence).
inline __m256i Mullo64(__m256i a, __m256i b) {
  const __m256i bswap = _mm256_shuffle_epi32(b, 0xB1);
  const __m256i prodlh = _mm256_mullo_epi32(a, bswap);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i prodlh2 = _mm256_hadd_epi32(prodlh, zero);
  const __m256i prodlh3 = _mm256_shuffle_epi32(prodlh2, 0x73);
  const __m256i prodll = _mm256_mul_epu32(a, b);
  return _mm256_add_epi64(prodll, prodlh3);
}

// Four-lane splitmix64 finalizer; bitwise equal to Mix64One per lane.
inline __m256i Mix64Vec(__m256i x) {
  x = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ull)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
  x = Mullo64(
      x, _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ull)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
  x = Mullo64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebull)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

}  // namespace

void TupleHashBatch_Avx2(const uint32_t* ids, size_t num_cols,
                         size_t stride, size_t n, uint64_t* out) {
  const size_t vec = n & ~size_t{3};
  const __m256i offset =
      _mm256_set1_epi64x(static_cast<long long>(kFnvOffset));
  const __m256i prime =
      _mm256_set1_epi64x(static_cast<long long>(kFnvPrime));
  for (size_t r = 0; r < vec; r += 4) {
    __m256i h = offset;
    for (size_t k = 0; k < num_cols; ++k) {
      const __m128i id32 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(ids + k * stride + r));
      h = Mullo64(_mm256_xor_si256(h, _mm256_cvtepu32_epi64(id32)), prime);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r), Mix64Vec(h));
  }
  for (size_t r = vec; r < n; ++r) {
    uint64_t h = kFnvOffset;
    for (size_t k = 0; k < num_cols; ++k) {
      h = (h ^ ids[k * stride + r]) * kFnvPrime;
    }
    out[r] = Mix64One(h);
  }
}

void ClassSquares_Avx2(const double* left_counts,
                       const double* class_counts, size_t num_classes,
                       double* left_sq, double* right_sq) {
  // Lane association differs from the scalar sequential sum, which is
  // fine on this kernel's domain: whole-number counts below 2^26 keep
  // every partial sum exact, so any order yields the same bits.
  const size_t vec = num_classes & ~size_t{3};
  double ls = 0.0;
  double rs = 0.0;
  if (vec != 0) {
    // Four accumulator pairs cut the addition-latency chain to a quarter;
    // merging them afterwards is just another exact whole-number
    // reassociation (same bits in any order on this domain).
    __m256d acc_l = _mm256_setzero_pd();
    __m256d acc_r = _mm256_setzero_pd();
    __m256d acc_l1 = _mm256_setzero_pd();
    __m256d acc_r1 = _mm256_setzero_pd();
    __m256d acc_l2 = _mm256_setzero_pd();
    __m256d acc_r2 = _mm256_setzero_pd();
    __m256d acc_l3 = _mm256_setzero_pd();
    __m256d acc_r3 = _mm256_setzero_pd();
    const size_t vec4 = num_classes & ~size_t{15};
    const size_t vec2 = num_classes & ~size_t{7};
    size_t c = 0;
    for (; c < vec4; c += 16) {
      const __m256d lc0 = _mm256_loadu_pd(left_counts + c);
      const __m256d cc0 = _mm256_loadu_pd(class_counts + c);
      const __m256d rc0 = _mm256_sub_pd(cc0, lc0);
      acc_l = _mm256_add_pd(acc_l, _mm256_mul_pd(lc0, lc0));
      acc_r = _mm256_add_pd(acc_r, _mm256_mul_pd(rc0, rc0));
      const __m256d lc1 = _mm256_loadu_pd(left_counts + c + 4);
      const __m256d cc1 = _mm256_loadu_pd(class_counts + c + 4);
      const __m256d rc1 = _mm256_sub_pd(cc1, lc1);
      acc_l1 = _mm256_add_pd(acc_l1, _mm256_mul_pd(lc1, lc1));
      acc_r1 = _mm256_add_pd(acc_r1, _mm256_mul_pd(rc1, rc1));
      const __m256d lc2 = _mm256_loadu_pd(left_counts + c + 8);
      const __m256d cc2 = _mm256_loadu_pd(class_counts + c + 8);
      const __m256d rc2 = _mm256_sub_pd(cc2, lc2);
      acc_l2 = _mm256_add_pd(acc_l2, _mm256_mul_pd(lc2, lc2));
      acc_r2 = _mm256_add_pd(acc_r2, _mm256_mul_pd(rc2, rc2));
      const __m256d lc3 = _mm256_loadu_pd(left_counts + c + 12);
      const __m256d cc3 = _mm256_loadu_pd(class_counts + c + 12);
      const __m256d rc3 = _mm256_sub_pd(cc3, lc3);
      acc_l3 = _mm256_add_pd(acc_l3, _mm256_mul_pd(lc3, lc3));
      acc_r3 = _mm256_add_pd(acc_r3, _mm256_mul_pd(rc3, rc3));
    }
    for (; c < vec2; c += 8) {
      const __m256d lc0 = _mm256_loadu_pd(left_counts + c);
      const __m256d cc0 = _mm256_loadu_pd(class_counts + c);
      const __m256d rc0 = _mm256_sub_pd(cc0, lc0);
      acc_l = _mm256_add_pd(acc_l, _mm256_mul_pd(lc0, lc0));
      acc_r = _mm256_add_pd(acc_r, _mm256_mul_pd(rc0, rc0));
      const __m256d lc1 = _mm256_loadu_pd(left_counts + c + 4);
      const __m256d cc1 = _mm256_loadu_pd(class_counts + c + 4);
      const __m256d rc1 = _mm256_sub_pd(cc1, lc1);
      acc_l1 = _mm256_add_pd(acc_l1, _mm256_mul_pd(lc1, lc1));
      acc_r1 = _mm256_add_pd(acc_r1, _mm256_mul_pd(rc1, rc1));
    }
    for (; c < vec; c += 4) {
      const __m256d lc = _mm256_loadu_pd(left_counts + c);
      const __m256d cc = _mm256_loadu_pd(class_counts + c);
      const __m256d rc = _mm256_sub_pd(cc, lc);
      acc_l = _mm256_add_pd(acc_l, _mm256_mul_pd(lc, lc));
      acc_r = _mm256_add_pd(acc_r, _mm256_mul_pd(rc, rc));
    }
    acc_l = _mm256_add_pd(_mm256_add_pd(acc_l, acc_l2),
                          _mm256_add_pd(acc_l1, acc_l3));
    acc_r = _mm256_add_pd(_mm256_add_pd(acc_r, acc_r2),
                          _mm256_add_pd(acc_r1, acc_r3));
    const __m128d l2 = _mm_add_pd(_mm256_castpd256_pd128(acc_l),
                                  _mm256_extractf128_pd(acc_l, 1));
    const __m128d r2 = _mm_add_pd(_mm256_castpd256_pd128(acc_r),
                                  _mm256_extractf128_pd(acc_r, 1));
    ls = _mm_cvtsd_f64(l2) + _mm_cvtsd_f64(_mm_unpackhi_pd(l2, l2));
    rs = _mm_cvtsd_f64(r2) + _mm_cvtsd_f64(_mm_unpackhi_pd(r2, r2));
  }
  for (size_t c = vec; c < num_classes; ++c) {
    const double lc = left_counts[c];
    const double rc = class_counts[c] - lc;
    ls += lc * lc;
    rs += rc * rc;
  }
  *left_sq = ls;
  *right_sq = rs;
}

void GatherValsTargets_Avx2(const double* col, const double* y,
                            const uint32_t* idx, size_t n, double* vals,
                            double* ys) {
  const size_t vec = n & ~size_t{3};
  for (size_t i = 0; i < vec; i += 4) {
    const __m128i id32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    _mm256_storeu_pd(vals + i, _mm256_i32gather_pd(col, id32, 8));
    _mm256_storeu_pd(ys + i, _mm256_i32gather_pd(y, id32, 8));
  }
  for (size_t i = vec; i < n; ++i) {
    const size_t row = idx[i];
    vals[i] = col[row];
    ys[i] = y[row];
  }
}

void SquaredDistanceToMany_Avx2(const double* query, const double* base,
                                size_t num_points, size_t dims,
                                double* out) {
  // Vectorizes ACROSS rows: four points are in flight at once, each with
  // its own accumulator whose lanes run exactly the scalar reference's
  // s0..s3 partial sums for that point. Per point the operation sequence
  // (and therefore every float bit) is identical to SquaredDistance — the
  // batch form only breaks the addition latency chain by interleaving
  // four independent chains, which is where the speedup comes from.
  const size_t vec = dims & ~size_t{3};
  size_t p = 0;
  if (vec != 0) {
    // Six rows per block: six independent addition chains are enough to
    // keep both FP add ports busy, while the working set (6 accumulators,
    // the query block, and a couple of temporaries) still fits the 16
    // ymm registers — an 8-row variant measurably spills.
    for (; p + 6 <= num_points; p += 6) {
      const double* b0 = base + p * dims;
      const double* b1 = b0 + dims;
      const double* b2 = b1 + dims;
      const double* b3 = b2 + dims;
      const double* b4 = b3 + dims;
      const double* b5 = b4 + dims;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      __m256d acc4 = _mm256_setzero_pd();
      __m256d acc5 = _mm256_setzero_pd();
      for (size_t i = 0; i < vec; i += 4) {
        const __m256d q = _mm256_loadu_pd(query + i);
        const __m256d d0 = _mm256_sub_pd(q, _mm256_loadu_pd(b0 + i));
        const __m256d d1 = _mm256_sub_pd(q, _mm256_loadu_pd(b1 + i));
        const __m256d d2 = _mm256_sub_pd(q, _mm256_loadu_pd(b2 + i));
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
        const __m256d d3 = _mm256_sub_pd(q, _mm256_loadu_pd(b3 + i));
        const __m256d d4 = _mm256_sub_pd(q, _mm256_loadu_pd(b4 + i));
        const __m256d d5 = _mm256_sub_pd(q, _mm256_loadu_pd(b5 + i));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
        acc4 = _mm256_add_pd(acc4, _mm256_mul_pd(d4, d4));
        acc5 = _mm256_add_pd(acc5, _mm256_mul_pd(d5, d5));
      }
      // The same (s0+s2) + (s1+s3) fold as the single-pair kernel.
      const __m256d accs[6] = {acc0, acc1, acc2, acc3, acc4, acc5};
      const double* rows[6] = {b0, b1, b2, b3, b4, b5};
      for (int j = 0; j < 6; ++j) {
        const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(accs[j]),
                                     _mm256_extractf128_pd(accs[j], 1));
        double total =
            _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
        for (size_t i = vec; i < dims; ++i) {
          const double d = query[i] - rows[j][i];
          total += d * d;
        }
        out[p + static_cast<size_t>(j)] = total;
      }
    }
  }
  for (; p < num_points; ++p) {
    out[p] = SquaredDistance_Avx2(query, base + p * dims, dims);
  }
}

double SquaredDistance_Avx2(const double* a, const double* b, size_t n) {
  const size_t vec = n & ~size_t{3};
  double total;
  if (vec == 0) {
    total = 0.0;
  } else {
    // Lane j of acc runs exactly the scalar reference's s<j> sum; the
    // fold below is the scalar (s0+s2) + (s1+s3). mul then add, never
    // FMA, so the bits match the scalar path.
    __m256d acc = _mm256_setzero_pd();
    for (size_t i = 0; i < vec; i += 4) {
      const __m256d d =
          _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                 _mm256_extractf128_pd(acc, 1));
    total = _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
  for (size_t i = vec; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

void DecodeU64LeToDouble_Avx2(const char* src, size_t n, double* dst) {
  // x86 is little-endian, so the LE wire format is a straight copy; the
  // win over the scalar byte-reconstruction loop is the 32-byte moves.
  const size_t vec = n & ~size_t{3};
  for (size_t i = 0; i < vec; i += 4) {
    _mm256_storeu_pd(
        dst + i,
        _mm256_loadu_pd(reinterpret_cast<const double*>(src + i * 8)));
  }
  for (size_t i = vec; i < n; ++i) {
    std::memcpy(dst + i, src + i * 8, sizeof(double));
  }
}

void DecodeU64LeToInt64_Avx2(const char* src, size_t n, int64_t* dst) {
  const size_t vec = n & ~size_t{3};
  for (size_t i = 0; i < vec; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(src + i * 8)));
  }
  for (size_t i = vec; i < n; ++i) {
    std::memcpy(dst + i, src + i * 8, sizeof(int64_t));
  }
}

}  // namespace arda::simd::internal

#endif  // ARDA_SIMD_COMPILED_AVX2
