/**
 * @file
 * AVX2 microkernels.
 *
 * This translation unit is compiled with -mavx2 -ffp-contract=off
 * (see src/CMakeLists.txt). -ffp-contract=off is load-bearing: the
 * float kernels pair _mm256_mul_ps with _mm256_add_ps to reproduce the
 * scalar reference's two-rounding multiply-then-add per accumulation
 * step, and the compiler must not contract that pair into a fused
 * multiply-add (a toolchain that enables FMA by default would
 * otherwise change the bits).
 *
 * Vectorization here is always across independent output elements
 * (the j/column axis); each element's accumulation starts from its
 * value in `out` and still walks l in ascending order, so results are
 * memcmp-identical to kernels::gemmTileScalar for any blocking.
 */

#if defined(VITDYN_HAVE_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "tensor/kernels/kernels.hh"

namespace vitdyn
{

namespace
{

/**
 * R rows x 8 columns of the exact tile. With Masked, only the lanes
 * set in @p mask are loaded and stored (masked-out lanes never touch
 * memory). Each live lane performs the scalar mul-then-add sequence
 * over ascending l.
 */
template <int R, bool Masked>
inline void
exactRows8(const float *w, int64_t ldw, const float *col, int64_t ldc,
           float *out, int64_t ldo, int64_t len, __m256i mask)
{
    __m256 acc[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        acc[r] = Masked ? _mm256_maskload_ps(out + r * ldo, mask)
                        : _mm256_loadu_ps(out + r * ldo);
    for (int64_t l = 0; l < len; ++l) {
        const float *crow = col + l * ldc;
        const __m256 c = Masked ? _mm256_maskload_ps(crow, mask)
                                : _mm256_loadu_ps(crow);
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            acc[r] = _mm256_add_ps(
                acc[r], _mm256_mul_ps(_mm256_set1_ps(w[r * ldw + l]), c));
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
        if (Masked)
            _mm256_maskstore_ps(out + r * ldo, mask, acc[r]);
        else
            _mm256_storeu_ps(out + r * ldo, acc[r]);
    }
}

/** exactRows8 over 1-8 columns: a partial block runs masked, so
 *  narrow blocks and 1-7 column tails stay vectorized. */
template <int R>
inline void
exactRows(const float *w, int64_t ldw, const float *col, int64_t ldc,
          float *out, int64_t ldo, int64_t len, int64_t cols)
{
    if (cols == 8) {
        exactRows8<R, false>(w, ldw, col, ldc, out, ldo, len, __m256i{});
        return;
    }
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    exactRows8<R, true>(w, ldw, col, ldc, out, ldo, len, mask);
}

void
gemmTileExactAvx2(const float *w, int64_t ldw, const float *col,
                  int64_t ldc, float *out, int64_t ldo, int64_t kb,
                  int64_t jb, int64_t len)
{
    int64_t j = 0;
    // 4-row x 16-column register tile: 8 accumulators, 2 column
    // loads shared across the 4 rows per l step.
    for (; j + 16 <= jb; j += 16) {
        int64_t i = 0;
        for (; i + 4 <= kb; i += 4) {
            float *o = out + i * ldo + j;
            __m256 a0l = _mm256_loadu_ps(o);
            __m256 a0h = _mm256_loadu_ps(o + 8);
            __m256 a1l = _mm256_loadu_ps(o + ldo);
            __m256 a1h = _mm256_loadu_ps(o + ldo + 8);
            __m256 a2l = _mm256_loadu_ps(o + 2 * ldo);
            __m256 a2h = _mm256_loadu_ps(o + 2 * ldo + 8);
            __m256 a3l = _mm256_loadu_ps(o + 3 * ldo);
            __m256 a3h = _mm256_loadu_ps(o + 3 * ldo + 8);
            const float *w0 = w + (i + 0) * ldw;
            const float *w1 = w + (i + 1) * ldw;
            const float *w2 = w + (i + 2) * ldw;
            const float *w3 = w + (i + 3) * ldw;
            for (int64_t l = 0; l < len; ++l) {
                const float *crow = col + l * ldc + j;
                const __m256 cl = _mm256_loadu_ps(crow);
                const __m256 ch = _mm256_loadu_ps(crow + 8);
                const __m256 v0 = _mm256_set1_ps(w0[l]);
                a0l = _mm256_add_ps(a0l, _mm256_mul_ps(v0, cl));
                a0h = _mm256_add_ps(a0h, _mm256_mul_ps(v0, ch));
                const __m256 v1 = _mm256_set1_ps(w1[l]);
                a1l = _mm256_add_ps(a1l, _mm256_mul_ps(v1, cl));
                a1h = _mm256_add_ps(a1h, _mm256_mul_ps(v1, ch));
                const __m256 v2 = _mm256_set1_ps(w2[l]);
                a2l = _mm256_add_ps(a2l, _mm256_mul_ps(v2, cl));
                a2h = _mm256_add_ps(a2h, _mm256_mul_ps(v2, ch));
                const __m256 v3 = _mm256_set1_ps(w3[l]);
                a3l = _mm256_add_ps(a3l, _mm256_mul_ps(v3, cl));
                a3h = _mm256_add_ps(a3h, _mm256_mul_ps(v3, ch));
            }
            _mm256_storeu_ps(o, a0l);
            _mm256_storeu_ps(o + 8, a0h);
            _mm256_storeu_ps(o + ldo, a1l);
            _mm256_storeu_ps(o + ldo + 8, a1h);
            _mm256_storeu_ps(o + 2 * ldo, a2l);
            _mm256_storeu_ps(o + 2 * ldo + 8, a2h);
            _mm256_storeu_ps(o + 3 * ldo, a3l);
            _mm256_storeu_ps(o + 3 * ldo + 8, a3h);
        }
        for (; i < kb; ++i) {
            float *o = out + i * ldo + j;
            __m256 al = _mm256_loadu_ps(o);
            __m256 ah = _mm256_loadu_ps(o + 8);
            const float *wr = w + i * ldw;
            for (int64_t l = 0; l < len; ++l) {
                const float *crow = col + l * ldc + j;
                const __m256 v = _mm256_set1_ps(wr[l]);
                al = _mm256_add_ps(al,
                                   _mm256_mul_ps(v, _mm256_loadu_ps(crow)));
                ah = _mm256_add_ps(
                    ah, _mm256_mul_ps(v, _mm256_loadu_ps(crow + 8)));
            }
            _mm256_storeu_ps(o, al);
            _mm256_storeu_ps(o + 8, ah);
        }
    }
    // Narrow blocks (few tokens, few keys): 8 columns, or a masked
    // tail of 1-7, by 4 rows, so four independent accumulation chains
    // are in flight instead of one.
    for (; j < jb; j += 8) {
        const int64_t cols = std::min<int64_t>(8, jb - j);
        int64_t i = 0;
        for (; i + 4 <= kb; i += 4)
            exactRows<4>(w + i * ldw, ldw, col + j, ldc, out + i * ldo + j,
                         ldo, len, cols);
        for (; i < kb; ++i)
            exactRows<1>(w + i * ldw, ldw, col + j, ldc, out + i * ldo + j,
                         ldo, len, cols);
    }
}

void
axpyAvx2(float a, const float *x, float *y, int64_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 yv = _mm256_loadu_ps(y + j);
        _mm256_storeu_ps(
            y + j,
            _mm256_add_ps(yv, _mm256_mul_ps(av, _mm256_loadu_ps(x + j))));
    }
    for (; j < n; ++j)
        y[j] += a * x[j];
}

int64_t
dotS8Avx2(const int8_t *a, const int8_t *b, int64_t n)
{
    // Each pmaddwd lane accumulates 2 products of magnitude <= 127^2,
    // i.e. <= 32258; with two pmaddwd results folded per 32-element
    // step a lane grows by <= 64516, so flushing the int32
    // accumulator to int64 every 8192 steps stays far below 2^31.
    constexpr int64_t kFlushSteps = 8192;
    int64_t total = 0;
    int64_t i = 0;
    while (i + 32 <= n) {
        __m256i acc = _mm256_setzero_si256();
        int64_t steps = (n - i) / 32;
        if (steps > kFlushSteps)
            steps = kFlushSteps;
        for (int64_t s = 0; s < steps; ++s, i += 32) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i));
            const __m256i a16lo =
                _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
            const __m256i a16hi =
                _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
            const __m256i b16lo =
                _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
            const __m256i b16hi =
                _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16lo, b16lo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16hi, b16hi));
        }
        alignas(32) int32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (int lane = 0; lane < 8; ++lane)
            total += lanes[lane];
    }
    for (; i < n; ++i)
        total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    return total;
}

void
quantizeAvx2(const float *x, float inv_scale, int8_t *q, int64_t n)
{
    // std::round is half-away-from-zero; _mm256_round_ps is
    // half-to-even, so emulate: f = floor(|t|), frac = |t| - f (exact
    // since floor(a) and a share an exponent neighborhood), bump when
    // frac >= 0.5, then restore the sign bit. The min/max operand
    // order reproduces the scalar std::min/std::max chain exactly,
    // including NaN -> 127.
    const __m256 inv = _mm256_set1_ps(inv_scale);
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 sign_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000u));
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 hi = _mm256_set1_ps(127.0f);
    const __m256 lo = _mm256_set1_ps(-127.0f);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(x + i), inv);
        const __m256 a = _mm256_and_ps(t, abs_mask);
        const __m256 f = _mm256_floor_ps(a);
        const __m256 frac = _mm256_sub_ps(a, f);
        const __m256 bump =
            _mm256_and_ps(_mm256_cmp_ps(frac, half, _CMP_GE_OQ), one);
        __m256 r = _mm256_add_ps(f, bump);
        r = _mm256_or_ps(r, _mm256_and_ps(t, sign_mask));
        // min(v, 127): NaN in v yields 127 (minps returns the second
        // operand on NaN), matching std::min(127.0f, v).
        r = _mm256_max_ps(_mm256_min_ps(r, hi), lo);
        const __m256i q32 = _mm256_cvtps_epi32(r);
        const __m128i p16 = _mm_packs_epi32(
            _mm256_castsi256_si128(q32), _mm256_extracti128_si256(q32, 1));
        const __m128i p8 = _mm_packs_epi16(p16, p16);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(q + i), p8);
    }
    for (; i < n; ++i) {
        const float v = std::round(x[i] * inv_scale);
        q[i] = static_cast<int8_t>(
            std::max(-127.0f, std::min(127.0f, v)));
    }
}

void
dequantizeAvx2(const int8_t *q, float scale, float *out, int64_t n)
{
    const __m256 sv = _mm256_set1_ps(scale);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i q8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(q + i));
        const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q8));
        _mm256_storeu_ps(out + i, _mm256_mul_ps(f, sv));
    }
    for (; i < n; ++i)
        out[i] = q[i] * scale;
}

const Microkernels kAvx2Kernels = {
    IsaLevel::Avx2, gemmTileExactAvx2, axpyAvx2,      dotS8Avx2,
    quantizeAvx2,   dequantizeAvx2,
};

} // namespace

const Microkernels &
avx2Microkernels()
{
    return kAvx2Kernels;
}

} // namespace vitdyn

#endif // VITDYN_HAVE_KERNELS_AVX2
