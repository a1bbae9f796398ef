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
 * memcmp-identical to kernels::gemmTileScalar for any blocking. GELU
 * runs tanh_lanes.hh's fdlibm port on 8 lanes (the lane types below);
 * the depthwise conv and the bilinear resize vectorize across output
 * elements with masked taps and permuted taps (kernels.hh says why
 * each is exact).
 */

#if defined(VITDYN_HAVE_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <type_traits>

#include "tensor/kernels/kernels.hh"
#include "tensor/kernels/tanh_lanes.hh"

namespace vitdyn
{

namespace
{

// 8-lane types for tanh_lanes.hh (its file comment lists the contract).
struct Mask8
{
    __m256i v;
};

struct F32x8
{
    static constexpr int64_t kWidth = 8;
    __m256 v;
    F32x8(__m256 x) : v(x) {}
    F32x8(float s) : v(_mm256_set1_ps(s)) {}
    static F32x8 load(const float *p) { return _mm256_loadu_ps(p); }
    void store(float *p) const { _mm256_storeu_ps(p, v); }
};

struct I32x8
{
    __m256i v;
    I32x8(__m256i x) : v(x) {}
    I32x8(int32_t s) : v(_mm256_set1_epi32(s)) {}
};

inline F32x8 operator+(F32x8 a, F32x8 b) { return _mm256_add_ps(a.v, b.v); }
inline F32x8 operator-(F32x8 a, F32x8 b) { return _mm256_sub_ps(a.v, b.v); }
inline F32x8 operator*(F32x8 a, F32x8 b) { return _mm256_mul_ps(a.v, b.v); }
inline F32x8 operator/(F32x8 a, F32x8 b) { return _mm256_div_ps(a.v, b.v); }
inline F32x8
operator-(F32x8 a)
{
    return _mm256_xor_ps(a.v, _mm256_set1_ps(-0.0f));
}

inline I32x8 operator+(I32x8 a, I32x8 b) { return _mm256_add_epi32(a.v, b.v); }
inline I32x8 operator-(I32x8 a, I32x8 b) { return _mm256_sub_epi32(a.v, b.v); }
inline I32x8 operator&(I32x8 a, I32x8 b) { return _mm256_and_si256(a.v, b.v); }
inline Mask8
operator>(I32x8 a, I32x8 b)
{
    return {_mm256_cmpgt_epi32(a.v, b.v)};
}
inline Mask8
operator<(I32x8 a, I32x8 b)
{
    return {_mm256_cmpgt_epi32(b.v, a.v)};
}
inline Mask8
operator==(I32x8 a, I32x8 b)
{
    return {_mm256_cmpeq_epi32(a.v, b.v)};
}
inline Mask8
operator>=(I32x8 a, I32x8 b)
{
    return {_mm256_xor_si256((a < b).v, _mm256_set1_epi32(-1))};
}
inline Mask8
operator<=(I32x8 a, I32x8 b)
{
    return {_mm256_xor_si256((a > b).v, _mm256_set1_epi32(-1))};
}

inline I32x8 bitsOf(F32x8 a) { return _mm256_castps_si256(a.v); }
inline F32x8 floatOf(I32x8 a) { return _mm256_castsi256_ps(a.v); }
inline F32x8 toFloat(I32x8 a) { return _mm256_cvtepi32_ps(a.v); }
inline I32x8 truncToInt(F32x8 a) { return _mm256_cvttps_epi32(a.v); }
inline I32x8 shl23(I32x8 a) { return _mm256_slli_epi32(a.v, 23); }
inline I32x8 srlv(I32x8 a, I32x8 n) { return _mm256_srlv_epi32(a.v, n.v); }
inline F32x8
select(Mask8 m, F32x8 a, F32x8 b)
{
    return _mm256_blendv_ps(b.v, a.v, _mm256_castsi256_ps(m.v));
}
inline I32x8
select(Mask8 m, I32x8 a, I32x8 b)
{
    return _mm256_blendv_epi8(b.v, a.v, m.v);
}

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

void
geluAvx2(const float *x, float *y, int64_t n)
{
    lanes::geluSpan<F32x8>(x, y, n);
}

/** Lanes [0, n) of an 8-lane mask vector, any n. */
inline __m256i
lanes8(int64_t n)
{
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int32_t>(std::min<int64_t>(n, 8))),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** Lane-wise unsigned a < b of biased operands (x ^ 0x80000000). */
inline __m256i
ltBiased(__m256i a, __m256i b)
{
    return _mm256_cmpgt_epi32(b, a);
}

/** Largest kernel side the depthwise vector body takes. */
constexpr int64_t kDwMaxSide = 16;

/**
 * U planes of a stride-1 depthwise conv whose output rows are as wide
 * as its input rows (q == w), lanes over the flattened output plane;
 * kernels_avx512.cc's depthwisePlanes spells out the tap tests. AVX2
 * has no unsigned compare, so both tests compare operands biased by
 * 2^31, and the masked add is a blend.
 */
template <int U>
inline void
depthwisePlanes(const DepthwiseGeom &g, const float *in, int64_t in_stride,
                const float *wk, const float *bias, float *out,
                __m256i col0)
{
    const int64_t pq = g.p * g.q;
    const int64_t taps = g.r * g.s;
    const __m256i sign = _mm256_set1_epi32(INT32_MIN);
    const __m256i hw = _mm256_xor_si256(
        _mm256_set1_epi32(static_cast<int32_t>(g.h * g.w)), sign);
    const __m256i width = _mm256_set1_epi32(static_cast<int32_t>(g.w));
    const __m256i width_b = _mm256_xor_si256(width, sign);
    const __m256i step = _mm256_set1_epi32(static_cast<int32_t>(8 % g.w));
    // Biased lane index: lane l holds (i + l) ^ 2^31.
    __m256i idx = _mm256_xor_si256(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                   sign);
    __m256i col = col0;
    for (int64_t i = 0; i < pq; i += 8) {
        const __m256i col_b = _mm256_xor_si256(col, sign);
        __m256i rows[kDwMaxSide];
        __m256i cols[kDwMaxSide];
        for (int64_t rr = 0; rr < g.r; ++rr)
            rows[rr] = ltBiased(
                _mm256_add_epi32(idx, _mm256_set1_epi32(static_cast<int32_t>(
                                          (rr - g.padH) * g.w))),
                hw);
        for (int64_t ss = 0; ss < g.s; ++ss)
            cols[ss] = ltBiased(
                _mm256_add_epi32(col_b, _mm256_set1_epi32(
                                            static_cast<int32_t>(ss - g.padW))),
                width_b);
        __m256 acc[U];
#pragma GCC unroll 8
        for (int u = 0; u < U; ++u)
            acc[u] = _mm256_set1_ps(bias ? bias[u] : 0.0f);
        for (int64_t rr = 0; rr < g.r; ++rr) {
            if (_mm256_testz_si256(rows[rr], rows[rr]))
                continue;
            for (int64_t ss = 0; ss < g.s; ++ss) {
                const __m256i m = _mm256_and_si256(rows[rr], cols[ss]);
                if (_mm256_testz_si256(m, m))
                    continue;
                const __m256 mf = _mm256_castsi256_ps(m);
                const int64_t off = i + (rr - g.padH) * g.w + ss - g.padW;
                const int64_t t = rr * g.s + ss;
#pragma GCC unroll 8
                for (int u = 0; u < U; ++u) {
                    const __m256 x =
                        _mm256_maskload_ps(in + u * in_stride + off, m);
                    const __m256 sum = _mm256_add_ps(
                        acc[u],
                        _mm256_mul_ps(x, _mm256_set1_ps(wk[u * taps + t])));
                    acc[u] = _mm256_blendv_ps(acc[u], sum, mf);
                }
            }
        }
        const __m256i live = lanes8(pq - i);
#pragma GCC unroll 8
        for (int u = 0; u < U; ++u)
            _mm256_maskstore_ps(out + u * pq + i, live, acc[u]);
        idx = _mm256_add_epi32(idx, _mm256_set1_epi32(8));
        // Advance each lane's column by 8 (mod w): one subtraction
        // suffices since 8 % w and the column are both below w.
        col = _mm256_add_epi32(col, step);
        col = _mm256_sub_epi32(
            col, _mm256_andnot_si256(_mm256_cmpgt_epi32(width, col), width));
    }
}

void
depthwiseAvx2(const DepthwiseGeom &g, const float *in, int64_t in_stride,
              const float *wk, const float *bias, float *out, int64_t planes)
{
    if (g.strideH != 1 || g.strideW != 1 || g.q != g.w ||
        g.r > kDwMaxSide || g.s > kDwMaxSide ||
        g.h * g.w > (int64_t{1} << 30)) {
        kernels::depthwiseScalar(g, in, in_stride, wk, bias, out, planes);
        return;
    }
    alignas(32) int32_t first[8];
    for (int lane = 0; lane < 8; ++lane)
        first[lane] = static_cast<int32_t>(lane % g.w);
    const __m256i col0 =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(first));
    const int64_t taps = g.r * g.s;
    const int64_t pq = g.p * g.q;
    // Eight planes in flight; the 1-7 plane rest runs as 4 + 2 + 1.
    const auto run = [&](auto planes_in_flight, int64_t u) {
        constexpr int kU = decltype(planes_in_flight)::value;
        depthwisePlanes<kU>(g, in + u * in_stride, in_stride,
                            wk + u * taps, bias ? bias + u : nullptr,
                            out + u * pq, col0);
    };
    int64_t u = 0;
    for (; u + 8 <= planes; u += 8)
        run(std::integral_constant<int, 8>{}, u);
    if (u + 4 <= planes) {
        run(std::integral_constant<int, 4>{}, u);
        u += 4;
    }
    if (u + 2 <= planes) {
        run(std::integral_constant<int, 2>{}, u);
        u += 2;
    }
    if (u < planes)
        run(std::integral_constant<int, 1>{}, u);
}

/**
 * Lane l of the N-register source row @p a at column idx[l] < 8 * N:
 * permute each register by the column's low three bits and, for
 * N = 2, blend by its bit 3.
 */
template <int N>
inline __m256
pickColumn(const __m256 *a, __m256i idx)
{
    if constexpr (N == 1)
        return _mm256_permutevar8x32_ps(a[0], idx);
    else
        return _mm256_blendv_ps(
            _mm256_permutevar8x32_ps(a[0], idx),
            _mm256_permutevar8x32_ps(a[1], idx),
            _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28)));
}

/**
 * Bilinear resize, lanes over output columns. Source rows of at most
 * 8 or 16 columns sit in N = 1 or 2 registers after their multiply by
 * the row weight, and pickColumn selects each lane's taps, so a
 * lane's products and sums are the reference expression's, in order.
 */
template <int N>
void
bilinearRows(const BilinearTaps &t, const float *in, float *out,
             int64_t planes)
{
    __m256i row_lanes[N];
    for (int k = 0; k < N; ++k)
        row_lanes[k] = lanes8(t.w - 8 * k);
    for (int64_t u = 0; u < planes; ++u) {
        const float *plane = in + u * t.h * t.w;
        float *dst = out + u * t.outH * t.outW;
        for (int64_t i = 0; i < t.outH; ++i) {
            const float *row0 = plane + t.row0[i] * t.w;
            const float *row1 = plane + t.row1[i] * t.w;
            const __m256 gh0 = _mm256_set1_ps(t.rowW0[i]);
            const __m256 gh1 = _mm256_set1_ps(t.rowW1[i]);
            __m256 a0[N];
            __m256 a1[N];
            for (int k = 0; k < N; ++k) {
                a0[k] = _mm256_mul_ps(
                    _mm256_maskload_ps(row0 + 8 * k, row_lanes[k]), gh0);
                a1[k] = _mm256_mul_ps(
                    _mm256_maskload_ps(row1 + 8 * k, row_lanes[k]), gh1);
            }
            float *orow = dst + i * t.outW;
            for (int64_t j = 0; j < t.outW; j += 8) {
                const __m256i live = lanes8(t.outW - j);
                const __m256i c0 = _mm256_maskload_epi32(t.col0 + j, live);
                const __m256i c1 = _mm256_maskload_epi32(t.col1 + j, live);
                const __m256 gw0 = _mm256_maskload_ps(t.colW0 + j, live);
                const __m256 gw1 = _mm256_maskload_ps(t.colW1 + j, live);
                const __m256 v00 = pickColumn<N>(a0, c0);
                const __m256 v01 = pickColumn<N>(a0, c1);
                const __m256 v10 = pickColumn<N>(a1, c0);
                const __m256 v11 = pickColumn<N>(a1, c1);
                __m256 v = _mm256_mul_ps(v00, gw0);
                v = _mm256_add_ps(v, _mm256_mul_ps(v01, gw1));
                v = _mm256_add_ps(v, _mm256_mul_ps(v10, gw0));
                v = _mm256_add_ps(v, _mm256_mul_ps(v11, gw1));
                _mm256_maskstore_ps(orow + j, live, v);
            }
        }
    }
}

void
bilinearAvx2(const BilinearTaps &t, const float *in, float *out,
             int64_t planes)
{
    // Wider source rows run the scalar reference. On B2's 24-column
    // FinalUpsample, AVX2 gathers measured slower than it, and a
    // four-register pick with two blend levels no faster than those.
    if (t.w <= 8)
        bilinearRows<1>(t, in, out, planes);
    else if (t.w <= 16)
        bilinearRows<2>(t, in, out, planes);
    else
        kernels::bilinearScalar(t, in, out, planes);
}

const Microkernels kAvx2Kernels = {
    IsaLevel::Avx2,  gemmTileExactAvx2, axpyAvx2,       dotS8Avx2,
    quantizeAvx2,    dequantizeAvx2,    geluAvx2,       depthwiseAvx2,
    bilinearAvx2,
};

} // namespace

const Microkernels &
avx2Microkernels()
{
    return kAvx2Kernels;
}

} // namespace vitdyn

#endif // VITDYN_HAVE_KERNELS_AVX2
