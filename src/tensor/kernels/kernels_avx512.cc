/**
 * @file
 * AVX-512F GEMM tile, GELU, depthwise conv and bilinear resize.
 *
 * This translation unit is compiled with -mavx512f -ffp-contract=off
 * (see src/CMakeLists.txt). -mavx512f implies FMA, so
 * -ffp-contract=off is load-bearing: the tile pairs _mm512_mul_ps
 * with _mm512_add_ps to reproduce the scalar reference's two-rounding
 * multiply-then-add per accumulation step, and the compiler must not
 * contract that pair into a fused multiply-add.
 *
 * As in kernels_avx2.cc, vectorization is across independent output
 * columns; each element starts from its value in `out` and walks l in
 * ascending order, so results are memcmp-identical to
 * kernels::gemmTileScalar for any blocking. The GEMM tile, GELU
 * (tanh_lanes.hh's fdlibm port on 16 lanes), the depthwise conv
 * (masked taps over a flattened plane) and the bilinear resize (taps
 * picked by permutes) have AVX-512 bodies: the other entries (axpy,
 * int8 dot, quantize) are off the hot path and reuse the AVX2 kernels.
 */

#if defined(VITDYN_HAVE_KERNELS_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

#include "tensor/kernels/kernels.hh"
#include "tensor/kernels/tanh_lanes.hh"

namespace vitdyn
{

const Microkernels &avx2Microkernels();

namespace
{

// 16-lane types for tanh_lanes.hh (its file comment lists the
// contract). AVX-512F alone has no float-domain logic ops (they are
// AVX-512DQ), so negation flips the sign bit in the integer domain.
struct Mask16
{
    __mmask16 v;
};

struct F32x16
{
    static constexpr int64_t kWidth = 16;
    __m512 v;
    F32x16(__m512 x) : v(x) {}
    F32x16(float s) : v(_mm512_set1_ps(s)) {}
    static F32x16 load(const float *p) { return _mm512_loadu_ps(p); }
    void store(float *p) const { _mm512_storeu_ps(p, v); }
};

struct I32x16
{
    __m512i v;
    I32x16(__m512i x) : v(x) {}
    I32x16(int32_t s) : v(_mm512_set1_epi32(s)) {}
};

inline F32x16
operator+(F32x16 a, F32x16 b)
{
    return _mm512_add_ps(a.v, b.v);
}
inline F32x16
operator-(F32x16 a, F32x16 b)
{
    return _mm512_sub_ps(a.v, b.v);
}
inline F32x16
operator*(F32x16 a, F32x16 b)
{
    return _mm512_mul_ps(a.v, b.v);
}
inline F32x16
operator/(F32x16 a, F32x16 b)
{
    return _mm512_div_ps(a.v, b.v);
}
inline F32x16
operator-(F32x16 a)
{
    return _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(a.v),
        _mm512_set1_epi32(static_cast<int32_t>(0x80000000u))));
}

inline I32x16
operator+(I32x16 a, I32x16 b)
{
    return _mm512_add_epi32(a.v, b.v);
}
inline I32x16
operator-(I32x16 a, I32x16 b)
{
    return _mm512_sub_epi32(a.v, b.v);
}
inline I32x16
operator&(I32x16 a, I32x16 b)
{
    return _mm512_and_si512(a.v, b.v);
}
inline Mask16
operator<(I32x16 a, I32x16 b)
{
    return {_mm512_cmp_epi32_mask(a.v, b.v, _MM_CMPINT_LT)};
}
inline Mask16
operator<=(I32x16 a, I32x16 b)
{
    return {_mm512_cmp_epi32_mask(a.v, b.v, _MM_CMPINT_LE)};
}
inline Mask16
operator>(I32x16 a, I32x16 b)
{
    return {_mm512_cmp_epi32_mask(a.v, b.v, _MM_CMPINT_NLE)};
}
inline Mask16
operator>=(I32x16 a, I32x16 b)
{
    return {_mm512_cmp_epi32_mask(a.v, b.v, _MM_CMPINT_NLT)};
}
inline Mask16
operator==(I32x16 a, I32x16 b)
{
    return {_mm512_cmp_epi32_mask(a.v, b.v, _MM_CMPINT_EQ)};
}

// GCC 12's avx512fintrin.h passes a self-initialized
// _mm512_undefined_*() as the unused merge operand of these four
// intrinsics, which -Wmaybe-uninitialized reports once they inline.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
inline I32x16 bitsOf(F32x16 a) { return _mm512_castps_si512(a.v); }
inline F32x16 floatOf(I32x16 a) { return _mm512_castsi512_ps(a.v); }
inline F32x16 toFloat(I32x16 a) { return _mm512_cvtepi32_ps(a.v); }
inline I32x16 truncToInt(F32x16 a) { return _mm512_cvttps_epi32(a.v); }
inline I32x16 shl23(I32x16 a) { return _mm512_slli_epi32(a.v, 23); }
inline I32x16 srlv(I32x16 a, I32x16 n) { return _mm512_srlv_epi32(a.v, n.v); }
inline F32x16
select(Mask16 m, F32x16 a, F32x16 b)
{
    return _mm512_mask_blend_ps(m.v, b.v, a.v);
}
inline I32x16
select(Mask16 m, I32x16 a, I32x16 b)
{
    return _mm512_mask_blend_epi32(m.v, b.v, a.v);
}
#pragma GCC diagnostic pop

/** Rows of the register tile: 6 rows x 2 vectors = 12 accumulators. */
constexpr int kTileRows = 6;

/** Lanes [0, n) of a 16-lane mask, n in [1, 16]. */
inline __mmask16
lanes(int64_t n)
{
    return static_cast<__mmask16>((1u << n) - 1u);
}

/**
 * R rows x V vectors of 16 columns. With Tail, the last vector loads
 * and stores only the lanes set in @p tail (masked-out lanes never
 * touch memory), so one body serves full 32-column blocks and 1-31
 * column tails.
 */
template <int R, int V, bool Tail>
inline void
exactRows(const float *w, int64_t ldw, const float *col, int64_t ldc,
          float *out, int64_t ldo, int64_t len, __mmask16 tail)
{
    const auto load = [tail](const float *p, int v) {
        return Tail && v == V - 1 ? _mm512_maskz_loadu_ps(tail, p)
                                  : _mm512_loadu_ps(p);
    };
    __m512 acc[R][V];
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            acc[r][v] = load(out + r * ldo + 16 * v, v);
    for (int64_t l = 0; l < len; ++l) {
        const float *crow = col + l * ldc;
        __m512 c[V];
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            c[v] = load(crow + 16 * v, v);
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            const __m512 a = _mm512_set1_ps(w[r * ldw + l]);
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(a, c[v]));
        }
    }
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            float *o = out + r * ldo + 16 * v;
            if (Tail && v == V - 1)
                _mm512_mask_storeu_ps(o, tail, acc[r][v]);
            else
                _mm512_storeu_ps(o, acc[r][v]);
        }
}

/** Every row of a column block: 6-row tiles, then a 1-5 row tail. */
template <int V, bool Tail>
inline void
exactColumns(const float *w, int64_t ldw, const float *col, int64_t ldc,
             float *out, int64_t ldo, int64_t kb, int64_t len,
             __mmask16 tail)
{
    int64_t i = 0;
    for (; i + kTileRows <= kb; i += kTileRows)
        exactRows<kTileRows, V, Tail>(w + i * ldw, ldw, col, ldc,
                                      out + i * ldo, ldo, len, tail);
    const float *wt = w + i * ldw;
    float *ot = out + i * ldo;
    switch (kb - i) {
      case 5:
        exactRows<5, V, Tail>(wt, ldw, col, ldc, ot, ldo, len, tail);
        break;
      case 4:
        exactRows<4, V, Tail>(wt, ldw, col, ldc, ot, ldo, len, tail);
        break;
      case 3:
        exactRows<3, V, Tail>(wt, ldw, col, ldc, ot, ldo, len, tail);
        break;
      case 2:
        exactRows<2, V, Tail>(wt, ldw, col, ldc, ot, ldo, len, tail);
        break;
      case 1:
        exactRows<1, V, Tail>(wt, ldw, col, ldc, ot, ldo, len, tail);
        break;
      default:
        break;
    }
}

void
gemmTileExactAvx512(const float *w, int64_t ldw, const float *col,
                    int64_t ldc, float *out, int64_t ldo, int64_t kb,
                    int64_t jb, int64_t len)
{
    // 6-row x 32-column register tile: 12 accumulators, 2 column
    // loads shared across the 6 rows per l step. A 1-31 column tail
    // masks its last vector.
    int64_t j = 0;
    for (; j + 32 <= jb; j += 32)
        exactColumns<2, false>(w, ldw, col + j, ldc, out + j, ldo, kb, len,
                               0);
    const int64_t cols = jb - j;
    if (cols > 16)
        exactColumns<2, true>(w, ldw, col + j, ldc, out + j, ldo, kb, len,
                              lanes(cols - 16));
    else if (cols == 16)
        exactColumns<1, false>(w, ldw, col + j, ldc, out + j, ldo, kb, len,
                               0);
    else if (cols > 0)
        exactColumns<1, true>(w, ldw, col + j, ldc, out + j, ldo, kb, len,
                              lanes(cols));
}

void
geluAvx512(const float *x, float *y, int64_t n)
{
    lanes::geluSpan<F32x16>(x, y, n);
}

/** Largest kernel side the depthwise vector body takes. */
constexpr int64_t kDwMaxSide = 16;

/**
 * U planes of a stride-1 depthwise conv whose output rows are as wide
 * as its input rows (q == w), lanes over the flattened output plane.
 * Output element i reads tap (rr, ss) at input element
 * i + (rr - padH) * w + (ss - padW); the tap is inside the input when
 * i + (rr - padH) * w lies in [0, h*w) (its row does) and column
 * (i % w) + ss - padW lies in [0, w). Lanes failing either test load
 * nothing and add nothing. @p col0 holds each lane's i % w at i = 0.
 */
template <int U>
inline void
depthwisePlanes(const DepthwiseGeom &g, const float *in, int64_t in_stride,
                const float *wk, const float *bias, float *out,
                __m512i col0)
{
    const int64_t pq = g.p * g.q;
    const int64_t taps = g.r * g.s;
    const __m512i hw = _mm512_set1_epi32(static_cast<int32_t>(g.h * g.w));
    const __m512i width = _mm512_set1_epi32(static_cast<int32_t>(g.w));
    const __m512i step = _mm512_set1_epi32(static_cast<int32_t>(16 % g.w));
    const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12, 13, 14, 15);
    __m512i col = col0;
    for (int64_t i = 0; i < pq; i += 16) {
        const __m512i idx =
            _mm512_add_epi32(_mm512_set1_epi32(static_cast<int32_t>(i)), iota);
        __mmask16 rows[kDwMaxSide];
        __mmask16 cols[kDwMaxSide];
        for (int64_t rr = 0; rr < g.r; ++rr)
            rows[rr] = _mm512_cmplt_epu32_mask(
                _mm512_add_epi32(idx, _mm512_set1_epi32(static_cast<int32_t>(
                                          (rr - g.padH) * g.w))),
                hw);
        for (int64_t ss = 0; ss < g.s; ++ss)
            cols[ss] = _mm512_cmplt_epu32_mask(
                _mm512_add_epi32(col, _mm512_set1_epi32(static_cast<int32_t>(
                                          ss - g.padW))),
                width);
        __m512 acc[U];
#pragma GCC unroll 8
        for (int u = 0; u < U; ++u)
            acc[u] = _mm512_set1_ps(bias ? bias[u] : 0.0f);
        for (int64_t rr = 0; rr < g.r; ++rr) {
            if (rows[rr] == 0)
                continue;
            for (int64_t ss = 0; ss < g.s; ++ss) {
                const __mmask16 m = rows[rr] & cols[ss];
                if (m == 0)
                    continue;
                const int64_t off = i + (rr - g.padH) * g.w + ss - g.padW;
                const int64_t t = rr * g.s + ss;
#pragma GCC unroll 8
                for (int u = 0; u < U; ++u) {
                    const __m512 x =
                        _mm512_maskz_loadu_ps(m, in + u * in_stride + off);
                    acc[u] = _mm512_mask_add_ps(
                        acc[u], m, acc[u],
                        _mm512_mul_ps(x, _mm512_set1_ps(wk[u * taps + t])));
                }
            }
        }
        const __mmask16 live = i + 16 <= pq ? 0xffff : lanes(pq - i);
#pragma GCC unroll 8
        for (int u = 0; u < U; ++u)
            _mm512_mask_storeu_ps(out + u * pq + i, live, acc[u]);
        // Advance each lane's column by 16 (mod w): one subtraction
        // suffices since 16 % w and the column are both below w.
        col = _mm512_add_epi32(col, step);
        col = _mm512_mask_sub_epi32(
            col, _mm512_cmpge_epi32_mask(col, width), col, width);
    }
}

void
depthwiseAvx512(const DepthwiseGeom &g, const float *in, int64_t in_stride,
                const float *wk, const float *bias, float *out,
                int64_t planes)
{
    if (g.strideH != 1 || g.strideW != 1 || g.q != g.w ||
        g.r > kDwMaxSide || g.s > kDwMaxSide ||
        g.h * g.w > (int64_t{1} << 30)) {
        kernels::depthwiseScalar(g, in, in_stride, wk, bias, out, planes);
        return;
    }
    alignas(64) int32_t first[16];
    for (int lane = 0; lane < 16; ++lane)
        first[lane] = static_cast<int32_t>(lane % g.w);
    const __m512i col0 = _mm512_load_si512(first);
    const int64_t taps = g.r * g.s;
    const int64_t pq = g.p * g.q;
    // Eight planes in flight keep eight independent add chains busy;
    // the 1-7 plane rest runs as 4 + 2 + 1.
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
 * Bilinear resize, lanes over output columns. A source row of at most
 * 32 columns sits in a register pair after its multiply by the row
 * weight, and _mm512_permutex2var_ps picks each lane's tap from it, so
 * a lane's products and sums are the reference expression's, in order.
 * Wider source rows run the scalar reference.
 */
void
bilinearAvx512(const BilinearTaps &t, const float *in, float *out,
               int64_t planes)
{
    if (t.w > 32) {
        kernels::bilinearScalar(t, in, out, planes);
        return;
    }
    const __mmask16 lo = lanes(std::min<int64_t>(t.w, 16));
    const __mmask16 hi = t.w > 16 ? lanes(std::min<int64_t>(t.w - 16, 16))
                                  : 0;
    for (int64_t u = 0; u < planes; ++u) {
        const float *plane = in + u * t.h * t.w;
        float *dst = out + u * t.outH * t.outW;
        for (int64_t i = 0; i < t.outH; ++i) {
            const float *row0 = plane + t.row0[i] * t.w;
            const float *row1 = plane + t.row1[i] * t.w;
            const __m512 gh0 = _mm512_set1_ps(t.rowW0[i]);
            const __m512 gh1 = _mm512_set1_ps(t.rowW1[i]);
            const __m512 a0l =
                _mm512_mul_ps(_mm512_maskz_loadu_ps(lo, row0), gh0);
            const __m512 a0h =
                _mm512_mul_ps(_mm512_maskz_loadu_ps(hi, row0 + 16), gh0);
            const __m512 a1l =
                _mm512_mul_ps(_mm512_maskz_loadu_ps(lo, row1), gh1);
            const __m512 a1h =
                _mm512_mul_ps(_mm512_maskz_loadu_ps(hi, row1 + 16), gh1);
            float *orow = dst + i * t.outW;
            for (int64_t j = 0; j < t.outW; j += 16) {
                const __mmask16 live =
                    j + 16 <= t.outW ? 0xffff : lanes(t.outW - j);
                const __m512i c0 = _mm512_maskz_loadu_epi32(live, t.col0 + j);
                const __m512i c1 = _mm512_maskz_loadu_epi32(live, t.col1 + j);
                const __m512 gw0 = _mm512_maskz_loadu_ps(live, t.colW0 + j);
                const __m512 gw1 = _mm512_maskz_loadu_ps(live, t.colW1 + j);
                const __m512 v00 = _mm512_permutex2var_ps(a0l, c0, a0h);
                const __m512 v01 = _mm512_permutex2var_ps(a0l, c1, a0h);
                const __m512 v10 = _mm512_permutex2var_ps(a1l, c0, a1h);
                const __m512 v11 = _mm512_permutex2var_ps(a1l, c1, a1h);
                __m512 v = _mm512_mul_ps(v00, gw0);
                v = _mm512_add_ps(v, _mm512_mul_ps(v01, gw1));
                v = _mm512_add_ps(v, _mm512_mul_ps(v10, gw0));
                v = _mm512_add_ps(v, _mm512_mul_ps(v11, gw1));
                _mm512_mask_storeu_ps(orow + j, live, v);
            }
        }
    }
}

} // namespace

const Microkernels &
avx512Microkernels()
{
    static const Microkernels kernels = [] {
        Microkernels mk = avx2Microkernels();
        mk.isa = IsaLevel::Avx512;
        mk.gemmTileExact = gemmTileExactAvx512;
        mk.geluF32 = geluAvx512;
        mk.depthwiseF32 = depthwiseAvx512;
        mk.bilinearF32 = bilinearAvx512;
        return mk;
    }();
    return kernels;
}

} // namespace vitdyn

#endif // VITDYN_HAVE_KERNELS_AVX512
