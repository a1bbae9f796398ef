/**
 * @file
 * AVX-512F GEMM tile.
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
 * kernels::gemmTileScalar for any blocking. The GEMM tile and GELU
 * (tanh_lanes.hh's fdlibm port on 16 lanes) have AVX-512 bodies: the
 * other entries (axpy, int8 dot, quantize) are off the hot path and
 * reuse the AVX2 kernels.
 */

#if defined(VITDYN_HAVE_KERNELS_AVX512)

#include <immintrin.h>

#include <algorithm>

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

} // namespace

const Microkernels &
avx512Microkernels()
{
    static const Microkernels kernels = [] {
        Microkernels mk = avx2Microkernels();
        mk.isa = IsaLevel::Avx512;
        mk.gemmTileExact = gemmTileExactAvx512;
        mk.geluF32 = geluAvx512;
        return mk;
    }();
    return kernels;
}

} // namespace vitdyn

#endif // VITDYN_HAVE_KERNELS_AVX512
