/**
 * @file
 * aarch64 Advanced SIMD (NEON) microkernels.
 *
 * Compiled only on aarch64 (see src/CMakeLists.txt) with
 * -ffp-contract=off: the float kernels pair vmulq_f32 with vaddq_f32
 * to keep the scalar reference's two-rounding multiply-then-add per
 * accumulation step, and the compiler must not contract the pair into
 * fmla. As in kernels_avx2.cc, vectorization is across independent
 * output columns with each element starting from its value in `out`
 * and walking l in ascending order, so results stay memcmp-identical
 * to kernels::gemmTileScalar. GELU runs tanh_lanes.hh's fdlibm port
 * on 4 lanes (the lane types below).
 */

#if defined(VITDYN_HAVE_KERNELS_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "tensor/kernels/kernels.hh"
#include "tensor/kernels/tanh_lanes.hh"

namespace vitdyn
{

namespace
{

// 4-lane types for tanh_lanes.hh (its file comment lists the contract).
struct Mask4
{
    uint32x4_t v;
};

struct F32x4
{
    static constexpr int64_t kWidth = 4;
    float32x4_t v;
    F32x4(float32x4_t x) : v(x) {}
    F32x4(float s) : v(vdupq_n_f32(s)) {}
    static F32x4 load(const float *p) { return vld1q_f32(p); }
    void store(float *p) const { vst1q_f32(p, v); }
};

struct I32x4
{
    int32x4_t v;
    I32x4(int32x4_t x) : v(x) {}
    I32x4(int32_t s) : v(vdupq_n_s32(s)) {}
};

inline F32x4 operator+(F32x4 a, F32x4 b) { return vaddq_f32(a.v, b.v); }
inline F32x4 operator-(F32x4 a, F32x4 b) { return vsubq_f32(a.v, b.v); }
inline F32x4 operator*(F32x4 a, F32x4 b) { return vmulq_f32(a.v, b.v); }
inline F32x4 operator/(F32x4 a, F32x4 b) { return vdivq_f32(a.v, b.v); }
inline F32x4 operator-(F32x4 a) { return vnegq_f32(a.v); }

inline I32x4 operator+(I32x4 a, I32x4 b) { return vaddq_s32(a.v, b.v); }
inline I32x4 operator-(I32x4 a, I32x4 b) { return vsubq_s32(a.v, b.v); }
inline I32x4 operator&(I32x4 a, I32x4 b) { return vandq_s32(a.v, b.v); }
inline Mask4 operator<(I32x4 a, I32x4 b) { return {vcltq_s32(a.v, b.v)}; }
inline Mask4 operator<=(I32x4 a, I32x4 b) { return {vcleq_s32(a.v, b.v)}; }
inline Mask4 operator>(I32x4 a, I32x4 b) { return {vcgtq_s32(a.v, b.v)}; }
inline Mask4 operator>=(I32x4 a, I32x4 b) { return {vcgeq_s32(a.v, b.v)}; }
inline Mask4 operator==(I32x4 a, I32x4 b) { return {vceqq_s32(a.v, b.v)}; }

inline I32x4 bitsOf(F32x4 a) { return vreinterpretq_s32_f32(a.v); }
inline F32x4 floatOf(I32x4 a) { return vreinterpretq_f32_s32(a.v); }
inline F32x4 toFloat(I32x4 a) { return vcvtq_f32_s32(a.v); }
inline I32x4 truncToInt(F32x4 a) { return vcvtq_s32_f32(a.v); }
inline I32x4 shl23(I32x4 a) { return vshlq_n_s32(a.v, 23); }
/** USHL by -n: a logical right shift for n in [0, 31]. */
inline I32x4
srlv(I32x4 a, I32x4 n)
{
    return vreinterpretq_s32_u32(
        vshlq_u32(vreinterpretq_u32_s32(a.v), vnegq_s32(n.v)));
}
inline F32x4
select(Mask4 m, F32x4 a, F32x4 b)
{
    return vbslq_f32(m.v, a.v, b.v);
}
inline I32x4
select(Mask4 m, I32x4 a, I32x4 b)
{
    return vbslq_s32(m.v, a.v, b.v);
}

void
gemmTileExactNeon(const float *w, int64_t ldw, const float *col,
                  int64_t ldc, float *out, int64_t ldo, int64_t kb,
                  int64_t jb, int64_t len)
{
    int64_t j = 0;
    // 4-row x 8-column register tile (8 accumulators of 4 lanes).
    for (; j + 8 <= jb; j += 8) {
        int64_t i = 0;
        for (; i + 4 <= kb; i += 4) {
            float *o = out + i * ldo + j;
            float32x4_t a0l = vld1q_f32(o);
            float32x4_t a0h = vld1q_f32(o + 4);
            float32x4_t a1l = vld1q_f32(o + ldo);
            float32x4_t a1h = vld1q_f32(o + ldo + 4);
            float32x4_t a2l = vld1q_f32(o + 2 * ldo);
            float32x4_t a2h = vld1q_f32(o + 2 * ldo + 4);
            float32x4_t a3l = vld1q_f32(o + 3 * ldo);
            float32x4_t a3h = vld1q_f32(o + 3 * ldo + 4);
            const float *w0 = w + (i + 0) * ldw;
            const float *w1 = w + (i + 1) * ldw;
            const float *w2 = w + (i + 2) * ldw;
            const float *w3 = w + (i + 3) * ldw;
            for (int64_t l = 0; l < len; ++l) {
                const float *crow = col + l * ldc + j;
                const float32x4_t cl = vld1q_f32(crow);
                const float32x4_t ch = vld1q_f32(crow + 4);
                const float32x4_t v0 = vdupq_n_f32(w0[l]);
                a0l = vaddq_f32(a0l, vmulq_f32(v0, cl));
                a0h = vaddq_f32(a0h, vmulq_f32(v0, ch));
                const float32x4_t v1 = vdupq_n_f32(w1[l]);
                a1l = vaddq_f32(a1l, vmulq_f32(v1, cl));
                a1h = vaddq_f32(a1h, vmulq_f32(v1, ch));
                const float32x4_t v2 = vdupq_n_f32(w2[l]);
                a2l = vaddq_f32(a2l, vmulq_f32(v2, cl));
                a2h = vaddq_f32(a2h, vmulq_f32(v2, ch));
                const float32x4_t v3 = vdupq_n_f32(w3[l]);
                a3l = vaddq_f32(a3l, vmulq_f32(v3, cl));
                a3h = vaddq_f32(a3h, vmulq_f32(v3, ch));
            }
            vst1q_f32(o, a0l);
            vst1q_f32(o + 4, a0h);
            vst1q_f32(o + ldo, a1l);
            vst1q_f32(o + ldo + 4, a1h);
            vst1q_f32(o + 2 * ldo, a2l);
            vst1q_f32(o + 2 * ldo + 4, a2h);
            vst1q_f32(o + 3 * ldo, a3l);
            vst1q_f32(o + 3 * ldo + 4, a3h);
        }
        for (; i < kb; ++i) {
            float *o = out + i * ldo + j;
            float32x4_t al = vld1q_f32(o);
            float32x4_t ah = vld1q_f32(o + 4);
            const float *wr = w + i * ldw;
            for (int64_t l = 0; l < len; ++l) {
                const float *crow = col + l * ldc + j;
                const float32x4_t v = vdupq_n_f32(wr[l]);
                al = vaddq_f32(al, vmulq_f32(v, vld1q_f32(crow)));
                ah = vaddq_f32(ah, vmulq_f32(v, vld1q_f32(crow + 4)));
            }
            vst1q_f32(o, al);
            vst1q_f32(o + 4, ah);
        }
    }
    for (; j + 4 <= jb; j += 4) {
        for (int64_t i = 0; i < kb; ++i) {
            float *o = out + i * ldo + j;
            float32x4_t acc = vld1q_f32(o);
            const float *wr = w + i * ldw;
            for (int64_t l = 0; l < len; ++l)
                acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(wr[l]),
                                               vld1q_f32(col + l * ldc + j)));
            vst1q_f32(o, acc);
        }
    }
    for (; j < jb; ++j) {
        for (int64_t i = 0; i < kb; ++i) {
            float acc = out[i * ldo + j];
            const float *wr = w + i * ldw;
            for (int64_t l = 0; l < len; ++l)
                acc += wr[l] * col[l * ldc + j];
            out[i * ldo + j] = acc;
        }
    }
}

void
axpyNeon(float a, const float *x, float *y, int64_t n)
{
    const float32x4_t av = vdupq_n_f32(a);
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const float32x4_t yv = vld1q_f32(y + j);
        vst1q_f32(y + j, vaddq_f32(yv, vmulq_f32(av, vld1q_f32(x + j))));
    }
    for (; j < n; ++j)
        y[j] += a * x[j];
}

int64_t
dotS8Neon(const int8_t *a, const int8_t *b, int64_t n)
{
    // vmull_s8 products fit int16; vpadalq_s16 folds pairs into an
    // int32x4 accumulator. Each 16-element step adds <= 4 * 16129 per
    // int32 lane, so flushing to the int64 total every 8192 steps
    // stays far below 2^31.
    constexpr int64_t kFlushSteps = 8192;
    int64_t total = 0;
    int64_t i = 0;
    while (i + 16 <= n) {
        int32x4_t acc = vdupq_n_s32(0);
        int64_t steps = (n - i) / 16;
        if (steps > kFlushSteps)
            steps = kFlushSteps;
        for (int64_t s = 0; s < steps; ++s, i += 16) {
            const int8x16_t va = vld1q_s8(a + i);
            const int8x16_t vb = vld1q_s8(b + i);
            acc = vpadalq_s16(acc,
                              vmull_s8(vget_low_s8(va), vget_low_s8(vb)));
            acc = vpadalq_s16(
                acc, vmull_s8(vget_high_s8(va), vget_high_s8(vb)));
        }
        total += vaddvq_s32(acc);
    }
    for (; i < n; ++i)
        total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    return total;
}

void
quantizeNeon(const float *x, float inv_scale, int8_t *q, int64_t n)
{
    // vcvtaq_s32_f32 natively rounds ties away from zero (matching
    // std::round) and saturates +/-inf to the int32 extremes, which
    // the integer clamp then maps to +/-127 exactly like the scalar
    // min/max chain. NaN converts to 0, so select 127 for NaN lanes
    // to reproduce std::min(127.0f, NaN) == 127.
    const float32x4_t inv = vdupq_n_f32(inv_scale);
    const int32x4_t hi = vdupq_n_s32(127);
    const int32x4_t lo = vdupq_n_s32(-127);
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t t = vmulq_f32(vld1q_f32(x + i), inv);
        int32x4_t r = vcvtaq_s32_f32(t);
        r = vmaxq_s32(vminq_s32(r, hi), lo);
        const uint32x4_t ordered = vceqq_f32(t, t);
        r = vbslq_s32(ordered, r, hi);
        const int16x4_t r16 = vqmovn_s32(r);
        const int8x8_t r8 = vqmovn_s16(vcombine_s16(r16, r16));
        q[i + 0] = vget_lane_s8(r8, 0);
        q[i + 1] = vget_lane_s8(r8, 1);
        q[i + 2] = vget_lane_s8(r8, 2);
        q[i + 3] = vget_lane_s8(r8, 3);
    }
    for (; i < n; ++i) {
        const float v = std::round(x[i] * inv_scale);
        q[i] = static_cast<int8_t>(
            std::max(-127.0f, std::min(127.0f, v)));
    }
}

void
dequantizeNeon(const int8_t *q, float scale, float *out, int64_t n)
{
    const float32x4_t sv = vdupq_n_f32(scale);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t q16 = vmovl_s8(vld1_s8(q + i));
        const float32x4_t flo =
            vcvtq_f32_s32(vmovl_s16(vget_low_s16(q16)));
        const float32x4_t fhi =
            vcvtq_f32_s32(vmovl_s16(vget_high_s16(q16)));
        vst1q_f32(out + i, vmulq_f32(flo, sv));
        vst1q_f32(out + i + 4, vmulq_f32(fhi, sv));
    }
    for (; i < n; ++i)
        out[i] = q[i] * scale;
}

void
geluNeon(const float *x, float *y, int64_t n)
{
    lanes::geluSpan<F32x4>(x, y, n);
}

void
depthwiseNeon(const DepthwiseGeom &g, const float *in, int64_t in_stride,
              const float *wk, const float *bias, float *out, int64_t planes)
{
    kernels::depthwiseAxpy(g, in, in_stride, wk, bias, out, planes,
                           axpyNeon);
}

const Microkernels kNeonKernels = {
    IsaLevel::Neon, gemmTileExactNeon, axpyNeon, dotS8Neon,
    quantizeNeon,   dequantizeNeon,    geluNeon,
    // No NEON depthwise body yet: its stride-1 row spans run on
    // axpyNeon. The bilinear resize runs the scalar reference.
    depthwiseNeon,  kernels::bilinearScalar,
};

} // namespace

const Microkernels &
neonMicrokernels()
{
    return kNeonKernels;
}

} // namespace vitdyn

#endif // VITDYN_HAVE_KERNELS_NEON
