/**
 * @file
 * Scalar reference microkernels and the one-time ISA dispatch.
 *
 * The scalar implementations here are the normative semantics: every
 * SIMD variant is tested against them with memcmp. They are
 * deliberately written with the same per-element accumulation order
 * as the seed loops in ops_conv.cc / ops_linear.cc / quant.cc, so
 * VITDYN_ISA=scalar reproduces the pre-SIMD outputs bit-for-bit.
 */

#include "tensor/kernels/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/kernels/tanh_lanes.hh"
#include "util/logging.hh"

namespace vitdyn
{

namespace kernels
{

void
gemmTileScalar(const float *w, int64_t ldw, const float *col, int64_t ldc,
               float *out, int64_t ldo, int64_t kb, int64_t jb,
               int64_t len)
{
    // l-outer / j-inner with a stack accumulator row: the same
    // blocked-GEMM structure (and the same per-element ascending-l,
    // mul-then-add arithmetic) as the seed conv2dIm2col inner loop.
    float acc[kMaxGemmTileCols];
    for (int64_t i = 0; i < kb; ++i) {
        float *orow = out + i * ldo;
        for (int64_t j = 0; j < jb; ++j)
            acc[j] = orow[j];
        const float *wr = w + i * ldw;
        for (int64_t l = 0; l < len; ++l) {
            const float a = wr[l];
            const float *crow = col + l * ldc;
            for (int64_t j = 0; j < jb; ++j)
                acc[j] += a * crow[j];
        }
        for (int64_t j = 0; j < jb; ++j)
            orow[j] = acc[j];
    }
}

void
axpyScalar(float a, const float *x, float *y, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        y[j] += a * x[j];
}

int64_t
dotS8Scalar(const int8_t *a, const int8_t *b, int64_t n)
{
    int64_t acc = 0;
    for (int64_t i = 0; i < n; ++i)
        acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    return acc;
}

void
quantizeScalar(const float *x, float inv_scale, int8_t *q, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        const float v = std::round(x[i] * inv_scale);
        q[i] = static_cast<int8_t>(
            std::max(-127.0f, std::min(127.0f, v)));
    }
}

void
dequantizeScalar(const int8_t *q, float scale, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        out[i] = q[i] * scale;
}

void
geluScalarSpan(const float *x, float *y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = lanes::geluLanes(x[i]);
}

namespace
{

/**
 * y[j] += x[j] * a. An output row and an input row never overlap, and
 * saying so (__restrict) lets the compiler vectorize the short rows
 * without the aliasing check axpyScalar needs.
 */
inline void
addScaledRow(const float *__restrict x, float a, float *__restrict y,
             int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        y[j] += x[j] * a;
}

/**
 * Row at a time: each output row starts at the bias, then every
 * in-range tap (r, then s, ascending) adds its input span times the
 * tap weight to the output columns whose tap lands inside the input.
 * Per element, that is the direct loop's order with the padded taps
 * skipped. A stride-1 span runs row(x, a, y, n), which must compute
 * y[j] += x[j] * a for j in [0, n), mul then add.
 */
template <typename Row>
void
depthwiseSweep(const DepthwiseGeom &g, const float *in, int64_t in_stride,
               const float *wk, const float *bias, float *out,
               int64_t planes, Row row)
{
    const int64_t sw = g.strideW;
    // Output columns oq in [first[ss], last[ss]) read input column
    // oq * sw + ss - padW, which lies in [0, w). Hoisted out of the
    // row loop: two integer divisions per (row, tap) cost more than
    // the short rows' adds.
    std::vector<int64_t> first(static_cast<size_t>(g.s));
    std::vector<int64_t> last(static_cast<size_t>(g.s));
    for (int64_t ss = 0; ss < g.s; ++ss) {
        const int64_t off = ss - g.padW;
        first[ss] = off >= 0 ? 0 : (sw - 1 - off) / sw;
        last[ss] = off < g.w ? std::min(g.q, (g.w - 1 - off) / sw + 1) : 0;
    }
    for (int64_t u = 0; u < planes; ++u) {
        const float *plane = in + u * in_stride;
        const float *taps = wk + u * g.r * g.s;
        float *dst = out + u * g.p * g.q;
        const float b = bias ? bias[u] : 0.0f;
        for (int64_t op = 0; op < g.p; ++op) {
            float *orow = dst + op * g.q;
            for (int64_t oq = 0; oq < g.q; ++oq)
                orow[oq] = b;
            const int64_t ih0 = op * g.strideH - g.padH;
            for (int64_t rr = 0; rr < g.r; ++rr) {
                const int64_t ih = ih0 + rr;
                if (ih < 0 || ih >= g.h)
                    continue;
                const float *irow = plane + ih * g.w;
                for (int64_t ss = 0; ss < g.s; ++ss) {
                    const int64_t off = ss - g.padW;
                    const int64_t q0 = first[ss];
                    const int64_t q1 = last[ss];
                    if (q0 >= q1)
                        continue;
                    const float wv = taps[rr * g.s + ss];
                    if (sw == 1) {
                        row(irow + q0 + off, wv, orow + q0, q1 - q0);
                    } else {
                        for (int64_t oq = q0; oq < q1; ++oq)
                            orow[oq] += irow[oq * sw + off] * wv;
                    }
                }
            }
        }
    }
}

} // namespace

void
depthwiseScalar(const DepthwiseGeom &g, const float *in, int64_t in_stride,
                const float *wk, const float *bias, float *out,
                int64_t planes)
{
    depthwiseSweep(g, in, in_stride, wk, bias, out, planes,
                   [](const float *x, float a, float *y, int64_t n) {
                       addScaledRow(x, a, y, n);
                   });
}

void
depthwiseAxpy(const DepthwiseGeom &g, const float *in, int64_t in_stride,
              const float *wk, const float *bias, float *out, int64_t planes,
              void (*axpy)(float, const float *, float *, int64_t))
{
    depthwiseSweep(g, in, in_stride, wk, bias, out, planes,
                   [axpy](const float *x, float a, float *y, int64_t n) {
                       axpy(a, x, y, n);
                   });
}

void
bilinearScalar(const BilinearTaps &t, const float *in, float *out,
               int64_t planes)
{
    // Each output row first multiplies its two source rows by their
    // row weights: a0[c] = row0[c] * (1 - fh) and a1[c] = row1[c] * fh
    // are the expression's own first products, so reading them back
    // keeps every bit and spares two multiplies per output.
    std::vector<float> a0(static_cast<size_t>(t.w));
    std::vector<float> a1(static_cast<size_t>(t.w));
    for (int64_t u = 0; u < planes; ++u) {
        const float *plane = in + u * t.h * t.w;
        float *dst = out + u * t.outH * t.outW;
        for (int64_t i = 0; i < t.outH; ++i) {
            const float *row0 = plane + t.row0[i] * t.w;
            const float *row1 = plane + t.row1[i] * t.w;
            const float gh0 = t.rowW0[i];
            const float gh1 = t.rowW1[i];
            for (int64_t c = 0; c < t.w; ++c) {
                a0[c] = row0[c] * gh0;
                a1[c] = row1[c] * gh1;
            }
            float *orow = dst + i * t.outW;
            for (int64_t j = 0; j < t.outW; ++j) {
                const int32_t c0 = t.col0[j];
                const int32_t c1 = t.col1[j];
                const float gw0 = t.colW0[j];
                const float gw1 = t.colW1[j];
                orow[j] = a0[c0] * gw0 + a0[c1] * gw1 + a1[c0] * gw0 +
                          a1[c1] * gw1;
            }
        }
    }
}

} // namespace kernels

float
tanhScalar(float x)
{
    return lanes::tanhLanes(x);
}

float
geluScalar(float v)
{
    return lanes::geluLanes(v);
}

namespace
{

const Microkernels kScalarKernels = {
    IsaLevel::Scalar,
    kernels::gemmTileScalar,
    kernels::axpyScalar,
    kernels::dotS8Scalar,
    kernels::quantizeScalar,
    kernels::dequantizeScalar,
    kernels::geluScalarSpan,
    kernels::depthwiseScalar,
    kernels::bilinearScalar,
};

} // namespace

#if defined(VITDYN_HAVE_KERNELS_AVX2)
// Defined in kernels_avx2.cc (compiled with -mavx2).
const Microkernels &avx2Microkernels();
#endif
#if defined(VITDYN_HAVE_KERNELS_AVX512)
// Defined in kernels_avx512.cc (compiled with -mavx512f).
const Microkernels &avx512Microkernels();
#endif
#if defined(VITDYN_HAVE_KERNELS_NEON)
// Defined in kernels_neon.cc.
const Microkernels &neonMicrokernels();
#endif

const char *
isaName(IsaLevel isa)
{
    switch (isa) {
      case IsaLevel::Scalar:
        return "scalar";
      case IsaLevel::Avx2:
        return "avx2";
      case IsaLevel::Avx512:
        return "avx512";
      case IsaLevel::Neon:
        return "neon";
    }
    return "unknown";
}

bool
parseIsaName(const char *token, IsaLevel *out)
{
    if (token == nullptr || out == nullptr)
        return false;
    const std::string s(token);
    if (s == "scalar") {
        *out = IsaLevel::Scalar;
        return true;
    }
    if (s == "avx2") {
        *out = IsaLevel::Avx2;
        return true;
    }
    if (s == "avx512") {
        *out = IsaLevel::Avx512;
        return true;
    }
    if (s == "neon") {
        *out = IsaLevel::Neon;
        return true;
    }
    if (s == "native" || s == "auto" || s.empty()) {
        *out = detectBestIsa();
        return true;
    }
    return false;
}

bool
isaAvailable(IsaLevel isa)
{
    switch (isa) {
      case IsaLevel::Scalar:
        return true;
      case IsaLevel::Avx2:
#if defined(VITDYN_HAVE_KERNELS_AVX2)
        return __builtin_cpu_supports("avx2");
#else
        return false;
#endif
      case IsaLevel::Avx512:
#if defined(VITDYN_HAVE_KERNELS_AVX512)
        // The AVX-512 set reuses the AVX2 entries off the GEMM tile;
        // every AVX-512F CPU has AVX2, but check rather than assume.
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx2");
#else
        return false;
#endif
      case IsaLevel::Neon:
#if defined(VITDYN_HAVE_KERNELS_NEON)
        // Advanced SIMD is architectural baseline on aarch64.
        return true;
#else
        return false;
#endif
    }
    return false;
}

const Microkernels &
kernelsFor(IsaLevel isa)
{
#if defined(VITDYN_HAVE_KERNELS_AVX2)
    if (isa == IsaLevel::Avx2 && isaAvailable(IsaLevel::Avx2))
        return avx2Microkernels();
#endif
#if defined(VITDYN_HAVE_KERNELS_AVX512)
    if (isa == IsaLevel::Avx512 && isaAvailable(IsaLevel::Avx512))
        return avx512Microkernels();
#endif
#if defined(VITDYN_HAVE_KERNELS_NEON)
    if (isa == IsaLevel::Neon && isaAvailable(IsaLevel::Neon))
        return neonMicrokernels();
#endif
    (void)isa;
    return kScalarKernels;
}

IsaLevel
detectBestIsa()
{
    if (isaAvailable(IsaLevel::Avx512))
        return IsaLevel::Avx512;
    if (isaAvailable(IsaLevel::Avx2))
        return IsaLevel::Avx2;
    if (isaAvailable(IsaLevel::Neon))
        return IsaLevel::Neon;
    return IsaLevel::Scalar;
}

IsaLevel
activeIsa()
{
    static const IsaLevel selected = [] {
        const char *env = std::getenv("VITDYN_ISA");
        if (env != nullptr && env[0] != '\0') {
            IsaLevel parsed;
            if (!parseIsaName(env, &parsed)) {
                warn("VITDYN_ISA='", env,
                     "' is not scalar/avx2/avx512/neon/native; using "
                     "detection");
                return detectBestIsa();
            }
            if (!isaAvailable(parsed)) {
                warn("VITDYN_ISA=", isaName(parsed),
                     " is not available on this CPU/build; falling "
                     "back to scalar kernels");
                return IsaLevel::Scalar;
            }
            return parsed;
        }
        return detectBestIsa();
    }();
    return selected;
}

const Microkernels &
activeKernels()
{
    static const Microkernels &selected = kernelsFor(activeIsa());
    return selected;
}

} // namespace vitdyn
