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

#include <cmath>
#include <cstdlib>
#include <cstring>

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

} // namespace kernels

namespace
{

const Microkernels kScalarKernels = {
    IsaLevel::Scalar,
    kernels::gemmTileScalar,
    kernels::axpyScalar,
    kernels::dotS8Scalar,
    kernels::quantizeScalar,
    kernels::dequantizeScalar,
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
