/**
 * @file
 * ISA-dispatched SIMD microkernels behind the dense tensor ops.
 *
 * The kernels in tensor/ops_*.cc and tensor/quant.cc were written as
 * scalar reference loops; this layer lets the hot inner loops run
 * vectorized (AVX2 or AVX-512 on x86-64, NEON on aarch64) while
 * preserving the repository's determinism contract:
 *
 *  - Per algorithm, results are bit-identical at any thread count:
 *    every kernel fixes its per-element accumulation order
 *    independently of how parallelFor shards the outer loop.
 *  - Every kernel is memcmp-identical to the scalar reference: float
 *    kernels vectorize across *independent output elements* only,
 *    keeping each element's mul-then-add rounding sequence, and
 *    integer accumulation is order-free.
 *
 * GELU (geluF32) is exact the same way: tanh_lanes.hh ports fdlibm's
 * tanhf once as a template over a lane type, so every SIMD lane runs
 * the scalar reference's exact sequence of IEEE operations.
 *
 * The depthwise conv (depthwiseF32) and the bilinear resize
 * (bilinearF32) vectorize across output elements too. Depthwise lanes
 * run over a flattened output plane, with several planes in flight;
 * a tap that falls outside the input is masked out of both the load
 * and the add, so a lane adds nothing for it (not +0) and -0.0 sums,
 * Inf and NaN keep their bits. Bilinear lanes run over output columns
 * and pick their four source taps with in-register permutes, after
 * multiplying each source row once by its row weight: that product is
 * the reference expression's own first rounding, so the sum keeps
 * every bit. Source rows too wide for the registers (over 16 columns
 * on AVX2, over 32 on AVX-512) run the scalar reference.
 *
 * The GEMM tile accumulates into `out` (it reads the partial sums the
 * previous call left there), so the GEMM driver (tensor/gemm.hh) can
 * split the accumulation axis into chunks and park each element's
 * running sum in `out` between them. A float store and reload is
 * exact, so chunking leaves every element's rounding sequence — and
 * its bits — unchanged.
 *
 * Selection happens once per process: detectBestIsa() probes the CPU
 * (AVX-512F, then AVX2, via cpuid on x86-64; NEON is architectural
 * baseline on aarch64), and the VITDYN_ISA environment variable
 * ("scalar", "avx2", "avx512", "neon", "native") overrides it.
 * VITDYN_ISA=scalar restores the pre-SIMD kernels bit-for-bit.
 */

#ifndef VITDYN_TENSOR_KERNELS_KERNELS_HH
#define VITDYN_TENSOR_KERNELS_KERNELS_HH

#include <cstdint>

namespace vitdyn
{

/** Instruction-set level a microkernel set is built for. */
enum class IsaLevel
{
    Scalar = 0, ///< Portable reference loops (the seed kernels).
    Avx2 = 1,   ///< x86-64 AVX2.
    Neon = 2,   ///< aarch64 Advanced SIMD.
    Avx512 = 3, ///< x86-64 AVX-512F (GEMM tile; AVX2 for the rest).
};

/**
 * Largest column block (jb) a caller may pass to a GEMM tile kernel —
 * the scalar reference keeps its accumulator row on the stack, and
 * the autotuner clamps its tile candidates to this.
 */
constexpr int64_t kMaxGemmTileCols = 512;

/** "scalar" / "avx2" / "avx512" / "neon" for tables and logs. */
const char *isaName(IsaLevel isa);

/**
 * Parse a VITDYN_ISA-style token ("scalar", "avx2", "avx512", "neon",
 * "native"/"auto" = best available). Returns false on an unknown
 * token; @p out is untouched then.
 */
bool parseIsaName(const char *token, IsaLevel *out);

/**
 * Signature of the GEMM tile kernel: an (kb, jb) block of
 * out += w x col with leading dimensions ldw/ldc/ldo.
 */
using GemmTileFn = void (*)(const float *w, int64_t ldw, const float *col,
                            int64_t ldc, float *out, int64_t ldo,
                            int64_t kb, int64_t jb, int64_t len);

/**
 * Geometry of a depthwise conv: an h x w input plane, an r x s kernel,
 * strides and pads, and the p x q output plane they give.
 */
struct DepthwiseGeom
{
    int64_t h, w, r, s;
    int64_t strideH, strideW, padH, padW;
    int64_t p, q;
};

/**
 * Per-call tap tables of a bilinear resize from an h x w plane to
 * outH x outW. Output row i reads source rows row0[i] and row1[i] with
 * weights rowW0[i] = 1 - fh and rowW1[i] = fh; output column j reads
 * source columns col0[j] and col1[j] with weights colW0[j] = 1 - fw
 * and colW1[j] = fw.
 */
struct BilinearTaps
{
    int64_t h, w, outH, outW;
    const int32_t *row0, *row1;
    const float *rowW0, *rowW1;
    const int32_t *col0, *col1;
    const float *colW0, *colW1;
};

/**
 * One ISA's microkernel set. All pointers are always non-null: an ISA
 * that is compiled out or unsupported on this CPU falls back to the
 * scalar implementation per entry.
 */
struct Microkernels
{
    IsaLevel isa = IsaLevel::Scalar;

    /**
     * Dense GEMM tile:
     *   out[i*ldo + j] += sum_{l=0..len} w[i*ldw + l] * col[l*ldc + j]
     * for i in [0, kb), j in [0, jb). Each output element starts from
     * its current value in `out` and accumulates over ascending l with
     * the product and the sum rounded separately — memcmp-identical to
     * the scalar reference for any (kb, jb) blocking and any split of
     * l into consecutive calls.
     */
    GemmTileFn gemmTileExact;

    /**
     * y[j] += a * x[j] for j in [0, n) — mul then add, separately
     * rounded, so it is memcmp-identical to the scalar loop
     * matmul/bmm were written as.
     */
    void (*axpyF32)(float a, const float *x, float *y, int64_t n);

    /**
     * sum_i a[i] * b[i] over int8 operands with exact integer
     * accumulation (int64 result). Integer addition is associative,
     * so every vector widening/reduction scheme returns the same
     * value as the scalar loop.
     */
    int64_t (*dotS8)(const int8_t *a, const int8_t *b, int64_t n);

    /**
     * q[i] = clamp_{[-127,127]}(round(x[i] * inv_scale)) with
     * std::round's half-away-from-zero semantics, NaN mapping to 127
     * exactly like the scalar std::min/std::max chain.
     */
    void (*quantizeF32S8)(const float *x, float inv_scale, int8_t *q,
                          int64_t n);

    /** out[i] = q[i] * scale. */
    void (*dequantizeS8F32)(const int8_t *q, float scale, float *out,
                            int64_t n);

    /**
     * y[i] = geluScalar(x[i]) for i in [0, n); @p x == @p y is
     * allowed. The SIMD bodies run tanh_lanes.hh's port of fdlibm's
     * tanhf in every lane — the scalar code's exact sequence of IEEE
     * operations, with no FMA — and hand the 1 to lanes-1 element
     * tail to geluScalar(), so every ISA is memcmp-identical to it.
     */
    void (*geluF32)(const float *x, float *y, int64_t n);

    /**
     * Depthwise conv of @p planes plane pairs: plane u reads its input
     * at in + u * in_stride (in_stride 0 shares one input plane), its
     * r*s taps at wk + u*r*s, and writes p*q outputs at out + u*p*q.
     * Each output starts at bias[u] (+0 when @p bias is null) and, for
     * r ascending then s ascending, adds input * tap, mul then add, for
     * every tap that lands inside the input; a padded tap adds nothing.
     * That is the direct conv loop's per-element sequence, so every
     * ISA is memcmp-identical to depthwiseScalar().
     */
    void (*depthwiseF32)(const DepthwiseGeom &g, const float *in,
                         int64_t in_stride, const float *wk,
                         const float *bias, float *out, int64_t planes);

    /**
     * Bilinear resize of @p planes consecutive h x w planes at @p in
     * into outH x outW planes at @p out. Output (i, j) is
     *   v00 * rowW0[i] * colW0[j] + v01 * rowW0[i] * colW1[j]
     *     + v10 * rowW1[i] * colW0[j] + v11 * rowW1[i] * colW1[j]
     * evaluated left to right, with v00 at source (row0[i], col0[j]),
     * v01 at (row0[i], col1[j]), v10 at (row1[i], col0[j]) and v11 at
     * (row1[i], col1[j]): the per-element expression
     * interpolateBilinear was written as, so every ISA is
     * memcmp-identical to bilinearScalar().
     */
    void (*bilinearF32)(const BilinearTaps &t, const float *in, float *out,
                        int64_t planes);
};

namespace kernels
{

/** Scalar reference of Microkernels::depthwiseF32; the SIMD sets run
 *  it for geometries their vector body does not take. */
void depthwiseScalar(const DepthwiseGeom &g, const float *in,
                     int64_t in_stride, const float *wk, const float *bias,
                     float *out, int64_t planes);

/**
 * depthwiseScalar()'s row sweep with every stride-1 span run as
 * axpy(tap, input span, output span, n). With an exact axpyF32 it is
 * memcmp-identical to depthwiseScalar(); the NEON set runs it on
 * axpyNeon, as the depthwise conv did before it had its own entry.
 */
void depthwiseAxpy(const DepthwiseGeom &g, const float *in,
                   int64_t in_stride, const float *wk, const float *bias,
                   float *out, int64_t planes,
                   void (*axpy)(float, const float *, float *, int64_t));

/** Scalar reference of Microkernels::bilinearF32. */
void bilinearScalar(const BilinearTaps &t, const float *in, float *out,
                    int64_t planes);

} // namespace kernels

/**
 * tanh of one float: fdlibm's tanhf, ported in tanh_lanes.hh, so its
 * bits do not depend on the host's libm (they equal glibc's tanhf
 * where that is fdlibm's, as in glibc 2.36).
 */
float tanhScalar(float x);

/**
 * GELU of one element, tanh approximation as used by PyTorch:
 * 0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715 v^3))) with tanhScalar().
 * The reference every geluF32 kernel reproduces, and so the one
 * expression behind gelu(), geluInPlace() and the fused conv epilogue.
 */
float geluScalar(float v);

/**
 * Microkernel set for @p isa. Entries whose ISA is compiled out or
 * not supported by the running CPU are the scalar implementations,
 * so calling through any returned set is always safe.
 */
const Microkernels &kernelsFor(IsaLevel isa);

/** True when kernelsFor(isa) actually dispatches to @p isa. */
bool isaAvailable(IsaLevel isa);

/** Best ISA compiled in and supported by this CPU. */
IsaLevel detectBestIsa();

/**
 * The process-wide selection: detectBestIsa() unless VITDYN_ISA
 * overrides it. Resolved once on first call; an unknown VITDYN_ISA
 * value warns and falls back to detection.
 */
IsaLevel activeIsa();

/** kernelsFor(activeIsa()). */
const Microkernels &activeKernels();

} // namespace vitdyn

#endif // VITDYN_TENSOR_KERNELS_KERNELS_HH
