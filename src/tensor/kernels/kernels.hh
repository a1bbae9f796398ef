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
};

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
