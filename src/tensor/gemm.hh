/**
 * @file
 * The blocked, sharded GEMM driver behind every dense float
 * contraction: conv2d's im2col path, linear(), attentionScores() and
 * attentionContext().
 *
 * The driver owns the loop structure around a GEMM tile microkernel
 * (kernels/kernels.hh): parallelFor over output rows, column blocks
 * of at most kMaxGemmTileCols inside each shard, and inside each
 * (shard, block) the accumulation axis in chunks of kGemmChunkLen.
 * The driver seeds the block with bias[i] (or +0.0f), then calls the
 * tile once per chunk in ascending order; the tile adds the chunk's
 * products onto the partial sums the previous chunk parked in `out`.
 * A float store and reload is exact, so each output element still
 * sees exactly the scalar reference loop
 *
 *     out[i][j] = bias[i];  for l ascending: out[i][j] += w[i][l] * col[l][j]
 *
 * with the product and the sum rounded separately, and neither the
 * shard boundaries (thread count), the column block nor the chunk
 * length changes a bit of the result. The chunk keeps the col panel a
 * tile streams (kGemmChunkLen x block columns) cache-resident however
 * long the accumulation is, as an output-stationary accelerator tiles
 * its reduction axis and keeps partial sums in place.
 */

#ifndef VITDYN_TENSOR_GEMM_HH
#define VITDYN_TENSOR_GEMM_HH

#include <cstdint>
#include <functional>

#include "tensor/kernels/kernels.hh"

namespace vitdyn
{

/** Column block for callers without a tuned plan. */
constexpr int64_t kDefaultGemmColBlock = 128;

/** Accumulation-axis chunk: one tile call covers at most this many l. */
constexpr int64_t kGemmChunkLen = 256;

/** Extents and leading dimensions shared by every problem of a call. */
struct GemmDims
{
    int64_t m = 0;   ///< Output rows.
    int64_t n = 0;   ///< Output columns.
    int64_t len = 0; ///< Accumulation length.
    int64_t ldw = 0; ///< Row stride of w (m, len).
    int64_t ldc = 0; ///< Row stride of col (len, n).
    int64_t ldo = 0; ///< Row stride of out (m, n).
};

/** Operand pointers of one GEMM problem. */
struct GemmOperands
{
    const float *w = nullptr;
    const float *col = nullptr;
    /** Per-row start value (m entries), or nullptr for 0. */
    const float *bias = nullptr;
    float *out = nullptr;
};

/**
 * Optional per-block hook: called by the shard that has just finished
 * out rows [i0, i1) x columns [j0, j1) of problem b (after the block's
 * last accumulation chunk), while that block is still in cache. It may
 * rewrite or copy out the block's elements and nothing else.
 */
using GemmEpilogue = std::function<void(int64_t b, int64_t i0, int64_t i1,
                                        int64_t j0, int64_t j1)>;

/**
 * out = w x col + bias for @p batch independent problems of the same
 * @p dims; @p operands(b) supplies problem b's pointers. Sharded over
 * the flattened (batch, row) space; @p col_block is clamped to
 * [1, kMaxGemmTileCols].
 */
void gemmBatched(GemmTileFn tile, const GemmDims &dims, int64_t batch,
                 const std::function<GemmOperands(int64_t)> &operands,
                 int64_t col_block = kDefaultGemmColBlock,
                 const GemmEpilogue &epilogue = nullptr);

/** gemmBatched for a single problem. */
void gemm(GemmTileFn tile, const GemmDims &dims, const GemmOperands &ops,
          int64_t col_block = kDefaultGemmColBlock,
          const GemmEpilogue &epilogue = nullptr);

/**
 * dst[c * ldd + r] = src[r * lds + c] for r in [0, rows), c in
 * [0, cols): a serial, cache-blocked transpose of one block.
 */
void transposeBlock(const float *src, int64_t lds, int64_t rows,
                    int64_t cols, float *dst, int64_t ldd);

} // namespace vitdyn

#endif // VITDYN_TENSOR_GEMM_HH
