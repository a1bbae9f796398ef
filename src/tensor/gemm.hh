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
 *
 * The driver comes in two operand layouts, one entry each:
 *
 *  - gemmBatched / gemm: `out = w x col + bias` with a per-row bias,
 *    every operand row-major with its own leading dimension (conv's
 *    im2col GEMM, the attention products).
 *  - gemmPanels: `Y = X x W^T + b` with a per-column bias, where W^T
 *    is stored as column panels (packPanels): panel p is a contiguous
 *    [len][kGemmPanelCols] block holding columns 32p .. 32p+31 of W^T
 *    (rows 32p .. 32p+31 of W), zero-padded past the last column.
 *    X rows are the tile's broadcast operand, read in place; the panel
 *    is its vector operand with ldc = kGemmPanelCols, so one l step
 *    reads 128 contiguous bytes instead of a row a full W^T stride
 *    away, and no transpose of X or Y is ever made. Each Y[r][c]
 *    starts at b[c] and accumulates x[r][l] * w[c][l] over ascending
 *    l, mul and add rounded separately: the same sequence the per-row
 *    layout gives, so the two layouts agree to the bit.
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
          int64_t col_block = kDefaultGemmColBlock);

/** Columns of one weight panel (see the file comment). */
constexpr int64_t kGemmPanelCols = 32;

/** Panels covering @p n columns: ceil(n / kGemmPanelCols). */
constexpr int64_t
gemmPanelCount(int64_t n)
{
    return (n + kGemmPanelCols - 1) / kGemmPanelCols;
}

/**
 * Pack @p w, n rows of @p len floats (row stride len), as column panels
 * of w^T: panels[(p * len + l) * kGemmPanelCols + c] = w[(32p + c) *
 * len + l], and 0 where 32p + c >= n. @p panels holds
 * gemmPanelCount(n) * len * kGemmPanelCols floats. Sharded over panels.
 */
void packPanels(const float *w, int64_t n, int64_t len, float *panels);

/** Inverse of packPanels: rebuild the n x len row-major @p w. */
void unpackPanels(const float *panels, int64_t n, int64_t len, float *w);

/**
 * out[r][c] = bias[c] (or +0.0f), then += x[r][l] * w^T[l][c] over
 * ascending l, for r in [0, m) and c in [0, n): @p x is m x len
 * (row stride len), @p panels is w^T packed by packPanels, @p out is
 * m x n (row stride n). Sharded over (row block x panel) tasks; each
 * task seeds its block with the bias and runs the tile once per
 * kGemmChunkLen chunk of l, as gemmBatched does.
 */
void gemmPanels(GemmTileFn tile, int64_t m, int64_t n, int64_t len,
                const float *x, const float *panels, const float *bias,
                float *out);

/**
 * dst[c * ldd + r] = src[r * lds + c] for r in [0, rows), c in
 * [0, cols): a serial, cache-blocked transpose of one block.
 */
void transposeBlock(const float *src, int64_t lds, int64_t rows,
                    int64_t cols, float *dst, int64_t ldd);

} // namespace vitdyn

#endif // VITDYN_TENSOR_GEMM_HH
