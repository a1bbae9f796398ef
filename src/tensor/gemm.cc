#include "tensor/gemm.hh"

#include <algorithm>

#include "util/threadpool.hh"

namespace vitdyn
{

namespace
{

/** row[0, n) = v, unrolled so the compiler emits vector stores. */
void
seedRow(float *row, int64_t n, float v)
{
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        row[j] = v;
        row[j + 1] = v;
        row[j + 2] = v;
        row[j + 3] = v;
        row[j + 4] = v;
        row[j + 5] = v;
        row[j + 6] = v;
        row[j + 7] = v;
    }
    for (; j < n; ++j)
        row[j] = v;
}

} // namespace

void
gemmBatched(GemmTileFn tile, const GemmDims &d, int64_t batch,
            const std::function<GemmOperands(int64_t)> &operands,
            int64_t col_block, const GemmEpilogue &epilogue)
{
    if (d.m <= 0 || d.n <= 0)
        return;
    const int64_t jblock =
        std::clamp<int64_t>(col_block, 1, kMaxGemmTileCols);
    parallelFor(0, batch * d.m, grainForFlops(2 * d.len * d.n),
                [&](int64_t r0, int64_t r1) {
        // A shard may straddle problems: split it at their boundaries.
        for (int64_t r = r0; r < r1;) {
            const int64_t b = r / d.m;
            const int64_t i0 = r % d.m;
            const int64_t kb = std::min(d.m - i0, r1 - r);
            const GemmOperands op = operands(b);
            const float *w = op.w + i0 * d.ldw;
            const float *bias = op.bias ? op.bias + i0 : nullptr;
            float *out = op.out + i0 * d.ldo;
            // Column blocks keep `col` rows hot across the shard's rows;
            // l chunks keep the block's col panel hot across them.
            for (int64_t j0 = 0; j0 < d.n; j0 += jblock) {
                const int64_t jb = std::min(jblock, d.n - j0);
                for (int64_t i = 0; i < kb; ++i)
                    seedRow(out + i * d.ldo + j0, jb, bias ? bias[i] : 0.0f);
                for (int64_t l0 = 0; l0 < d.len; l0 += kGemmChunkLen)
                    tile(w + l0, d.ldw, op.col + l0 * d.ldc + j0, d.ldc,
                         out + j0, d.ldo, kb, jb,
                         std::min(kGemmChunkLen, d.len - l0));
                if (epilogue)
                    epilogue(b, i0, i0 + kb, j0, j0 + jb);
            }
            r += kb;
        }
    });
}

void
gemm(GemmTileFn tile, const GemmDims &dims, const GemmOperands &ops,
     int64_t col_block)
{
    gemmBatched(tile, dims, 1, [&](int64_t) { return ops; }, col_block);
}

void
packPanels(const float *w, int64_t n, int64_t len, float *panels)
{
    parallelFor(0, gemmPanelCount(n), grainForFlops(len * kGemmPanelCols),
                [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            const int64_t c0 = p * kGemmPanelCols;
            const int64_t cols = std::min(kGemmPanelCols, n - c0);
            float *panel = panels + p * len * kGemmPanelCols;
            transposeBlock(w + c0 * len, len, cols, len, panel,
                           kGemmPanelCols);
            if (cols < kGemmPanelCols)
                for (int64_t l = 0; l < len; ++l)
                    seedRow(panel + l * kGemmPanelCols + cols,
                            kGemmPanelCols - cols, 0.0f);
        }
    });
}

void
unpackPanels(const float *panels, int64_t n, int64_t len, float *w)
{
    parallelFor(0, gemmPanelCount(n), grainForFlops(len * kGemmPanelCols),
                [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            const int64_t c0 = p * kGemmPanelCols;
            transposeBlock(panels + p * len * kGemmPanelCols,
                           kGemmPanelCols, len,
                           std::min(kGemmPanelCols, n - c0), w + c0 * len,
                           len);
        }
    });
}

void
gemmPanels(GemmTileFn tile, int64_t m, int64_t n, int64_t len,
           const float *x, const float *panels, const float *bias,
           float *out)
{
    if (m <= 0 || n <= 0)
        return;
    // Rows per task: a multiple of every tile's row count (4 on AVX2,
    // 6 on AVX-512), small enough that a 36-row input still splits
    // into two blocks of tasks for the pool, and whose X chunk (24 x
    // kGemmChunkLen floats) sits beside its panel chunk in L1.
    constexpr int64_t kRowBlock = 24;
    const int64_t row_blocks = (m + kRowBlock - 1) / kRowBlock;
    const int64_t npanels = gemmPanelCount(n);
    // Task t is row block t / npanels x panel t % npanels, so a shard
    // sweeps the panels of one row block while its X rows stay hot.
    parallelFor(0, row_blocks * npanels,
                grainForFlops(2 * kRowBlock * kGemmPanelCols * len),
                [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
            const int64_t r0 = t / npanels * kRowBlock;
            const int64_t kb = std::min(kRowBlock, m - r0);
            const int64_t p = t % npanels;
            const int64_t c0 = p * kGemmPanelCols;
            const int64_t jb = std::min(kGemmPanelCols, n - c0);
            const float *panel = panels + p * len * kGemmPanelCols;
            float *o = out + r0 * n + c0;
            for (int64_t i = 0; i < kb; ++i) {
                float *row = o + i * n;
                if (bias)
                    std::copy(bias + c0, bias + c0 + jb, row);
                else
                    seedRow(row, jb, 0.0f);
            }
            for (int64_t l0 = 0; l0 < len; l0 += kGemmChunkLen)
                tile(x + r0 * len + l0, len, panel + l0 * kGemmPanelCols,
                     kGemmPanelCols, o, n, kb, jb,
                     std::min(kGemmChunkLen, len - l0));
        }
    });
}

void
transposeBlock(const float *src, int64_t lds, int64_t rows, int64_t cols,
               float *dst, int64_t ldd)
{
    // 32x32 tiles, four source rows at a time: each destination row
    // gets four adjacent stores per pass.
    constexpr int64_t kTile = 32;
    for (int64_t r0 = 0; r0 < rows; r0 += kTile) {
        const int64_t r1 = std::min(r0 + kTile, rows);
        for (int64_t c0 = 0; c0 < cols; c0 += kTile) {
            const int64_t c1 = std::min(c0 + kTile, cols);
            int64_t r = r0;
            for (; r + 4 <= r1; r += 4) {
                const float *s0 = src + r * lds;
                const float *s1 = s0 + lds;
                const float *s2 = s1 + lds;
                const float *s3 = s2 + lds;
                for (int64_t c = c0; c < c1; ++c) {
                    float *d = dst + c * ldd + r;
                    d[0] = s0[c];
                    d[1] = s1[c];
                    d[2] = s2[c];
                    d[3] = s3[c];
                }
            }
            for (; r < r1; ++r)
                for (int64_t c = c0; c < c1; ++c)
                    dst[c * ldd + r] = src[r * lds + c];
        }
    }
}

} // namespace vitdyn
