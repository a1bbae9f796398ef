#include "tensor/gemm.hh"

#include <algorithm>

#include "util/threadpool.hh"

namespace vitdyn
{

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
            // Column blocks keep `col` rows hot across the shard's rows.
            for (int64_t j0 = 0; j0 < d.n; j0 += jblock) {
                const int64_t jb = std::min(jblock, d.n - j0);
                tile(w, d.ldw, op.col + j0, d.ldc, bias, out + j0, d.ldo,
                     kb, jb, d.len);
                if (epilogue)
                    epilogue(b, i0, i0 + kb, j0, j0 + jb);
            }
            r += kb;
        }
    });
}

void
gemm(GemmTileFn tile, const GemmDims &dims, const GemmOperands &ops,
     int64_t col_block, const GemmEpilogue &epilogue)
{
    gemmBatched(tile, dims, 1, [&](int64_t) { return ops; }, col_block,
                epilogue);
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
