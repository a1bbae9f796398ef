#include "tensor/ops.hh"

#include <algorithm>

#include "tensor/gemm.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vitdyn
{

namespace
{

/** Columns per shard of transposeImages(): one transposeBlock tile. */
constexpr int64_t kTransposeBlock = 32;

/**
 * dst_n (cols, rows) = src_n (rows, cols)^T for each of @p n images,
 * sharded over (image, block of kTransposeBlock source columns). Every
 * element is one plain copy, so the sharding cannot change a bit.
 */
void
transposeImages(const float *src, float *dst, int64_t n, int64_t rows,
                int64_t cols)
{
    const int64_t blocks = (cols + kTransposeBlock - 1) / kTransposeBlock;
    parallelFor(0, n * blocks, grainForFlops(rows * kTransposeBlock),
                [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
            const int64_t image = (b / blocks) * rows * cols;
            const int64_t c0 = (b % blocks) * kTransposeBlock;
            const int64_t c1 = std::min(c0 + kTransposeBlock, cols);
            transposeBlock(src + image + c0, cols, rows, c1 - c0,
                           dst + image + c0 * rows, rows);
        }
    });
}

/** One source of gatherRows(): per outer index, the first `rows` of
 *  its `stride` rows. */
struct RowSource
{
    const float *data;
    int64_t rows;
    int64_t stride;
};

/**
 * out (outer, sum of rows, row_len) = each outer index's source rows,
 * source after source. Sharded over the output (outer, row) rows; a
 * shard copies each contiguous run of one source's rows with one
 * std::copy.
 */
void
gatherRows(const std::vector<RowSource> &srcs, int64_t outer,
           int64_t row_len, float *out)
{
    int64_t total = 0;
    for (const RowSource &src : srcs)
        total += src.rows;
    parallelFor(0, outer * total, grainForFlops(row_len),
                [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1;) {
            const int64_t o = r / total;
            int64_t e = r % total;
            size_t t = 0;
            while (e >= srcs[t].rows)
                e -= srcs[t++].rows;
            const RowSource &src = srcs[t];
            const int64_t run = std::min(src.rows - e, r1 - r);
            const float *from = src.data + (o * src.stride + e) * row_len;
            std::copy(from, from + run * row_len, out + r * row_len);
            r += run;
        }
    });
}

/**
 * Concatenate rank-@p rank tensors along dim 1; every other dim must
 * match. @p op names the caller in diagnostics.
 */
Tensor
concatDim1(const std::vector<const Tensor *> &inputs, int64_t rank,
           const char *op)
{
    vitdyn_assert(!inputs.empty(), op, " of nothing");
    Shape shape = inputs.front()->shape();
    vitdyn_assert(static_cast<int64_t>(shape.size()) == rank, op,
                  " needs rank ", rank, ", got ", shapeToString(shape));
    std::vector<RowSource> srcs;
    srcs.reserve(inputs.size());
    int64_t total = 0;
    for (const Tensor *t : inputs) {
        Shape probe = t->shape();
        vitdyn_assert(t->rank() == rank, op, " mismatched shape ",
                      shapeToString(probe));
        const int64_t rows = probe[1];
        probe[1] = shape[1];
        vitdyn_assert(probe == shape, op, " mismatched shape ",
                      shapeToString(t->shape()));
        total += rows;
        srcs.push_back({t->data(), rows, rows});
    }
    shape[1] = total;

    int64_t row_len = 1;
    for (int64_t d = 2; d < rank; ++d)
        row_len *= shape[static_cast<size_t>(d)];
    Tensor out(shape);
    gatherRows(srcs, shape[0], row_len, out.data());
    return out;
}

} // namespace

Tensor
concatChannels(const std::vector<const Tensor *> &inputs)
{
    return concatDim1(inputs, 4, "concatChannels");
}

Tensor
concatTokens(const std::vector<const Tensor *> &inputs)
{
    return concatDim1(inputs, 3, "concatTokens");
}

Tensor
narrowChannels(const Tensor &input, int64_t keep)
{
    vitdyn_assert(input.rank() >= 1, "narrowChannels of a scalar");
    const int64_t c = input.rank() == 4 ? input.dim(1) : input.dim(-1);
    vitdyn_assert(keep >= 0 && keep <= c, "narrowChannels keeps ", keep,
                  " of ", c, " channels");
    Shape out_shape = input.shape();
    if (input.rank() == 4) {
        out_shape[1] = keep;
        Tensor out(out_shape);
        gatherRows({{input.data(), keep, c}}, input.dim(0),
                   input.dim(2) * input.dim(3), out.data());
        return out;
    }
    // Token layout: slice the last dimension of every row.
    out_shape.back() = keep;
    Tensor out(out_shape);
    gatherRows({{input.data(), keep, c}}, c ? input.numel() / c : 0, 1,
               out.data());
    return out;
}

Tensor
patchify(const Tensor &input, int64_t patch)
{
    vitdyn_assert(input.rank() == 4, "patchify needs NCHW");
    vitdyn_assert(patch > 0, "bad patch size ", patch);
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    const int64_t gh = h / patch;
    const int64_t gw = w / patch;
    const int64_t dim = c * patch * patch;

    Tensor out({n, gh * gw, dim});
    const float *in = input.data();
    float *dst = out.data();
    // One token per index: its c * patch rows of patch pixels are each
    // contiguous in the image and in the token.
    parallelFor(0, n * gh * gw, grainForFlops(dim),
                [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
            const int64_t nn = t / (gh * gw);
            const int64_t gy = (t % (gh * gw)) / gw;
            const int64_t gx = t % gw;
            float *tok = dst + t * dim;
            for (int64_t cc = 0; cc < c; ++cc)
                for (int64_t py = 0; py < patch; ++py) {
                    const float *row =
                        in + ((nn * c + cc) * h + gy * patch + py) * w +
                        gx * patch;
                    std::copy(row, row + patch,
                              tok + (cc * patch + py) * patch);
                }
        }
    });
    return out;
}

Tensor
nchwToTokens(const Tensor &input)
{
    vitdyn_assert(input.rank() == 4, "nchwToTokens needs NCHW");
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t hw = input.dim(2) * input.dim(3);

    Tensor out({n, hw, c});
    transposeImages(input.data(), out.data(), n, c, hw);
    return out;
}

Tensor
tokensToNchw(const Tensor &input, int64_t h, int64_t w)
{
    vitdyn_assert(input.rank() == 3, "tokensToNchw needs (N, L, C)");
    const int64_t n = input.dim(0);
    const int64_t l = input.dim(1);
    const int64_t c = input.dim(2);
    vitdyn_assert(l == h * w, "token count ", l, " != ", h, "*", w);

    Tensor out({n, c, h, w});
    transposeImages(input.data(), out.data(), n, l, c);
    return out;
}

Tensor
windowPartition(const Tensor &tokens, int64_t h, int64_t w, int64_t window)
{
    vitdyn_assert(tokens.rank() == 3, "windowPartition needs (N, L, C)");
    const int64_t n = tokens.dim(0);
    const int64_t c = tokens.dim(2);
    vitdyn_assert(tokens.dim(1) == h * w, "token count mismatch");
    vitdyn_assert(h % window == 0 && w % window == 0,
                  "grid ", h, "x", w, " not divisible by window ", window);

    const int64_t wh = h / window;
    const int64_t ww = w / window;
    Tensor out({n * wh * ww, window * window, c});

    for (int64_t nn = 0; nn < n; ++nn) {
        for (int64_t bi = 0; bi < wh; ++bi) {
            for (int64_t bj = 0; bj < ww; ++bj) {
                const int64_t win = (nn * wh + bi) * ww + bj;
                for (int64_t ii = 0; ii < window; ++ii) {
                    for (int64_t jj = 0; jj < window; ++jj) {
                        const int64_t src = (bi * window + ii) * w +
                                            bj * window + jj;
                        const int64_t dst = ii * window + jj;
                        for (int64_t cc = 0; cc < c; ++cc)
                            out.at3(win, dst, cc) = tokens.at3(nn, src, cc);
                    }
                }
            }
        }
    }
    return out;
}

Tensor
windowReverse(const Tensor &windows, int64_t h, int64_t w, int64_t window,
              int64_t batch)
{
    vitdyn_assert(windows.rank() == 3, "windowReverse needs rank-3");
    const int64_t c = windows.dim(2);
    const int64_t wh = h / window;
    const int64_t ww = w / window;
    vitdyn_assert(windows.dim(0) == batch * wh * ww,
                  "window count mismatch");
    vitdyn_assert(windows.dim(1) == window * window, "window size mismatch");

    Tensor out({batch, h * w, c});
    for (int64_t nn = 0; nn < batch; ++nn) {
        for (int64_t bi = 0; bi < wh; ++bi) {
            for (int64_t bj = 0; bj < ww; ++bj) {
                const int64_t win = (nn * wh + bi) * ww + bj;
                for (int64_t ii = 0; ii < window; ++ii) {
                    for (int64_t jj = 0; jj < window; ++jj) {
                        const int64_t dst = (bi * window + ii) * w +
                                            bj * window + jj;
                        const int64_t src = ii * window + jj;
                        for (int64_t cc = 0; cc < c; ++cc)
                            out.at3(nn, dst, cc) = windows.at3(win, src, cc);
                    }
                }
            }
        }
    }
    return out;
}

Tensor
cyclicShift(const Tensor &tokens, int64_t h, int64_t w, int64_t shift_h,
            int64_t shift_w)
{
    vitdyn_assert(tokens.rank() == 3, "cyclicShift needs (N, L, C)");
    const int64_t n = tokens.dim(0);
    const int64_t c = tokens.dim(2);
    vitdyn_assert(tokens.dim(1) == h * w, "token count mismatch");

    auto wrap = [](int64_t v, int64_t m) { return ((v % m) + m) % m; };

    Tensor out(tokens.shape());
    for (int64_t nn = 0; nn < n; ++nn) {
        for (int64_t hh = 0; hh < h; ++hh) {
            const int64_t sh = wrap(hh + shift_h, h);
            for (int64_t ww = 0; ww < w; ++ww) {
                const int64_t sw = wrap(ww + shift_w, w);
                for (int64_t cc = 0; cc < c; ++cc)
                    out.at3(nn, sh * w + sw, cc) =
                        tokens.at3(nn, hh * w + ww, cc);
            }
        }
    }
    return out;
}

} // namespace vitdyn
