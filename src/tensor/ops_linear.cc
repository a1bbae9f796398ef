#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "tensor/gemm.hh"
#include "tensor/kernels/kernels.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vitdyn
{

Tensor
linear(const Tensor &input, const Tensor &weight, const Tensor &bias)
{
    return linear(input, weight, bias, activeKernels());
}

Tensor
linear(const Tensor &input, const Tensor &weight, const Tensor &bias,
       const Microkernels &mk)
{
    vitdyn_assert(weight.rank() == 2, "linear weight must be rank 2");
    const int64_t in_f = weight.dim(1);
    const int64_t out_f = weight.dim(0);
    vitdyn_assert(input.rank() >= 1 && input.dim(-1) == in_f,
                  "linear input last dim ", input.dim(-1),
                  " != in_features ", in_f);
    vitdyn_assert(bias.numel() == 0 || bias.numel() == out_f,
                  "linear bias size mismatch");

    const int64_t rows = input.numel() / in_f;
    Shape out_shape = input.shape();
    out_shape.back() = out_f;
    Tensor out(out_shape);

    // Y^T(out_f, rows) = W(out_f, in_f) x X^T(in_f, rows) + b: the bias
    // is per W row, and element (o, r) starts at b[o] and accumulates
    // x[r][i] * W[o][i] over ascending i, the scalar dot loop's exact
    // arithmetic. W is read in place; X^T is built up front and each
    // finished Y^T block is transposed into Y while still in cache.
    std::unique_ptr<float[]> xt(new float[in_f * rows]);
    std::unique_ptr<float[]> yt(new float[out_f * rows]);
    const float *x = input.data();
    parallelFor(0, rows, grainForFlops(in_f), [&](int64_t r0, int64_t r1) {
        transposeBlock(x + r0 * in_f, in_f, r1 - r0, in_f, xt.get() + r0,
                       rows);
    });
    float *y = out.data();
    gemm(mk.gemmTileExact, {out_f, rows, in_f, in_f, rows, rows},
         {weight.data(), xt.get(), bias.numel() ? bias.data() : nullptr,
          yt.get()},
         kDefaultGemmColBlock,
         [&](int64_t, int64_t o0, int64_t o1, int64_t r0, int64_t r1) {
        transposeBlock(yt.get() + o0 * rows + r0, rows, o1 - o0, r1 - r0,
                       y + r0 * out_f + o0, out_f);
    });
    return out;
}

Tensor
attentionScores(const Tensor &q, const Tensor &k, int64_t num_heads)
{
    return attentionScores(q, k, num_heads, activeKernels());
}

Tensor
attentionScores(const Tensor &q, const Tensor &k, int64_t num_heads,
                const Microkernels &mk)
{
    vitdyn_assert(q.rank() == 3 && k.rank() == 3,
                  "attentionScores inputs must be (N, L, C)");
    const int64_t n = q.dim(0);
    const int64_t lq = q.dim(1);
    const int64_t c = q.dim(2);
    const int64_t lkv = k.dim(1);
    vitdyn_assert(k.dim(0) == n && k.dim(2) == c,
                  "attentionScores Q/K shape mismatch");
    vitdyn_assert(num_heads > 0 && c % num_heads == 0,
                  "embedding dim ", c, " not divisible by heads ",
                  num_heads);
    const int64_t dh = c / num_heads;
    const int64_t nh = n * num_heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    // K_h^T(dh, lkv) packed per (n, head), so each head is one
    // Q_h(lq, dh) x K_h^T GEMM with a zero start.
    std::unique_ptr<float[]> kt(new float[nh * dh * lkv]);
    parallelFor(0, nh, grainForFlops(dh * lkv),
                [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
            const int64_t nn = b / num_heads;
            const int64_t c0 = (b % num_heads) * dh;
            transposeBlock(k.data() + nn * lkv * c + c0, c, lkv, dh,
                           kt.get() + b * dh * lkv, lkv);
        }
    });

    Tensor out({n, num_heads, lq, lkv});
    float *o = out.data();
    gemmBatched(
        mk.gemmTileExact, {lq, lkv, dh, c, lkv, lkv}, nh,
        [&](int64_t b) {
            const int64_t nn = b / num_heads;
            const int64_t c0 = (b % num_heads) * dh;
            return GemmOperands{q.data() + nn * lq * c + c0,
                                kt.get() + b * dh * lkv, nullptr,
                                o + b * lq * lkv};
        },
        kDefaultGemmColBlock,
        [&](int64_t b, int64_t i0, int64_t i1, int64_t j0, int64_t j1) {
            for (int64_t i = i0; i < i1; ++i) {
                float *row = o + (b * lq + i) * lkv;
                for (int64_t j = j0; j < j1; ++j)
                    row[j] = row[j] * scale;
            }
        });
    return out;
}

Tensor
attentionContext(const Tensor &scores, const Tensor &v)
{
    return attentionContext(scores, v, activeKernels());
}

Tensor
attentionContext(const Tensor &scores, const Tensor &v,
                 const Microkernels &mk)
{
    vitdyn_assert(scores.rank() == 4 && v.rank() == 3,
                  "attentionContext needs (N, H, Lq, Lkv) scores and "
                  "(N, Lkv, C) values");
    const int64_t n = scores.dim(0);
    const int64_t heads = scores.dim(1);
    const int64_t lq = scores.dim(2);
    const int64_t lkv = scores.dim(3);
    const int64_t c = v.dim(2);
    vitdyn_assert(v.dim(0) == n && v.dim(1) == lkv,
                  "attentionContext scores/values shape mismatch");
    vitdyn_assert(heads > 0 && c % heads == 0, "embedding dim ", c,
                  " not divisible by heads ", heads);
    const int64_t dh = c / heads;

    // out_h(lq, dh) = S_h(lq, lkv) x V_h(lkv, dh), with V's head slice
    // and the output's read and written in place (row stride C).
    Tensor out({n, lq, c});
    gemmBatched(mk.gemmTileExact, {lq, dh, lkv, lkv, c, c}, n * heads,
                [&](int64_t b) {
        const int64_t nn = b / heads;
        const int64_t c0 = (b % heads) * dh;
        return GemmOperands{scores.data() + b * lq * lkv,
                            v.data() + nn * lkv * c + c0, nullptr,
                            out.data() + nn * lq * c + c0};
    });
    return out;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    vitdyn_assert(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2");
    const int64_t m = a.dim(0);
    const int64_t k = a.dim(1);
    vitdyn_assert(b.dim(0) == k, "matmul inner dims: ", k, " vs ", b.dim(0));
    const int64_t n = b.dim(1);

    Tensor out({m, n});
    // Rank-1 axpy updates preserve the reference loop exactly —
    // including the zero-skip, whose -0.0/Inf/NaN semantics a dense
    // GEMM restructuring would change.
    const Microkernels &mk = activeKernels();
    parallelFor(0, m, grainForFlops(2 * k * n),
                [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float *orow = out.data() + i * n;
            for (int64_t kk = 0; kk < k; ++kk) {
                const float av = a.at2(i, kk);
                if (av == 0.0f)
                    continue;
                mk.axpyF32(av, b.data() + kk * n, orow, n);
            }
        }
    });
    return out;
}

Tensor
bmm(const Tensor &a, const Tensor &b)
{
    vitdyn_assert(a.rank() == 3 && b.rank() == 3, "bmm needs rank-3");
    const int64_t batch = a.dim(0);
    vitdyn_assert(b.dim(0) == batch, "bmm batch mismatch");
    const int64_t m = a.dim(1);
    const int64_t k = a.dim(2);
    vitdyn_assert(b.dim(1) == k, "bmm inner dims: ", k, " vs ", b.dim(1));
    const int64_t n = b.dim(2);

    Tensor out({batch, m, n});
    // Sharded over the flattened (batch, row) space: each item owns
    // one output row, so any partitioning is bit-identical. The
    // zero-skip is preserved (see matmul).
    const Microkernels &mk = activeKernels();
    parallelFor(0, batch * m, grainForFlops(2 * k * n),
                [&](int64_t bi0, int64_t bi1) {
        for (int64_t bi = bi0; bi < bi1; ++bi) {
            const int64_t bb = bi / m;
            const int64_t i = bi % m;
            const float *arow = a.data() + (bb * m + i) * k;
            const float *bbp = b.data() + bb * k * n;
            float *orow = out.data() + (bb * m + i) * n;
            for (int64_t kk = 0; kk < k; ++kk) {
                const float av = arow[kk];
                if (av == 0.0f)
                    continue;
                mk.axpyF32(av, bbp + kk * n, orow, n);
            }
        }
    });
    return out;
}

Tensor
attention(const Tensor &q, const Tensor &k, const Tensor &v,
          int64_t num_heads)
{
    vitdyn_assert(q.rank() == 3 && k.rank() == 3 && v.rank() == 3,
                  "attention inputs must be (N, L, C)");
    const int64_t n = q.dim(0);
    const int64_t lq = q.dim(1);
    const int64_t c = q.dim(2);
    const int64_t lkv = k.dim(1);
    vitdyn_assert(k.dim(0) == n && v.dim(0) == n, "attention batch mismatch");
    vitdyn_assert(k.dim(2) == c && v.dim(2) == c, "attention dim mismatch");
    vitdyn_assert(v.dim(1) == lkv, "attention K/V length mismatch");
    vitdyn_assert(num_heads > 0 && c % num_heads == 0,
                  "embedding dim ", c, " not divisible by heads ",
                  num_heads);

    const int64_t dh = c / num_heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor out({n, lq, c});
    // Sharded over (batch, head): shards write disjoint head slices
    // of the output and keep a private score buffer.
    parallelFor(0, n * num_heads, grainForFlops(4 * lq * lkv * dh),
                [&](int64_t nh0, int64_t nh1) {
        std::vector<float> scores(static_cast<size_t>(lkv));
        for (int64_t nh = nh0; nh < nh1; ++nh) {
            const int64_t nn = nh / num_heads;
            const int64_t hh = nh % num_heads;
            const int64_t c0 = hh * dh;
            for (int64_t i = 0; i < lq; ++i) {
                // scores = softmax(q_i . k_j * scale)
                float max_s = -std::numeric_limits<float>::infinity();
                for (int64_t j = 0; j < lkv; ++j) {
                    float dot = 0.0f;
                    for (int64_t d = 0; d < dh; ++d)
                        dot += q.at3(nn, i, c0 + d) *
                               k.at3(nn, j, c0 + d);
                    scores[j] = dot * scale;
                    max_s = std::max(max_s, scores[j]);
                }
                float denom = 0.0f;
                for (int64_t j = 0; j < lkv; ++j) {
                    scores[j] = std::exp(scores[j] - max_s);
                    denom += scores[j];
                }
                const float inv = 1.0f / denom;
                for (int64_t d = 0; d < dh; ++d) {
                    float acc = 0.0f;
                    for (int64_t j = 0; j < lkv; ++j)
                        acc += scores[j] * v.at3(nn, j, c0 + d);
                    out.at3(nn, i, c0 + d) = acc * inv;
                }
            }
        }
    });
    return out;
}

} // namespace vitdyn
