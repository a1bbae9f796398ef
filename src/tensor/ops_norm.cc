#include "tensor/ops.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vitdyn
{

Tensor
softmax(const Tensor &input)
{
    vitdyn_assert(input.rank() >= 1, "softmax needs rank >= 1");
    const int64_t c = input.dim(-1);
    const int64_t rows = input.numel() / c;

    Tensor out(input.shape());
    const float *x = input.data();
    float *y = out.data();

    // Rows are independent, so sharding them keeps every bit.
    parallelFor(0, rows, grainForFlops(4 * c),
                [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *xr = x + r * c;
            float *yr = y + r * c;
            float max_v = xr[0];
            for (int64_t i = 1; i < c; ++i)
                max_v = std::max(max_v, xr[i]);
            // Fully-masked row (every logit -inf, as attention masks
            // produce): exp(-inf - -inf) is NaN and denom is 0. Define the
            // result as uniform — the limit of softmax over equal logits —
            // so masked rows stay finite instead of poisoning downstream.
            if (std::isinf(max_v) && max_v < 0.0f) {
                const float uniform = 1.0f / static_cast<float>(c);
                for (int64_t i = 0; i < c; ++i)
                    yr[i] = uniform;
                continue;
            }
            float denom = 0.0f;
            for (int64_t i = 0; i < c; ++i) {
                yr[i] = std::exp(xr[i] - max_v);
                denom += yr[i];
            }
            const float inv = 1.0f / denom;
            for (int64_t i = 0; i < c; ++i)
                yr[i] *= inv;
        }
    });
    return out;
}

Tensor
layerNorm(const Tensor &input, const Tensor &gamma, const Tensor &beta,
          float eps)
{
    const int64_t c = input.dim(-1);
    vitdyn_assert(gamma.numel() == c && beta.numel() == c,
                  "layerNorm affine params must have size ", c);
    const int64_t rows = input.numel() / c;

    Tensor out(input.shape());
    const float *x = input.data();
    float *y = out.data();

    // Rows are independent (each keeps its own double accumulation),
    // so sharding them keeps every bit.
    parallelFor(0, rows, grainForFlops(8 * c),
                [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *xr = x + r * c;
            float *yr = y + r * c;
            double mean = 0.0;
            for (int64_t i = 0; i < c; ++i)
                mean += xr[i];
            mean /= c;
            double var = 0.0;
            for (int64_t i = 0; i < c; ++i) {
                const double d = xr[i] - mean;
                var += d * d;
            }
            var /= c;
            const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
            for (int64_t i = 0; i < c; ++i) {
                yr[i] = (xr[i] - static_cast<float>(mean)) * inv * gamma[i] +
                        beta[i];
            }
        }
    });
    return out;
}

Tensor
batchNorm(const Tensor &input, const Tensor &gamma, const Tensor &beta,
          const Tensor &mean, const Tensor &var, float eps)
{
    vitdyn_assert(input.rank() == 4, "batchNorm input must be NCHW");
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t hw = input.dim(2) * input.dim(3);
    vitdyn_assert(gamma.numel() == c && beta.numel() == c &&
                  mean.numel() == c && var.numel() == c,
                  "batchNorm params must have size C=", c);

    Tensor out(input.shape());
    // (n, c) planes are independent: sharding them keeps every bit.
    parallelFor(0, n * c, grainForFlops(2 * hw),
                [&](int64_t nc0, int64_t nc1) {
        for (int64_t nc = nc0; nc < nc1; ++nc) {
            const int64_t cc = nc % c;
            const float scale =
                gamma[cc] / std::sqrt(var[cc] + eps);
            const float shift = beta[cc] - mean[cc] * scale;
            const float *x = input.data() + nc * hw;
            float *y = out.data() + nc * hw;
            for (int64_t i = 0; i < hw; ++i)
                y[i] = x[i] * scale + shift;
        }
    });
    return out;
}

void
batchNormInPlace(Tensor &x, const Tensor &gamma, const Tensor &beta,
                 const Tensor &mean, const Tensor &var, float eps)
{
    vitdyn_assert(x.rank() == 4, "batchNorm input must be NCHW");
    const int64_t n = x.dim(0);
    const int64_t c = x.dim(1);
    const int64_t hw = x.dim(2) * x.dim(3);
    vitdyn_assert(gamma.numel() == c && beta.numel() == c &&
                  mean.numel() == c && var.numel() == c,
                  "batchNorm params must have size C=", c);

    parallelFor(0, n * c, grainForFlops(2 * hw),
                [&](int64_t nc0, int64_t nc1) {
        for (int64_t nc = nc0; nc < nc1; ++nc) {
            const int64_t cc = nc % c;
            const float scale = gamma[cc] / std::sqrt(var[cc] + eps);
            const float shift = beta[cc] - mean[cc] * scale;
            float *y = x.data() + nc * hw;
            for (int64_t i = 0; i < hw; ++i)
                y[i] = y[i] * scale + shift;
        }
    });
}

void
convEpilogueInPlace(Tensor &x, const float *scale, const float *shift,
                    EpilogueAct act)
{
    vitdyn_assert(x.rank() == 4, "conv epilogue input must be NCHW");
    vitdyn_assert((scale == nullptr) == (shift == nullptr),
                  "conv epilogue wants scale and shift together");
    const int64_t c = x.dim(1);
    const int64_t hw = x.dim(2) * x.dim(3);
    const int64_t rows = x.dim(0) * c;
    float *data = x.data();
    const auto gelu = activeKernels().geluF32;

    // Elementwise over disjoint (n, c) rows: deterministic under the
    // sharded parallelFor at any thread count.
    const int64_t row_flops =
        hw * ((scale ? 2 : 0) +
              (act == EpilogueAct::GELU ? kGeluFlops : 1));
    parallelFor(0, rows, grainForFlops(row_flops),
                [&](int64_t begin, int64_t end) {
        for (int64_t row = begin; row < end; ++row) {
            float *y = data + row * hw;
            if (scale) {
                const int64_t cc = row % c;
                const float s = scale[cc];
                const float t = shift[cc];
                for (int64_t i = 0; i < hw; ++i)
                    y[i] = y[i] * s + t;
            }
            switch (act) {
              case EpilogueAct::None:
                break;
              case EpilogueAct::ReLU:
                for (int64_t i = 0; i < hw; ++i)
                    y[i] = y[i] > 0.0f ? y[i] : 0.0f;
                break;
              case EpilogueAct::GELU:
                gelu(y, y, hw);
                break;
            }
        }
    });
}

} // namespace vitdyn
