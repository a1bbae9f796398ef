#include "tensor/ops.hh"

#include <algorithm>
#include <limits>

#include "obs/metrics.hh"
#include "tensor/gemm.hh"
#include "tensor/kernels/kernels.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vitdyn
{

int64_t
convOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    // Floor the division: C++ '/' truncates toward zero, which would
    // turn a negative numerator (kernel larger than the padded input)
    // into a bogus extent of 1 instead of <= 0.
    const int64_t num = in + 2 * pad - kernel;
    const int64_t q =
        num >= 0 ? num / stride : -((-num + stride - 1) / stride);
    return q + 1;
}

namespace
{

/**
 * U output channels of one image and one group, in flight together:
 * each output element starts at its bias and accumulates
 * input * weight over r, then s, then c ascending, skipping taps that
 * fall outside the input. @p img is the group's first input channel,
 * @p wk the first channel's packed (r, s, cg) weights, @p dst its
 * output plane; channel u's weights and plane follow at u * r*s*cg and
 * u * p*q. Raw pointers with hoisted strides, and U independent
 * accumulation chains, instead of two indexed loads per multiply-add.
 */
template <int U>
void
directChannels(const float *img, const float *wk, const float *bias,
               float *dst, int64_t h, int64_t w, int64_t cg, int64_t r,
               int64_t s, int64_t p, int64_t q, const Conv2dParams &params)
{
    const int64_t hw = h * w;
    const int64_t wstride = r * s * cg;
    const int64_t pq = p * q;
    for (int64_t op = 0; op < p; ++op) {
        const int64_t ih0 = op * params.strideH - params.padH;
        for (int64_t oq = 0; oq < q; ++oq) {
            const int64_t iw0 = oq * params.strideW - params.padW;
            float acc[U];
            for (int u = 0; u < U; ++u)
                acc[u] = bias ? bias[u] : 0.0f;
            for (int64_t rr = 0; rr < r; ++rr) {
                const int64_t ih = ih0 + rr;
                if (ih < 0 || ih >= h)
                    continue;
                for (int64_t ss = 0; ss < s; ++ss) {
                    const int64_t iw = iw0 + ss;
                    if (iw < 0 || iw >= w)
                        continue;
                    const float *xp = img + ih * w + iw;
                    const float *wp = wk + (rr * s + ss) * cg;
                    for (int64_t cc = 0; cc < cg; ++cc) {
                        const float xv = xp[cc * hw];
                        for (int u = 0; u < U; ++u)
                            acc[u] += xv * wp[u * wstride + cc];
                    }
                }
            }
            for (int u = 0; u < U; ++u)
                dst[u * pq + op * q + oq] = acc[u];
        }
    }
}

/**
 * Direct loop-nest conv2d over the [nk_begin, nk_end) slice of the
 * flattened (n, k) output-image space, four output channels of one
 * image and group at a time. Shards write disjoint (n, k) output
 * planes, and each element's accumulation order is fixed, so any
 * partitioning is bit-identical.
 */
void
conv2dDirectSlice(const Tensor &input, const Tensor &weight,
                  const Tensor &bias, const Conv2dParams &params,
                  Tensor &out, int64_t nk_begin, int64_t nk_end)
{
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    const int64_t k = weight.dim(0);
    const int64_t r = weight.dim(1);
    const int64_t s = weight.dim(2);
    const int64_t cg = weight.dim(3);
    const int64_t p = out.dim(2);
    const int64_t q = out.dim(3);
    const int64_t kpg = k / params.groups;

    for (int64_t nk = nk_begin; nk < nk_end;) {
        const int64_t in_n = nk / k;
        const int64_t ok = nk % k;
        const int64_t g = ok / kpg;
        const float *img = input.data() + (in_n * c + g * cg) * h * w;
        const float *wk = weight.data() + ok * cg * r * s;
        const float *b = bias.numel() ? bias.data() + ok : nullptr;
        float *dst = out.data() + nk * p * q;
        // Channels ok.. of the same image and group share the input.
        const int64_t run = std::min(nk_end - nk, (g + 1) * kpg - ok);
        if (run >= 4) {
            directChannels<4>(img, wk, b, dst, h, w, cg, r, s, p, q,
                              params);
            nk += 4;
        } else {
            directChannels<1>(img, wk, b, dst, h, w, cg, r, s, p, q,
                              params);
            nk += 1;
        }
    }
}

/**
 * Depthwise conv2d (cg == 1: one input channel per output channel, any
 * channel multiplier) over the [nk_begin, nk_end) slice of (n, k)
 * output planes, on the exact depthwiseF32 microkernel: each output
 * element starts at its bias and adds in * w for r ascending, then s
 * ascending, over the taps inside the input. That is the direct
 * loop's per-element order with the padded taps skipped, so the
 * result is memcmp-identical to conv2dDirectSlice. Consecutive planes
 * go to the kernel in one call while their input planes are evenly
 * spaced: across one image's channels without a multiplier, and
 * across the kpg outputs that share one input plane with one.
 */
void
conv2dDepthwiseSlice(const Tensor &input, const Tensor &weight,
                     const Tensor &bias, const Conv2dParams &params,
                     const Microkernels &mk, Tensor &out, int64_t nk_begin,
                     int64_t nk_end)
{
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    const int64_t k = weight.dim(0);
    const int64_t r = weight.dim(1);
    const int64_t s = weight.dim(2);
    const int64_t p = out.dim(2);
    const int64_t q = out.dim(3);
    const int64_t kpg = k / params.groups;
    const DepthwiseGeom geom{h, w, r, s, params.strideH, params.strideW,
                             params.padH, params.padW, p, q};

    for (int64_t nk = nk_begin; nk < nk_end;) {
        const int64_t ok = nk % k;
        const int64_t run =
            kpg == 1 ? std::min(nk_end, nk - ok + k) - nk
                     : std::min(nk_end - nk, kpg - ok % kpg);
        mk.depthwiseF32(geom,
                        input.data() + ((nk / k) * c + ok / kpg) * h * w,
                        kpg == 1 ? h * w : 0, weight.data() + ok * r * s,
                        bias.numel() ? bias.data() + ok : nullptr,
                        out.data() + nk * p * q, run);
        nk += run;
    }
}

/**
 * Im2col + blocked GEMM path (groups == 1). The column matrix is
 * (R*S*C, P*Q) with row index l = (r*S + s)*C + c, the packed weight's
 * order, so each packed output channel is a GEMM weight row as stored.
 * Ascending l is the direct path's r -> s -> c accumulation order, and
 * padded taps become explicit zeros (acc + 0*w == acc), so the result
 * is bit-identical to conv2dDirectSlice. The 1x1 stride-1 unpadded
 * case skips the column copy entirely: the (C, H*W) image block
 * already is the matrix.
 */
void
conv2dIm2col(const Tensor &input, const Tensor &weight, const Tensor &bias,
             const Conv2dParams &params, const Conv2dPlan &plan,
             Tensor &out)
{
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    const int64_t k = weight.dim(0);
    const int64_t r = weight.dim(1);
    const int64_t s = weight.dim(2);
    const int64_t p = out.dim(2);
    const int64_t q = out.dim(3);
    const int64_t pq = p * q;
    const int64_t len = c * r * s;

    const bool input_is_col = r == 1 && s == 1 && params.strideH == 1 &&
                              params.strideW == 1 && params.padH == 0 &&
                              params.padW == 0;
    // Grow-only column scratch of the calling thread, which holds it
    // for the whole call: parallelFor joins before returning, and a
    // conv nested on a pool worker runs inline on that worker.
    thread_local std::vector<float> scratch;

    for (int64_t nn = 0; nn < n; ++nn) {
        const float *col;
        if (input_is_col) {
            col = input.data() + nn * c * h * w;
        } else {
            scratch.resize(static_cast<size_t>(len * pq));
            float *cm = scratch.data();
            parallelFor(0, len, grainForFlops(pq),
                        [&](int64_t l0, int64_t l1) {
                for (int64_t l = l0; l < l1; ++l) {
                    const int64_t cc = l % c;
                    const int64_t ss = (l / c) % s;
                    const int64_t rr = l / (c * s);
                    const float *src =
                        input.data() + ((nn * c + cc) * h) * w;
                    float *dst = cm + l * pq;
                    for (int64_t op = 0; op < p; ++op) {
                        const int64_t ih =
                            op * params.strideH - params.padH + rr;
                        if (ih < 0 || ih >= h) {
                            std::fill(dst + op * q, dst + (op + 1) * q,
                                      0.0f);
                            continue;
                        }
                        const float *row = src + ih * w;
                        for (int64_t oq = 0; oq < q; ++oq) {
                            const int64_t iw =
                                oq * params.strideW - params.padW + ss;
                            dst[op * q + oq] =
                                (iw >= 0 && iw < w) ? row[iw] : 0.0f;
                        }
                    }
                }
            });
            col = scratch.data();
        }

        // out_n(K, PQ) = W(K, len) x col(len, PQ) + bias through the
        // shared GEMM driver and the plan's tile microkernel.
        gemm(kernelsFor(plan.isa).gemmTileExact, {k, pq, len, len, pq, pq},
             {weight.data(), col, bias.numel() ? bias.data() : nullptr,
              out.data() + nn * k * pq},
             plan.colBlock);
    }
}

/** Each of @p blocks (rows, cols) matrices, transposed to (cols, rows). */
void
transposeBlocks(const float *src, int64_t blocks, int64_t rows,
                int64_t cols, float *dst)
{
    for (int64_t b = 0; b < blocks; ++b, src += rows * cols,
                 dst += rows * cols)
        for (int64_t i = 0; i < rows; ++i)
            for (int64_t j = 0; j < cols; ++j)
                dst[j * rows + i] = src[i * cols + j];
}

} // namespace

Tensor
packConvWeight(const Tensor &weight)
{
    vitdyn_assert(weight.rank() == 4, "conv2d weight must be KCRS, got ",
                  shapeToString(weight.shape()));
    const int64_t k = weight.dim(0);
    const int64_t cg = weight.dim(1);
    const int64_t r = weight.dim(2);
    const int64_t s = weight.dim(3);
    Tensor packed({k, r, s, cg});
    transposeBlocks(weight.data(), k, cg, r * s, packed.data());
    return packed;
}

Tensor
unpackConvWeight(const Tensor &packed)
{
    vitdyn_assert(packed.rank() == 4, "packed conv weight must be KRSC");
    const int64_t k = packed.dim(0);
    const int64_t r = packed.dim(1);
    const int64_t s = packed.dim(2);
    const int64_t cg = packed.dim(3);
    Tensor weight({k, cg, r, s});
    transposeBlocks(packed.data(), k, r * s, cg, weight.data());
    return weight;
}

Tensor
sliceConvWeight(const Tensor &packed, int64_t k, int64_t cg)
{
    vitdyn_assert(packed.rank() == 4 && packed.dim(0) >= k &&
                      packed.dim(3) >= cg,
                  "packed conv weight ", shapeToString(packed.shape()),
                  " has no ", k, " x ", cg, " block");
    const int64_t full_cg = packed.dim(3);
    Tensor out({k, packed.dim(1), packed.dim(2), cg});
    for (int64_t row = 0; row < k * packed.dim(1) * packed.dim(2); ++row)
        std::copy_n(packed.data() + row * full_cg, cg,
                    out.data() + row * cg);
    return out;
}

Conv2dPlan
conv2dAutoPlan(const Shape &input_shape, const Shape &weight_shape,
               const Conv2dParams &params)
{
    vitdyn_assert(input_shape.size() == 4 && weight_shape.size() == 4,
                  "conv2dAutoPlan needs NCHW input and KCRS weight shapes");
    const int64_t n = input_shape[0];
    const int64_t c = input_shape[1];
    const int64_t h = input_shape[2];
    const int64_t w = input_shape[3];
    const int64_t k = weight_shape[0];
    const int64_t cg = weight_shape[1];
    const int64_t r = weight_shape[2];
    const int64_t s = weight_shape[3];
    const int64_t p = convOutDim(h, r, params.strideH, params.padH);
    const int64_t q = convOutDim(w, s, params.strideW, params.padW);

    Conv2dPlan plan;
    plan.isa = activeIsa();
    plan.colBlock = 128;
    // GEMM pays off once the layer is non-trivial and the column
    // matrix stays within a sane footprint. The whole batch runs
    // through one column matrix per image, so the FLOP side of the
    // decision folds in n: a small-but-batched layer is exactly as
    // GEMM-friendly as a single large image.
    constexpr int64_t kMinGemmFlops = 1 << 16;
    constexpr int64_t kMaxColBytes = int64_t{256} << 20;
    const int64_t flops_per_nk = 2 * p * q * r * s * cg;
    const bool use_gemm = params.groups == 1 &&
                          n * k * flops_per_nk >= kMinGemmFlops &&
                          c * r * s * p * q * 4 <= kMaxColBytes;
    plan.algo = use_gemm ? Conv2dAlgo::Im2col : Conv2dAlgo::Direct;
    return plan;
}

Tensor
conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
       const Conv2dParams &params, Conv2dAlgo algo)
{
    Conv2dPlan plan = conv2dAutoPlan(input.shape(), weight.shape(), params);
    if (algo != Conv2dAlgo::Auto)
        plan.algo = algo;
    return conv2d(input, weight, bias, params, plan);
}

Tensor
conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
       const Conv2dParams &params, const Conv2dPlan &plan)
{
    return conv2dPacked(input, packConvWeight(weight), bias, params, plan);
}

Tensor
conv2dPacked(const Tensor &input, const Tensor &packed, const Tensor &bias,
             const Conv2dParams &params)
{
    return conv2dPacked(input, packed, bias, params,
                        conv2dAutoPlan(input.shape(),
                                       {packed.dim(0), packed.dim(3),
                                        packed.dim(1), packed.dim(2)},
                                       params));
}

Tensor
conv2dPacked(const Tensor &input, const Tensor &packed, const Tensor &bias,
             const Conv2dParams &params, const Conv2dPlan &plan)
{
    vitdyn_assert(input.rank() == 4, "conv2d input must be NCHW, got ",
                  shapeToString(input.shape()));

    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);

    const int64_t k = packed.dim(0);
    const int64_t r = packed.dim(1);
    const int64_t s = packed.dim(2);
    const int64_t cg = packed.dim(3);

    const int64_t groups = params.groups;
    vitdyn_assert(groups >= 1 && c % groups == 0 && k % groups == 0,
                  "bad conv groups=", groups, " for C=", c, " K=", k);
    vitdyn_assert(cg == c / groups, "conv weight C/g mismatch: weight has ",
                  cg, ", expected ", c / groups);
    vitdyn_assert(bias.numel() == 0 || bias.numel() == k,
                  "conv bias size ", bias.numel(), " != K ", k);

    const int64_t p = convOutDim(h, r, params.strideH, params.padH);
    const int64_t q = convOutDim(w, s, params.strideW, params.padW);
    vitdyn_assert(p > 0 && q > 0, "conv output collapsed to zero: ",
                  "input ", h, "x", w, " kernel ", r, "x", s);

    Tensor out({n, k, p, q});

    bool use_gemm = plan.algo == Conv2dAlgo::Im2col;
    if (use_gemm && groups != 1) {
        // Grouped convolutions have no im2col path; degrade to Direct
        // (bit-identical output) instead of aborting the process.
        static Counter &fallbacks = MetricsRegistry::instance().counter(
            "conv.im2col_grouped_fallback");
        fallbacks.add();
        debug("conv2d: im2col requested for groups=", groups,
              "; running Direct instead");
        use_gemm = false;
    }

    const int64_t flops_per_nk = 2 * p * q * r * s * cg;
    if (use_gemm) {
        conv2dIm2col(input, packed, bias, params, plan, out);
    } else if (cg == 1) {
        const Microkernels &mk = kernelsFor(plan.isa);
        parallelFor(0, n * k, grainForFlops(flops_per_nk),
                    [&](int64_t nk0, int64_t nk1) {
            conv2dDepthwiseSlice(input, packed, bias, params, mk, out, nk0,
                                 nk1);
        });
    } else {
        parallelFor(0, n * k, grainForFlops(flops_per_nk),
                    [&](int64_t nk0, int64_t nk1) {
            conv2dDirectSlice(input, packed, bias, params, out, nk0,
                              nk1);
        });
    }
    return out;
}

Tensor
maxPool2d(const Tensor &input, int64_t kernel, int64_t stride, int64_t pad)
{
    vitdyn_assert(input.rank() == 4, "maxPool2d input must be NCHW");
    vitdyn_assert(kernel > 0 && stride > 0, "bad maxPool2d kernel=",
                  kernel, " stride=", stride);
    // pad < kernel guarantees every window overlaps the input, so the
    // -inf init below can never leak into the output.
    vitdyn_assert(pad >= 0 && pad < kernel, "maxPool2d pad ", pad,
                  " must be in [0, kernel=", kernel, ")");
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    const int64_t p = convOutDim(h, kernel, stride, pad);
    const int64_t q = convOutDim(w, kernel, stride, pad);
    vitdyn_assert(p > 0 && q > 0, "maxPool2d output collapsed to zero: ",
                  "input ", h, "x", w, " kernel ", kernel);

    Tensor out({n, c, p, q});
    parallelFor(0, n * c, grainForFlops(p * q * kernel * kernel),
                [&](int64_t nc0, int64_t nc1) {
        for (int64_t nc = nc0; nc < nc1; ++nc) {
            const int64_t in_n = nc / c;
            const int64_t cc = nc % c;
            for (int64_t op = 0; op < p; ++op) {
                for (int64_t oq = 0; oq < q; ++oq) {
                    float best =
                        -std::numeric_limits<float>::infinity();
                    for (int64_t rr = 0; rr < kernel; ++rr) {
                        const int64_t ih = op * stride - pad + rr;
                        if (ih < 0 || ih >= h)
                            continue;
                        for (int64_t ss = 0; ss < kernel; ++ss) {
                            const int64_t iw = oq * stride - pad + ss;
                            if (iw < 0 || iw >= w)
                                continue;
                            best = std::max(
                                best, input.at4(in_n, cc, ih, iw));
                        }
                    }
                    out.at4(in_n, cc, op, oq) = best;
                }
            }
        }
    });
    return out;
}

Tensor
adaptiveAvgPool2d(const Tensor &input, int64_t out_h, int64_t out_w)
{
    vitdyn_assert(input.rank() == 4, "adaptiveAvgPool2d input must be NCHW");
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    vitdyn_assert(out_h > 0 && out_w > 0, "bad adaptive pool output size");

    Tensor out({n, c, out_h, out_w});
    parallelFor(0, n * c, grainForFlops(h * w),
                [&](int64_t nc0, int64_t nc1) {
        for (int64_t nc = nc0; nc < nc1; ++nc) {
            const int64_t in_n = nc / c;
            const int64_t cc = nc % c;
            for (int64_t op = 0; op < out_h; ++op) {
                const int64_t h0 = op * h / out_h;
                const int64_t h1 = std::max<int64_t>(
                    (op + 1) * h / out_h, h0 + 1);
                for (int64_t oq = 0; oq < out_w; ++oq) {
                    const int64_t w0 = oq * w / out_w;
                    const int64_t w1 = std::max<int64_t>(
                        (oq + 1) * w / out_w, w0 + 1);
                    double acc = 0.0;
                    for (int64_t ih = h0; ih < h1; ++ih)
                        for (int64_t iw = w0; iw < w1; ++iw)
                            acc += input.at4(in_n, cc, ih, iw);
                    out.at4(in_n, cc, op, oq) = static_cast<float>(
                        acc / ((h1 - h0) * (w1 - w0)));
                }
            }
        }
    });
    return out;
}

Tensor
interpolateBilinear(const Tensor &input, int64_t out_h, int64_t out_w)
{
    return interpolateBilinear(input, out_h, out_w, activeKernels());
}

Tensor
interpolateBilinear(const Tensor &input, int64_t out_h, int64_t out_w,
                    const Microkernels &mk)
{
    vitdyn_assert(input.rank() == 4, "interpolate input must be NCHW");
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    vitdyn_assert(out_h > 0 && out_w > 0, "bad interpolate output size");

    Tensor out({n, c, out_h, out_w});
    const float scale_h = static_cast<float>(h) / out_h;
    const float scale_w = static_cast<float>(w) / out_w;

    // Source taps and weights per output row and column, computed once
    // per call with the per-element loop's expressions: the weights
    // are 1 - f and f, as that loop's (1 - fh), fh, (1 - fw) and fw.
    struct Taps
    {
        std::vector<int32_t> i0, i1;
        std::vector<float> g0, g1;
    };
    const auto taps = [](int64_t out_len, int64_t in_len, float scale) {
        Taps t;
        for (int64_t o = 0; o < out_len; ++o) {
            // align_corners = false source coordinate.
            float src = (o + 0.5f) * scale - 0.5f;
            src = std::max(
                0.0f, std::min(src, static_cast<float>(in_len - 1)));
            const int64_t i0 = static_cast<int64_t>(src);
            const float f = src - i0;
            t.i0.push_back(static_cast<int32_t>(i0));
            t.i1.push_back(
                static_cast<int32_t>(std::min(i0 + 1, in_len - 1)));
            t.g0.push_back(1 - f);
            t.g1.push_back(f);
        }
        return t;
    };
    const Taps rows = taps(out_h, h, scale_h);
    const Taps cols = taps(out_w, w, scale_w);
    const BilinearTaps bt{h, w, out_h, out_w,
                          rows.i0.data(), rows.i1.data(),
                          rows.g0.data(), rows.g1.data(),
                          cols.i0.data(), cols.i1.data(),
                          cols.g0.data(), cols.g1.data()};

    parallelFor(0, n * c, grainForFlops(8 * out_h * out_w),
                [&](int64_t nc0, int64_t nc1) {
        mk.bilinearF32(bt, input.data() + nc0 * h * w,
                       out.data() + nc0 * out_h * out_w, nc1 - nc0);
    });
    return out;
}

} // namespace vitdyn
