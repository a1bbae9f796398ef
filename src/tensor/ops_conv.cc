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
 * Direct loop-nest conv2d over the [nk_begin, nk_end) slice of the
 * flattened (n, k) output-image space. Shards write disjoint (n, k)
 * output planes, so any partitioning is bit-identical.
 */
void
conv2dDirectSlice(const Tensor &input, const Tensor &weight,
                  const Tensor &bias, const Conv2dParams &params,
                  Tensor &out, int64_t nk_begin, int64_t nk_end)
{
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    const int64_t k = weight.dim(0);
    const int64_t cg = weight.dim(1);
    const int64_t r = weight.dim(2);
    const int64_t s = weight.dim(3);
    const int64_t p = out.dim(2);
    const int64_t q = out.dim(3);
    const int64_t kpg = k / params.groups;

    for (int64_t nk = nk_begin; nk < nk_end; ++nk) {
        const int64_t in_n = nk / k;
        const int64_t ok = nk % k;
        const int64_t g = ok / kpg;
        const int64_t c_base = g * cg;
        const float b = bias.numel() ? bias[ok] : 0.0f;
        for (int64_t op = 0; op < p; ++op) {
            const int64_t ih0 = op * params.strideH - params.padH;
            for (int64_t oq = 0; oq < q; ++oq) {
                const int64_t iw0 = oq * params.strideW - params.padW;
                float acc = b;
                for (int64_t rr = 0; rr < r; ++rr) {
                    const int64_t ih = ih0 + rr;
                    if (ih < 0 || ih >= h)
                        continue;
                    for (int64_t ss = 0; ss < s; ++ss) {
                        const int64_t iw = iw0 + ss;
                        if (iw < 0 || iw >= w)
                            continue;
                        for (int64_t cc = 0; cc < cg; ++cc) {
                            acc += input.at4(in_n, c_base + cc, ih, iw) *
                                   weight.at4(ok, cc, rr, ss);
                        }
                    }
                }
                out.at4(in_n, ok, op, oq) = acc;
            }
        }
    }
}

/**
 * Depthwise conv2d (cg == 1: one input channel per output channel, any
 * channel multiplier) over the [nk_begin, nk_end) slice of (n, k)
 * output planes. Each output row starts at the bias; then, for r
 * ascending and s ascending, it adds in * w over the output columns
 * whose tap lands inside the input. That is the direct loop's
 * per-element order with the padded taps skipped, so the result is
 * memcmp-identical to conv2dDirectSlice. Stride-1 spans run on the
 * exact axpyF32 microkernel.
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
    const int64_t r = weight.dim(2);
    const int64_t s = weight.dim(3);
    const int64_t p = out.dim(2);
    const int64_t q = out.dim(3);
    const int64_t kpg = k / params.groups;
    const int64_t sw = params.strideW;

    for (int64_t nk = nk_begin; nk < nk_end; ++nk) {
        const int64_t ok = nk % k;
        const float *plane = input.data() + ((nk / k) * c + ok / kpg) * h * w;
        const float *wk = weight.data() + ok * r * s;
        float *dst = out.data() + nk * p * q;
        const float b = bias.numel() ? bias[ok] : 0.0f;
        for (int64_t op = 0; op < p; ++op) {
            float *orow = dst + op * q;
            std::fill(orow, orow + q, b);
            const int64_t ih0 = op * params.strideH - params.padH;
            for (int64_t rr = 0; rr < r; ++rr) {
                const int64_t ih = ih0 + rr;
                if (ih < 0 || ih >= h)
                    continue;
                const float *irow = plane + ih * w;
                for (int64_t ss = 0; ss < s; ++ss) {
                    // Output columns oq in [q0, q1) read input column
                    // oq * sw + off, which lies in [0, w).
                    const int64_t off = ss - params.padW;
                    const int64_t q0 = off >= 0 ? 0 : (sw - 1 - off) / sw;
                    const int64_t q1 =
                        off < w ? std::min(q, (w - 1 - off) / sw + 1) : 0;
                    if (q0 >= q1)
                        continue;
                    const float wv = wk[rr * s + ss];
                    if (sw == 1) {
                        mk.axpyF32(wv, irow + q0 + off, orow + q0, q1 - q0);
                    } else {
                        for (int64_t oq = q0; oq < q1; ++oq)
                            orow[oq] += irow[oq * sw + off] * wv;
                    }
                }
            }
        }
    }
}

/**
 * Im2col + blocked GEMM path (groups == 1). The column matrix is
 * (R*S*C, P*Q) with row index l = (r*S + s)*C + c — ascending l is the
 * direct path's r -> s -> c accumulation order, and padded taps become
 * explicit zeros (acc + 0*w == acc), so the result is bit-identical to
 * conv2dDirectSlice. The 1x1 stride-1 unpadded case skips the column
 * copy entirely: the (C, H*W) image block already is the matrix.
 */
void
conv2dIm2col(const Tensor &input, const Tensor &weight, const Tensor &bias,
             const Conv2dParams &params, const Conv2dPlan &plan,
             Conv2dWorkspace &ws, Tensor &out)
{
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    const int64_t k = weight.dim(0);
    const int64_t r = weight.dim(2);
    const int64_t s = weight.dim(3);
    const int64_t p = out.dim(2);
    const int64_t q = out.dim(3);
    const int64_t pq = p * q;
    const int64_t len = c * r * s;

    const bool input_is_col = r == 1 && s == 1 && params.strideH == 1 &&
                              params.strideW == 1 && params.padH == 0 &&
                              params.padW == 0;

    // 1x1 kernels are already (K, C)-contiguous in r->s->c order;
    // larger kernels are repacked once per weight tensor.
    const float *wp = weight.data();
    if (r != 1 || s != 1) {
        if (ws.packedFor != weight.shape()) {
            ws.wpack.resize(static_cast<size_t>(k * len));
            float *pack = ws.wpack.data();
            parallelFor(0, k, grainForFlops(len),
                        [&](int64_t k0, int64_t k1) {
                for (int64_t ok = k0; ok < k1; ++ok)
                    for (int64_t rr = 0; rr < r; ++rr)
                        for (int64_t ss = 0; ss < s; ++ss)
                            for (int64_t cc = 0; cc < c; ++cc)
                                pack[ok * len + (rr * s + ss) * c + cc] =
                                    weight.at4(ok, cc, rr, ss);
            });
            ws.packedFor = weight.shape();
        }
        wp = ws.wpack.data();
    }

    for (int64_t nn = 0; nn < n; ++nn) {
        const float *col;
        if (input_is_col) {
            col = input.data() + nn * c * h * w;
        } else {
            ws.col.resize(static_cast<size_t>(len * pq));
            float *cm = ws.col.data();
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
            col = ws.col.data();
        }

        // out_n(K, PQ) = W(K, len) x col(len, PQ) + bias through the
        // shared GEMM driver and the plan's tile microkernel.
        gemm(kernelsFor(plan.isa).gemmTileExact, {k, pq, len, len, pq, pq},
             {wp, col, bias.numel() ? bias.data() : nullptr,
              out.data() + nn * k * pq},
             plan.colBlock);
    }
}

} // namespace

Tensor
conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
       const Conv2dParams &params)
{
    return conv2d(input, weight, bias, params, Conv2dAlgo::Auto, nullptr);
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
       const Conv2dParams &params, Conv2dAlgo algo,
       Conv2dWorkspace *workspace)
{
    vitdyn_assert(input.rank() == 4, "conv2d input must be NCHW, got ",
                  shapeToString(input.shape()));
    vitdyn_assert(weight.rank() == 4, "conv2d weight must be KCRS, got ",
                  shapeToString(weight.shape()));

    Conv2dPlan plan;
    switch (algo) {
      case Conv2dAlgo::Direct:
        plan.algo = Conv2dAlgo::Direct;
        plan.isa = activeIsa();
        break;
      case Conv2dAlgo::Im2col:
        plan.algo = Conv2dAlgo::Im2col;
        plan.isa = activeIsa();
        break;
      case Conv2dAlgo::Auto:
        if (workspace != nullptr && workspace->hasPlan)
            plan = workspace->plan;
        else
            plan = conv2dAutoPlan(input.shape(), weight.shape(), params);
        break;
    }
    return conv2d(input, weight, bias, params, plan, workspace);
}

Tensor
conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
       const Conv2dParams &params, const Conv2dPlan &plan,
       Conv2dWorkspace *workspace)
{
    vitdyn_assert(input.rank() == 4, "conv2d input must be NCHW, got ",
                  shapeToString(input.shape()));
    vitdyn_assert(weight.rank() == 4, "conv2d weight must be KCRS, got ",
                  shapeToString(weight.shape()));

    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);

    const int64_t k = weight.dim(0);
    const int64_t cg = weight.dim(1);
    const int64_t r = weight.dim(2);
    const int64_t s = weight.dim(3);

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
        Conv2dWorkspace *ws = workspace;
        if (ws == nullptr) {
            // Workspace-less callers (benches, tests, analysis cost
            // probes) borrow a thread-local fallback so the column
            // buffer's capacity survives across calls instead of
            // being reallocated every time. The cached weight packing
            // is dropped each call: a stale pack for a *different*
            // weight tensor of the same shape would silently corrupt
            // results, and packedFor alone cannot tell them apart.
            static Counter &misses = MetricsRegistry::instance().counter(
                "conv.workspace_miss");
            misses.add();
            thread_local Conv2dWorkspace fallback;
            fallback.invalidate();
            ws = &fallback;
        }
        conv2dIm2col(input, weight, bias, params, plan, *ws, out);
    } else if (cg == 1) {
        const Microkernels &mk = kernelsFor(plan.isa);
        parallelFor(0, n * k, grainForFlops(flops_per_nk),
                    [&](int64_t nk0, int64_t nk1) {
            conv2dDepthwiseSlice(input, weight, bias, params, mk, out, nk0,
                                 nk1);
        });
    } else {
        parallelFor(0, n * k, grainForFlops(flops_per_nk),
                    [&](int64_t nk0, int64_t nk1) {
            conv2dDirectSlice(input, weight, bias, params, out, nk0,
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
    // per call with the per-element loop's expressions.
    struct Tap
    {
        int64_t i0, i1;
        float f;
    };
    const auto taps = [](int64_t out_len, int64_t in_len, float scale) {
        std::vector<Tap> t(static_cast<size_t>(out_len));
        for (int64_t o = 0; o < out_len; ++o) {
            // align_corners = false source coordinate.
            float src = (o + 0.5f) * scale - 0.5f;
            src = std::max(
                0.0f, std::min(src, static_cast<float>(in_len - 1)));
            const int64_t i0 = static_cast<int64_t>(src);
            t[static_cast<size_t>(o)] = {
                i0, std::min(i0 + 1, in_len - 1), src - i0};
        }
        return t;
    };
    const std::vector<Tap> rows = taps(out_h, h, scale_h);
    const std::vector<Tap> cols = taps(out_w, w, scale_w);

    parallelFor(0, n * c, grainForFlops(8 * out_h * out_w),
                [&](int64_t nc0, int64_t nc1) {
        for (int64_t nc = nc0; nc < nc1; ++nc) {
            const float *plane = input.data() + nc * h * w;
            float *dst = out.data() + nc * out_h * out_w;
            for (int64_t op = 0; op < out_h; ++op) {
                const Tap &th = rows[static_cast<size_t>(op)];
                const float *row0 = plane + th.i0 * w;
                const float *row1 = plane + th.i1 * w;
                const float fh = th.f;
                float *orow = dst + op * out_w;
                for (int64_t oq = 0; oq < out_w; ++oq) {
                    const Tap &tw = cols[static_cast<size_t>(oq)];
                    const float fw = tw.f;
                    const float v00 = row0[tw.i0];
                    const float v01 = row0[tw.i1];
                    const float v10 = row1[tw.i0];
                    const float v11 = row1[tw.i1];
                    orow[oq] =
                        v00 * (1 - fh) * (1 - fw) +
                        v01 * (1 - fh) * fw + v10 * fh * (1 - fw) +
                        v11 * fh * fw;
                }
            }
        }
    });
    return out;
}

} // namespace vitdyn
