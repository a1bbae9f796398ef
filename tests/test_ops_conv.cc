/** @file Tests of the convolution / pooling / resize reference kernels. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "parity.hh"
#include "tensor/ops.hh"
#include "util/random.hh"
#include "util/threadpool.hh"

namespace vitdyn
{
namespace
{

TEST(ConvOutDim, Formula)
{
    EXPECT_EQ(convOutDim(512, 7, 4, 3), 128);
    EXPECT_EQ(convOutDim(128, 3, 2, 1), 64);
    EXPECT_EQ(convOutDim(8, 3, 1, 1), 8);
    EXPECT_EQ(convOutDim(8, 2, 2, 0), 4);
}

TEST(ConvOutDim, FloorsNegativeNumerators)
{
    // kernel larger than padded input: (2 - 3) / 2 must floor to -1,
    // giving 0 output positions — not truncate toward zero to 0,
    // which would report a bogus single output.
    EXPECT_EQ(convOutDim(2, 3, 2, 0), 0);
    EXPECT_EQ(convOutDim(1, 4, 3, 0), 0);
    EXPECT_EQ(convOutDim(2, 7, 2, 1), -1);
    // Exactly-fitting kernels still give one output.
    EXPECT_EQ(convOutDim(3, 3, 2, 0), 1);
}

TEST(Conv2d, CollapsedOutputPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Tensor x({1, 1, 2, 2});
    Tensor w({1, 1, 3, 3}); // kernel bigger than unpadded input
    EXPECT_DEATH(conv2d(x, w, Tensor{}), "collapsed");
}

TEST(Conv2d, IdentityKernel)
{
    Rng rng(1);
    Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
    Tensor w({1, 1, 1, 1}, std::vector<float>{1.0f});
    Tensor y = conv2d(x, w, Tensor{});
    EXPECT_TRUE(y.allClose(x));
}

TEST(Conv2d, HandComputed3x3)
{
    // 3x3 all-ones kernel over a 3x3 all-ones image, no padding:
    // single output = 9.
    Tensor x({1, 1, 3, 3}, 1.0f);
    Tensor w({1, 1, 3, 3}, 1.0f);
    Tensor y = conv2d(x, w, Tensor{});
    EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 9.0f);
}

TEST(Conv2d, PaddingZeros)
{
    Tensor x({1, 1, 3, 3}, 1.0f);
    Tensor w({1, 1, 3, 3}, 1.0f);
    Conv2dParams p;
    p.padH = p.padW = 1;
    Tensor y = conv2d(x, w, Tensor{}, p);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
    EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 9.0f); // center sees all 9
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 4.0f); // corner sees 4
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 1), 6.0f); // edge sees 6
}

TEST(Conv2d, Stride)
{
    Tensor x({1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x[i] = static_cast<float>(i);
    Tensor w({1, 1, 1, 1}, std::vector<float>{1.0f});
    Conv2dParams p;
    p.strideH = p.strideW = 2;
    Tensor y = conv2d(x, w, Tensor{}, p);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 1), 2.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 0), 8.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 10.0f);
}

TEST(Conv2d, Bias)
{
    Tensor x({1, 1, 2, 2}, 0.0f);
    Tensor w({2, 1, 1, 1}, 1.0f);
    Tensor b({2}, std::vector<float>{3.0f, -1.0f});
    Tensor y = conv2d(x, w, b);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 3.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 1, 1, 1), -1.0f);
}

TEST(Conv2d, MultiChannelSum)
{
    // 2 input channels with values 1 and 2; kernel weight 1 each:
    // output = 3 everywhere.
    Tensor x({1, 2, 2, 2});
    for (int64_t i = 0; i < 4; ++i)
        x[i] = 1.0f;
    for (int64_t i = 4; i < 8; ++i)
        x[i] = 2.0f;
    Tensor w({1, 2, 1, 1}, 1.0f);
    Tensor y = conv2d(x, w, Tensor{});
    for (int64_t i = 0; i < y.numel(); ++i)
        EXPECT_FLOAT_EQ(y[i], 3.0f);
}

TEST(Conv2d, DepthwiseKeepsChannelsSeparate)
{
    // groups == channels: each channel scaled by its own weight.
    Tensor x({1, 2, 2, 2}, 1.0f);
    Tensor w({2, 1, 1, 1}, std::vector<float>{2.0f, 5.0f});
    Conv2dParams p;
    p.groups = 2;
    Tensor y = conv2d(x, w, Tensor{}, p);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 0), 5.0f);
}

TEST(Conv2d, GroupedMatchesTwoHalves)
{
    // A groups=2 conv equals two independent convs on channel halves.
    Rng rng(3);
    Tensor x = Tensor::randn({1, 4, 6, 6}, rng);
    Tensor w = Tensor::randn({6, 2, 3, 3}, rng);
    Conv2dParams gp;
    gp.groups = 2;
    gp.padH = gp.padW = 1;
    Tensor y = conv2d(x, w, Tensor{}, gp);

    // Manual split.
    Tensor x0({1, 2, 6, 6});
    Tensor x1({1, 2, 6, 6});
    for (int64_t c = 0; c < 2; ++c)
        for (int64_t i = 0; i < 36; ++i) {
            x0[c * 36 + i] = x[c * 36 + i];
            x1[c * 36 + i] = x[(c + 2) * 36 + i];
        }
    Tensor w0({3, 2, 3, 3});
    Tensor w1({3, 2, 3, 3});
    for (int64_t i = 0; i < w0.numel(); ++i) {
        w0[i] = w[i];
        w1[i] = w[w0.numel() + i];
    }
    Conv2dParams p;
    p.padH = p.padW = 1;
    Tensor y0 = conv2d(x0, w0, Tensor{}, p);
    Tensor y1 = conv2d(x1, w1, Tensor{}, p);
    for (int64_t k = 0; k < 3; ++k)
        for (int64_t i = 0; i < 36; ++i) {
            EXPECT_NEAR(y[k * 36 + i], y0[k * 36 + i], 1e-4);
            EXPECT_NEAR(y[(k + 3) * 36 + i], y1[k * 36 + i], 1e-4);
        }
}

TEST(Conv2d, BatchIndependence)
{
    Rng rng(5);
    Tensor x = Tensor::randn({2, 3, 5, 5}, rng);
    Tensor w = Tensor::randn({4, 3, 3, 3}, rng);
    Conv2dParams p;
    p.padH = p.padW = 1;
    Tensor y = conv2d(x, w, Tensor{}, p);

    // Running each batch element separately must agree.
    Tensor x0({1, 3, 5, 5});
    for (int64_t i = 0; i < 75; ++i)
        x0[i] = x[i];
    Tensor y0 = conv2d(x0, w, Tensor{}, p);
    for (int64_t i = 0; i < y0.numel(); ++i)
        EXPECT_NEAR(y[i], y0[i], 1e-4);
}

TEST(Conv2d, ShapeMismatchPanics)
{
    Tensor x({1, 3, 4, 4});
    Tensor w({2, 4, 1, 1}); // expects 4 input channels, image has 3
    EXPECT_DEATH(conv2d(x, w, Tensor{}), "mismatch");
}

/**
 * Restore the global pool to its default size when a test returns or
 * fails mid-way.
 */
struct PoolSizeGuard
{
    explicit PoolSizeGuard(int threads)
    {
        ThreadPool::instance().resize(threads);
    }
    ~PoolSizeGuard() { ThreadPool::instance().resize(0); }
};

TEST(Conv2d, ThreadedAndIm2colBitIdenticalToSequential)
{
    Rng rng(11);
    // Large enough that Auto picks the GEMM path and parallelFor
    // actually shards.
    Tensor x = Tensor::randn({2, 16, 14, 14}, rng);
    Tensor w = Tensor::randn({32, 16, 3, 3}, rng);
    Tensor b = Tensor::randn({32}, rng);
    Conv2dParams p;
    p.padH = p.padW = 1;

    Tensor seq, par, gemm;
    {
        PoolSizeGuard guard(1);
        seq = conv2d(x, w, b, p, Conv2dAlgo::Direct);
    }
    {
        PoolSizeGuard guard(8);
        par = conv2d(x, w, b, p, Conv2dAlgo::Direct);
        Conv2dWorkspace ws;
        gemm = conv2d(x, w, b, p, Conv2dAlgo::Im2col, &ws);
        // Reuse of a warm workspace must not change results.
        Tensor gemm2 = conv2d(x, w, b, p, Conv2dAlgo::Im2col, &ws);
        ASSERT_EQ(gemm.shape(), gemm2.shape());
        EXPECT_EQ(std::memcmp(gemm.data(), gemm2.data(),
                              sizeof(float) * gemm.numel()),
                  0);
    }
    ASSERT_EQ(seq.shape(), par.shape());
    ASSERT_EQ(seq.shape(), gemm.shape());
    EXPECT_EQ(std::memcmp(seq.data(), par.data(),
                          sizeof(float) * seq.numel()),
              0)
        << "threaded direct conv diverged from sequential";
    EXPECT_EQ(std::memcmp(seq.data(), gemm.data(),
                          sizeof(float) * seq.numel()),
              0)
        << "im2col conv diverged from sequential direct";
}

TEST(Conv2d, Im2colBitIdenticalAcrossShapes)
{
    Rng rng(13);
    struct Case
    {
        Shape xs, ws;
        Conv2dParams p;
    };
    std::vector<Case> cases;
    // 1x1 stride-1 unpadded (in-place column matrix fast path).
    cases.push_back({{1, 24, 9, 9}, {16, 24, 1, 1}, {}});
    // 1x1 strided (needs a gathered column matrix, no repack).
    {
        Conv2dParams p;
        p.strideH = p.strideW = 2;
        cases.push_back({{2, 8, 10, 10}, {12, 8, 1, 1}, p});
    }
    // 3x3 padded (repacked weights, zero-filled halo).
    {
        Conv2dParams p;
        p.padH = p.padW = 1;
        cases.push_back({{1, 6, 12, 12}, {8, 6, 3, 3}, p});
    }
    // 7x7 stride-4 pad-3 (SegFormer/ResNet stem shape).
    {
        Conv2dParams p;
        p.strideH = p.strideW = 4;
        p.padH = p.padW = 3;
        cases.push_back({{1, 3, 32, 32}, {10, 3, 7, 7}, p});
    }
    // Asymmetric kernel and stride.
    {
        Conv2dParams p;
        p.strideH = 2;
        p.strideW = 1;
        p.padH = 0;
        p.padW = 2;
        cases.push_back({{1, 5, 11, 9}, {7, 5, 3, 5}, p});
    }
    PoolSizeGuard guard(4);
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &tc = cases[i];
        Tensor x = Tensor::randn(tc.xs, rng);
        Tensor w = Tensor::randn(tc.ws, rng);
        Tensor b = Tensor::randn({tc.ws[0]}, rng);
        Tensor direct = conv2d(x, w, b, tc.p, Conv2dAlgo::Direct);
        Tensor gemm = conv2d(x, w, b, tc.p, Conv2dAlgo::Im2col);
        ASSERT_EQ(direct.shape(), gemm.shape()) << "case " << i;
        EXPECT_EQ(std::memcmp(direct.data(), gemm.data(),
                              sizeof(float) * direct.numel()),
                  0)
            << "case " << i << " im2col mismatch";
    }
}

TEST(Conv2d, GroupedStridedPaddedThreadedParity)
{
    Rng rng(17);
    Tensor x = Tensor::randn({2, 8, 13, 13}, rng);
    Tensor w = Tensor::randn({12, 4, 3, 3}, rng);
    Tensor b = Tensor::randn({12}, rng);
    Conv2dParams p;
    p.groups = 2;
    p.strideH = p.strideW = 2;
    p.padH = p.padW = 1;
    Tensor seq, par;
    {
        PoolSizeGuard guard(1);
        seq = conv2d(x, w, b, p);
    }
    {
        PoolSizeGuard guard(8);
        par = conv2d(x, w, b, p);
    }
    ASSERT_EQ(seq.shape(), par.shape());
    EXPECT_EQ(std::memcmp(seq.data(), par.data(),
                          sizeof(float) * seq.numel()),
              0);
}

TEST(MaxPool2d, Basic)
{
    Tensor x({1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x[i] = static_cast<float>(i);
    Tensor y = maxPool2d(x, 2, 2);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 15.0f);
}

TEST(MaxPool2d, PaddingIgnoredInMax)
{
    Tensor x({1, 1, 2, 2}, -3.0f);
    Tensor y = maxPool2d(x, 3, 2, 1);
    // Padded positions must not contribute zeros.
    for (int64_t i = 0; i < y.numel(); ++i)
        EXPECT_FLOAT_EQ(y[i], -3.0f);
}

TEST(MaxPool2d, AllLowestFloatInputSurvives)
{
    // The old implementation initialized the running max with a raw
    // -3.4e38f sentinel, which an input of std::numeric_limits
    // ::lowest() ties with; -inf initialization must reproduce the
    // input exactly.
    Tensor x({1, 1, 2, 2}, std::numeric_limits<float>::lowest());
    Tensor y = maxPool2d(x, 2, 2);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
    EXPECT_EQ(y[0], std::numeric_limits<float>::lowest());
}

TEST(MaxPool2d, PadMustBeSmallerThanKernel)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Tensor x({1, 1, 4, 4}, 1.0f);
    // pad == kernel would create windows made purely of padding,
    // whose max is undefined.
    EXPECT_DEATH(maxPool2d(x, 2, 2, 2), "pad");
    EXPECT_DEATH(maxPool2d(x, 2, 2, 3), "pad");
}

TEST(MaxPool2d, ThreadedMatchesSequential)
{
    Rng rng(19);
    Tensor x = Tensor::randn({2, 6, 16, 16}, rng);
    Tensor seq, par;
    {
        PoolSizeGuard guard(1);
        seq = maxPool2d(x, 3, 2, 1);
    }
    {
        PoolSizeGuard guard(8);
        par = maxPool2d(x, 3, 2, 1);
    }
    ASSERT_EQ(seq.shape(), par.shape());
    EXPECT_EQ(std::memcmp(seq.data(), par.data(),
                          sizeof(float) * seq.numel()),
              0);
}

TEST(AdaptiveAvgPool2d, GlobalAverage)
{
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
    Tensor y = adaptiveAvgPool2d(x, 1, 1);
    EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AdaptiveAvgPool2d, PartitionsCoverInput)
{
    // 6 -> 4 pooling covers all pixels; mean of means of a constant
    // image stays constant.
    Tensor x({1, 2, 6, 6}, 3.25f);
    Tensor y = adaptiveAvgPool2d(x, 4, 4);
    EXPECT_EQ(y.shape(), (Shape{1, 2, 4, 4}));
    for (int64_t i = 0; i < y.numel(); ++i)
        EXPECT_FLOAT_EQ(y[i], 3.25f);
}

TEST(Interpolate, IdentityWhenSameSize)
{
    Rng rng(8);
    Tensor x = Tensor::randn({1, 2, 5, 7}, rng);
    Tensor y = interpolateBilinear(x, 5, 7);
    EXPECT_TRUE(y.allClose(x, 1e-5f));
}

TEST(Interpolate, ConstantStaysConstant)
{
    Tensor x({1, 3, 4, 4}, 2.0f);
    Tensor y = interpolateBilinear(x, 9, 13);
    for (int64_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], 2.0f, 1e-5f);
}

TEST(Interpolate, UpsampleLinearRamp)
{
    // A horizontal ramp stays monotone after upsampling.
    Tensor x({1, 1, 1, 4}, std::vector<float>{0, 1, 2, 3});
    Tensor y = interpolateBilinear(x, 1, 8);
    for (int64_t i = 1; i < 8; ++i)
        EXPECT_GE(y[i] + 1e-6f, y[i - 1]);
    EXPECT_NEAR(y[0], 0.0f, 0.3f);
    EXPECT_NEAR(y[7], 3.0f, 0.3f);
}

TEST(Interpolate, DownsampleAveragesNeighborhood)
{
    Tensor x({1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x[i] = static_cast<float>(i % 4);
    Tensor y = interpolateBilinear(x, 2, 2);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    // Values stay within the input range.
    for (int64_t i = 0; i < 4; ++i) {
        EXPECT_GE(y[i], 0.0f);
        EXPECT_LE(y[i], 3.0f);
    }
}

// ---------------------------------------------------------------------
// Depthwise and bilinear parity: conv2d's depthwise (cg == 1) slice and
// interpolateBilinear must be memcmp-identical to the loops they
// replaced (copied below as oracles) for every available ISA, at 1 and
// 4 pool threads, including inputs holding -0.0, NaN and +-Inf.
// ---------------------------------------------------------------------

/** The direct loop nest conv2d ran for every Direct conv before. */
Tensor
directConvOracle(const Tensor &input, const Tensor &weight,
                 const Tensor &bias, const Conv2dParams &params)
{
    const int64_t n = input.dim(0);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    const int64_t k = weight.dim(0);
    const int64_t cg = weight.dim(1);
    const int64_t r = weight.dim(2);
    const int64_t s = weight.dim(3);
    const int64_t p = convOutDim(h, r, params.strideH, params.padH);
    const int64_t q = convOutDim(w, s, params.strideW, params.padW);
    const int64_t kpg = k / params.groups;
    Tensor out({n, k, p, q});
    for (int64_t nk = 0; nk < n * k; ++nk) {
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
    return out;
}

/** The per-element bilinear loop interpolateBilinear ran before. */
Tensor
bilinearOracle(const Tensor &input, int64_t out_h, int64_t out_w)
{
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    Tensor out({n, c, out_h, out_w});
    const float scale_h = static_cast<float>(h) / out_h;
    const float scale_w = static_cast<float>(w) / out_w;
    for (int64_t nc = 0; nc < n * c; ++nc) {
        const int64_t in_n = nc / c;
        const int64_t cc = nc % c;
        for (int64_t op = 0; op < out_h; ++op) {
            float src_h = (op + 0.5f) * scale_h - 0.5f;
            src_h = std::max(
                0.0f, std::min(src_h, static_cast<float>(h - 1)));
            const int64_t h0 = static_cast<int64_t>(src_h);
            const int64_t h1 = std::min(h0 + 1, h - 1);
            const float fh = src_h - h0;
            for (int64_t oq = 0; oq < out_w; ++oq) {
                float src_w = (oq + 0.5f) * scale_w - 0.5f;
                src_w = std::max(
                    0.0f, std::min(src_w, static_cast<float>(w - 1)));
                const int64_t w0 = static_cast<int64_t>(src_w);
                const int64_t w1 = std::min(w0 + 1, w - 1);
                const float fw = src_w - w0;

                const float v00 = input.at4(in_n, cc, h0, w0);
                const float v01 = input.at4(in_n, cc, h0, w1);
                const float v10 = input.at4(in_n, cc, h1, w0);
                const float v11 = input.at4(in_n, cc, h1, w1);
                out.at4(in_n, cc, op, oq) =
                    v00 * (1 - fh) * (1 - fw) + v01 * (1 - fh) * fw +
                    v10 * fh * (1 - fw) + v11 * fh * fw;
            }
        }
    }
    return out;
}

class DepthwiseParityTest : public PoolThreadsTest
{
};

struct DepthwiseCase
{
    Shape x;
    int64_t mult; ///< Output channels per input channel.
    int64_t kh, kw, sh, sw, ph, pw;
    bool bias;
};

// Kernels 1/3/5/7, strides 1 and 2, pads 0-3 (pad 3 on a 3x3 kernel
// makes whole output rows and columns of padding), inputs narrower
// than the kernel, a single output column, a channel multiplier, an
// asymmetric kernel, batch n > 1, the Mix-FFN DWConv shapes of B2 at
// 96² and of the soak model, and 3x3 and 5x5 "same" convs on every
// plane width 1-33, so each vector, tail and flattened-plane boundary
// (16 % w, 8 % w) is crossed.
std::vector<DepthwiseCase>
depthwiseCases()
{
    std::vector<DepthwiseCase> cases = {
        {{1, 5, 6, 7}, 1, 1, 1, 1, 1, 0, 0, true},
        {{2, 3, 9, 9}, 1, 1, 1, 2, 2, 1, 1, true},
        {{2, 6, 11, 13}, 1, 3, 3, 1, 1, 1, 1, true},
        {{1, 4, 12, 9}, 1, 3, 3, 2, 2, 1, 1, false},
        {{1, 4, 5, 5}, 1, 3, 3, 1, 1, 0, 0, true},
        {{1, 3, 7, 6}, 1, 3, 3, 1, 1, 3, 3, true},
        {{1, 3, 10, 17}, 1, 5, 5, 1, 1, 2, 2, true},
        {{1, 3, 10, 11}, 1, 5, 5, 2, 2, 3, 3, true},
        {{1, 2, 14, 9}, 1, 7, 7, 1, 1, 3, 3, true},
        {{1, 2, 15, 15}, 1, 7, 7, 2, 2, 3, 3, false},
        {{1, 3, 4, 2}, 1, 5, 5, 1, 1, 2, 2, true},
        {{1, 2, 3, 2}, 1, 7, 7, 1, 1, 3, 3, true},
        {{1, 3, 6, 3}, 1, 3, 3, 1, 1, 0, 0, true},
        {{1, 2, 5, 1}, 1, 3, 3, 1, 2, 1, 1, true},
        {{1, 4, 8, 8}, 2, 3, 3, 1, 1, 1, 1, true},
        {{2, 3, 9, 10}, 2, 3, 3, 2, 2, 1, 1, true},
        {{1, 3, 9, 12}, 1, 3, 5, 1, 2, 0, 2, true},
        {{1, 96, 24, 24}, 1, 3, 3, 1, 1, 1, 1, true},
        {{1, 3, 6, 8}, 1, 3, 3, 1, 1, 2, 1, true},
        {{1, 256, 24, 24}, 1, 3, 3, 1, 1, 1, 1, true},
        {{1, 512, 12, 12}, 1, 3, 3, 1, 1, 1, 1, true},
        {{1, 1280, 6, 6}, 1, 3, 3, 1, 1, 1, 1, true},
        {{1, 2048, 3, 3}, 1, 3, 3, 1, 1, 1, 1, true},
        {{1, 32, 16, 16}, 1, 3, 3, 1, 1, 1, 1, true},
        {{2, 128, 2, 2}, 1, 3, 3, 1, 1, 1, 1, true},
    };
    for (int64_t w = 1; w <= 33; ++w) {
        cases.push_back({{1, 11, w, w}, 1, 3, 3, 1, 1, 1, 1, w % 2 == 0});
        cases.push_back({{1, 3, 1 + w % 4, w}, 1, 5, 5, 1, 1, 2, 2, true});
    }
    return cases;
}

/** Every Direct plan the depthwise slice can run under: one per
 *  available ISA. */
std::vector<Conv2dPlan>
directPlans()
{
    std::vector<Conv2dPlan> plans;
    for (IsaLevel isa : availableIsas()) {
        Conv2dPlan plan;
        plan.algo = Conv2dAlgo::Direct;
        plan.isa = isa;
        plans.push_back(plan);
    }
    return plans;
}

TEST_P(DepthwiseParityTest, MatchesDirectLoop)
{
    Rng rng(89);
    for (const DepthwiseCase &tc : depthwiseCases()) {
        const int64_t c = tc.x[1];
        Conv2dParams p;
        p.strideH = tc.sh;
        p.strideW = tc.sw;
        p.padH = tc.ph;
        p.padW = tc.pw;
        p.groups = c;
        Tensor x = Tensor::randn(tc.x, rng);
        Tensor w = Tensor::randn({c * tc.mult, 1, tc.kh, tc.kw}, rng);
        Tensor b = tc.bias ? Tensor::randn({c * tc.mult}, rng) : Tensor{};
        const Tensor want = directConvOracle(x, w, b, p);
        for (const Conv2dPlan &plan : directPlans())
            EXPECT_TRUE(bitIdentical(want, conv2d(x, w, b, p, plan)))
                << "x " << shapeToString(tc.x) << " kernel " << tc.kh
                << "x" << tc.kw << " isa " << isaName(plan.isa);
        EXPECT_TRUE(bitIdentical(want, conv2d(x, w, b, p)))
            << "auto, x " << shapeToString(tc.x);

        for (const NanFlavor &f : nanFlavors()) {
            Tensor xs = x;
            addSpecials(xs, f.nan);
            Tensor ws = w;
            ws[1] = -0.0f;
            Tensor bs = b;
            if (bs.numel())
                bs[0] = -0.0f;
            const Tensor want_sp = directConvOracle(xs, ws, bs, p);
            for (const Conv2dPlan &plan : directPlans())
                EXPECT_TRUE(bitIdentical(
                    want_sp, conv2d(xs, ws, bs, p, plan), f.nanBits))
                    << "specials, x " << shapeToString(tc.x) << " kernel "
                    << tc.kh << "x" << tc.kw << " isa " << isaName(plan.isa)
                    << " nan bits " << f.nanBits;

            // A NaN first tap on channel 0 and an Inf last tap on the
            // last channel (every case has two or more): where they
            // fall on padding they must add nothing, not 0 * Inf.
            Tensor wt = w;
            wt[0] = f.nan;
            wt[wt.numel() - 1] = std::numeric_limits<float>::infinity();
            const Tensor want_t = directConvOracle(xs, wt, bs, p);
            for (const Conv2dPlan &plan : directPlans())
                EXPECT_TRUE(bitIdentical(
                    want_t, conv2d(xs, wt, bs, p, plan), f.nanBits))
                    << "Inf/NaN taps, x " << shapeToString(tc.x)
                    << " kernel " << tc.kh << "x" << tc.kw << " isa "
                    << isaName(plan.isa) << " nan bits " << f.nanBits;
        }
    }
}

TEST_P(DepthwiseParityTest, PaddedTapsAddNothing)
{
    // An all -0.0 input times +1 taps sums to -0.0 from a -0.0 bias,
    // and Inf/NaN corner taps only ever fall on padding at the plane's
    // edges. A kernel that added 0 for a padded tap would turn those
    // -0.0 outputs to +0.0, and those edge outputs to NaN.
    for (int64_t side = 1; side <= 33; ++side) {
        const int64_t c = 5;
        Conv2dParams p;
        p.padH = p.padW = 1;
        p.groups = c;
        Tensor x({1, c, side, side}, -0.0f);
        Tensor w({c, 1, 3, 3}, 1.0f);
        Tensor b({c}, -0.0f);
        const Tensor want = directConvOracle(x, w, b, p);
        for (int64_t i = 0; i < want.numel(); ++i)
            ASSERT_TRUE(std::signbit(want[i])) << "side " << side;
        for (const Conv2dPlan &plan : directPlans())
            EXPECT_TRUE(bitIdentical(want, conv2d(x, w, b, p, plan)))
                << "side " << side << " isa " << isaName(plan.isa);

        Rng rng(static_cast<uint64_t>(side));
        Tensor xf = Tensor::randn({1, c, side, side}, rng);
        Tensor wf({c, 1, 3, 3}, 0.5f);
        for (int64_t k = 0; k < c; ++k) {
            wf[k * 9 + 0] = std::numeric_limits<float>::infinity();
            wf[k * 9 + 8] = generatedNaN();
        }
        const Tensor want_f = directConvOracle(xf, wf, b, p);
        for (const Conv2dPlan &plan : directPlans())
            EXPECT_TRUE(bitIdentical(want_f, conv2d(xf, wf, b, p, plan)))
                << "Inf/NaN corners, side " << side << " isa "
                << isaName(plan.isa);
    }
}

TEST_P(DepthwiseParityTest, UngroupedSingleChannelInputUsesSameOrder)
{
    // cg == 1 with groups == 1: a one-channel image feeding many output
    // channels also takes the depthwise slice on a Direct plan.
    Rng rng(97);
    Conv2dParams p;
    p.padH = p.padW = 2;
    p.strideW = 2;
    Tensor x = Tensor::randn({2, 1, 9, 11}, rng);
    Tensor w = Tensor::randn({5, 1, 5, 3}, rng);
    Tensor b = Tensor::randn({5}, rng);
    const Tensor want = directConvOracle(x, w, b, p);
    for (const Conv2dPlan &plan : directPlans())
        EXPECT_TRUE(bitIdentical(want, conv2d(x, w, b, p, plan)))
            << "isa " << isaName(plan.isa);
}

class DirectConvParityTest : public PoolThreadsTest
{
};

TEST_P(DirectConvParityTest, MatchesDirectLoop)
{
    struct Case
    {
        Shape x, w;
        int64_t stride, pad, groups;
    };
    // The soak model's direct convs (sr_conv of stages 0-2 and the
    // stage-3 patch embed), then padded, strided, grouped (but not
    // depthwise) and batched ones, with channel counts that leave a
    // 1-3 channel rest after the four-channel blocks.
    const Case cases[] = {
        {{1, 8, 16, 16}, {8, 8, 8, 8}, 8, 0, 1},
        {{1, 16, 8, 8}, {16, 16, 4, 4}, 4, 0, 1},
        {{1, 24, 4, 4}, {24, 24, 2, 2}, 2, 0, 1},
        {{1, 24, 4, 4}, {32, 24, 3, 3}, 2, 1, 1},
        {{2, 5, 9, 7}, {7, 5, 3, 3}, 1, 1, 1},
        {{1, 3, 11, 11}, {6, 3, 5, 5}, 3, 2, 1},
        {{2, 8, 7, 9}, {10, 4, 3, 3}, 2, 1, 2},
        {{1, 12, 6, 6}, {9, 4, 1, 1}, 1, 0, 3},
        {{3, 6, 5, 5}, {6, 2, 3, 3}, 1, 2, 3},
    };
    Rng rng(131);
    for (const Case &tc : cases) {
        Conv2dParams p;
        p.strideH = p.strideW = tc.stride;
        p.padH = p.padW = tc.pad;
        p.groups = tc.groups;
        Tensor x = Tensor::randn(tc.x, rng);
        Tensor w = Tensor::randn(tc.w, rng);
        Tensor b = Tensor::randn({tc.w[0]}, rng);
        const Tensor want = directConvOracle(x, w, b, p);
        for (const Conv2dPlan &plan : directPlans())
            EXPECT_TRUE(bitIdentical(want, conv2d(x, w, b, p, plan)))
                << "x " << shapeToString(tc.x) << " w "
                << shapeToString(tc.w) << " isa " << isaName(plan.isa);
        EXPECT_TRUE(bitIdentical(directConvOracle(x, w, Tensor{}, p),
                                 conv2d(x, w, Tensor{}, p,
                                        Conv2dAlgo::Direct)))
            << "no bias, x " << shapeToString(tc.x);

        for (const NanFlavor &f : nanFlavors()) {
            Tensor xs = x;
            addSpecials(xs, f.nan);
            Tensor ws = w;
            ws[1] = -0.0f;
            ws[ws.numel() - 1] = std::numeric_limits<float>::infinity();
            Tensor bs = b;
            bs[0] = -0.0f;
            const Tensor want_sp = directConvOracle(xs, ws, bs, p);
            for (const Conv2dPlan &plan : directPlans())
                EXPECT_TRUE(bitIdentical(
                    want_sp, conv2d(xs, ws, bs, p, plan), f.nanBits))
                    << "specials, x " << shapeToString(tc.x) << " w "
                    << shapeToString(tc.w) << " isa "
                    << isaName(plan.isa) << " nan bits " << f.nanBits;
        }
    }
}

class BilinearParityTest : public PoolThreadsTest
{
};

TEST_P(BilinearParityTest, MatchesPerElementLoop)
{
    struct Case
    {
        Shape x;
        int64_t oh, ow;
    };
    // Up, down, same size, mixed, 1x1 in and out, the B2
    // FinalUpsample shape (150 planes, 24 -> 96) and decoder upsamples
    // (768 planes, 12/6/3 -> 24), which shard, and every source width
    // 1-33 up and down: widths past 8, 16 and 32 columns cross from
    // register permutes to gathers.
    std::vector<Case> cases = {
        {{1, 3, 5, 7}, 13, 17},  {{2, 2, 13, 11}, 5, 4},
        {{1, 2, 7, 7}, 7, 7},    {{1, 2, 5, 9}, 11, 4},
        {{1, 1, 1, 1}, 3, 5},    {{1, 2, 6, 4}, 1, 1},
        {{1, 150, 24, 24}, 96, 96}, {{1, 768, 12, 12}, 24, 24},
        {{1, 768, 6, 6}, 24, 24},   {{1, 768, 3, 3}, 24, 24},
    };
    for (int64_t w = 1; w <= 33; ++w) {
        cases.push_back({{1, 2, 3, w}, 5, 3 * w + 1});
        cases.push_back({{1, 2, 4, w}, 2, w / 2 + 1});
    }
    Rng rng(101);
    for (const Case &tc : cases) {
        Tensor x = Tensor::randn(tc.x, rng);
        const Tensor want = bilinearOracle(x, tc.oh, tc.ow);
        EXPECT_TRUE(
            bitIdentical(want, interpolateBilinear(x, tc.oh, tc.ow)))
            << "x " << shapeToString(tc.x) << " -> " << tc.oh << "x"
            << tc.ow;
        for (IsaLevel isa : availableIsas())
            EXPECT_TRUE(bitIdentical(want, interpolateBilinear(
                                               x, tc.oh, tc.ow,
                                               kernelsFor(isa))))
                << "x " << shapeToString(tc.x) << " -> " << tc.oh << "x"
                << tc.ow << " isa " << isaName(isa);
        for (const NanFlavor &f : nanFlavors()) {
            Tensor xs = x;
            addSpecials(xs, f.nan);
            const Tensor want_sp = bilinearOracle(xs, tc.oh, tc.ow);
            for (IsaLevel isa : availableIsas())
                EXPECT_TRUE(bitIdentical(
                    want_sp,
                    interpolateBilinear(xs, tc.oh, tc.ow, kernelsFor(isa)),
                    f.nanBits))
                    << "specials, x " << shapeToString(tc.x) << " isa "
                    << isaName(isa) << " nan bits " << f.nanBits;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, DirectConvParityTest,
                         ::testing::Values(1, 4));
INSTANTIATE_TEST_SUITE_P(Threads, DepthwiseParityTest,
                         ::testing::Values(1, 4));
INSTANTIATE_TEST_SUITE_P(Threads, BilinearParityTest,
                         ::testing::Values(1, 4));

} // namespace
} // namespace vitdyn
