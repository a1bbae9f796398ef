/** @file Tests of softmax / normalization / activation / shape ops. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "parity.hh"
#include "tensor/ops.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

TEST(Softmax, RowsSumToOne)
{
    Rng rng(1);
    Tensor x = Tensor::randn({4, 7}, rng, 0.0f, 3.0f);
    Tensor y = softmax(x);
    for (int64_t r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (int64_t c = 0; c < 7; ++c) {
            sum += y.at2(r, c);
            EXPECT_GE(y.at2(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Softmax, ShiftInvariance)
{
    Rng rng(2);
    Tensor x = Tensor::randn({2, 5}, rng);
    Tensor shifted = x;
    for (int64_t i = 0; i < x.numel(); ++i)
        shifted[i] += 10.0f;
    EXPECT_TRUE(softmax(x).allClose(softmax(shifted), 1e-5f));
}

TEST(Softmax, LargeValuesStable)
{
    Tensor x({1, 3}, std::vector<float>{1000.0f, 999.0f, -1000.0f});
    Tensor y = softmax(x);
    EXPECT_FALSE(std::isnan(y[0]));
    EXPECT_GT(y[0], y[1]);
    EXPECT_NEAR(y[2], 0.0f, 1e-6f);
}

TEST(Softmax, PreservesArgmax)
{
    Rng rng(3);
    Tensor x = Tensor::randn({8, 16}, rng);
    Tensor y = softmax(x);
    for (int64_t r = 0; r < 8; ++r) {
        int64_t ax = 0;
        int64_t ay = 0;
        for (int64_t c = 1; c < 16; ++c) {
            if (x.at2(r, c) > x.at2(r, ax))
                ax = c;
            if (y.at2(r, c) > y.at2(r, ay))
                ay = c;
        }
        EXPECT_EQ(ax, ay);
    }
}

TEST(Softmax, SingleElementRow)
{
    Tensor x({3, 1}, std::vector<float>{5.0f, -3.0f, 0.0f});
    Tensor y = softmax(x);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(y[i], 1.0f);
}

TEST(Softmax, AllEqualRowIsUniform)
{
    Tensor x({1, 4}, 7.0f);
    Tensor y = softmax(x);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_NEAR(y[i], 0.25f, 1e-6f);
}

TEST(Softmax, FullyMaskedRowIsUniformNotNaN)
{
    // An attention mask can -inf out an entire row; softmax must not
    // return NaN (exp(-inf - -inf) / 0). Defined output: uniform.
    const float ninf = -std::numeric_limits<float>::infinity();
    Tensor x({2, 4}, std::vector<float>{ninf, ninf, ninf, ninf, //
                                        0.0f, 1.0f, 2.0f, 3.0f});
    Tensor y = softmax(x);
    float masked_sum = 0.0f;
    for (int64_t i = 0; i < 4; ++i) {
        EXPECT_FALSE(std::isnan(y[i])) << "index " << i;
        EXPECT_NEAR(y.at2(0, i), 0.25f, 1e-6f);
        masked_sum += y.at2(0, i);
    }
    EXPECT_NEAR(masked_sum, 1.0f, 1e-5f);
    // The unmasked row is untouched by the guard.
    float sum = 0.0f;
    for (int64_t i = 0; i < 4; ++i)
        sum += y.at2(1, i);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    EXPECT_GT(y.at2(1, 3), y.at2(1, 0));
}

TEST(Softmax, PartiallyMaskedRowRenormalizes)
{
    const float ninf = -std::numeric_limits<float>::infinity();
    Tensor x({1, 4}, std::vector<float>{ninf, 0.0f, ninf, 0.0f});
    Tensor y = softmax(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_NEAR(y[1], 0.5f, 1e-6f);
    EXPECT_FLOAT_EQ(y[2], 0.0f);
    EXPECT_NEAR(y[3], 0.5f, 1e-6f);
}

TEST(LayerNorm, ZeroMeanUnitVar)
{
    Rng rng(4);
    Tensor x = Tensor::randn({3, 64}, rng, 5.0f, 2.0f);
    Tensor gamma({64}, 1.0f);
    Tensor beta({64}, 0.0f);
    Tensor y = layerNorm(x, gamma, beta);
    for (int64_t r = 0; r < 3; ++r) {
        double mean = 0.0;
        double sq = 0.0;
        for (int64_t c = 0; c < 64; ++c) {
            mean += y.at2(r, c);
            sq += y.at2(r, c) * y.at2(r, c);
        }
        mean /= 64;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(sq / 64 - mean * mean, 1.0, 1e-2);
    }
}

TEST(LayerNorm, AffineApplied)
{
    Tensor x({1, 2}, std::vector<float>{-1.0f, 1.0f});
    Tensor gamma({2}, std::vector<float>{2.0f, 2.0f});
    Tensor beta({2}, std::vector<float>{5.0f, 5.0f});
    Tensor y = layerNorm(x, gamma, beta);
    // Normalized input is [-1, 1] (up to eps), so y ~ [3, 7].
    EXPECT_NEAR(y[0], 3.0f, 1e-2f);
    EXPECT_NEAR(y[1], 7.0f, 1e-2f);
}

TEST(LayerNorm, GoldenValues)
{
    // x = [1,2,3,4]: mean 2.5, var 1.25, normalized
    // [-1.5,-0.5,0.5,1.5]/sqrt(1.25) = [-1.34164,-0.44721,0.44721,
    // 1.34164]; gamma 2, beta 1 maps that to the values below.
    Tensor x({1, 4}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
    Tensor gamma({4}, 2.0f);
    Tensor beta({4}, 1.0f);
    Tensor y = layerNorm(x, gamma, beta);
    EXPECT_NEAR(y[0], -1.683281f, 1e-3f);
    EXPECT_NEAR(y[1], 0.105573f, 1e-3f);
    EXPECT_NEAR(y[2], 1.894427f, 1e-3f);
    EXPECT_NEAR(y[3], 3.683281f, 1e-3f);
}

TEST(BatchNorm, GoldenValues)
{
    // Channel 0: scale 1/sqrt(4) = 0.5, shift -0.5 -> [0, 0.5].
    // Channel 1: scale 0.5/sqrt(0.25) = 1, shift 1-2 = -1 -> [2, 3].
    Tensor x({1, 2, 2, 1}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
    Tensor gamma({2}, std::vector<float>{1.0f, 0.5f});
    Tensor beta({2}, std::vector<float>{0.0f, 1.0f});
    Tensor mean({2}, std::vector<float>{1.0f, 2.0f});
    Tensor var({2}, std::vector<float>{4.0f, 0.25f});
    Tensor y = batchNorm(x, gamma, beta, mean, var);
    EXPECT_NEAR(y[0], 0.0f, 1e-3f);
    EXPECT_NEAR(y[1], 0.5f, 1e-3f);
    EXPECT_NEAR(y[2], 2.0f, 1e-3f);
    EXPECT_NEAR(y[3], 3.0f, 1e-3f);
}

TEST(BatchNorm, FoldedStatistics)
{
    // With mean 2, var 4, gamma 3, beta 1: y = 3 * (x - 2) / 2 + 1.
    Tensor x({1, 1, 1, 2}, std::vector<float>{4.0f, 0.0f});
    Tensor gamma({1}, 3.0f);
    Tensor beta({1}, 1.0f);
    Tensor mean({1}, 2.0f);
    Tensor var({1}, 4.0f);
    Tensor y = batchNorm(x, gamma, beta, mean, var);
    EXPECT_NEAR(y[0], 4.0f, 1e-3f);
    EXPECT_NEAR(y[1], -2.0f, 1e-3f);
}

TEST(BatchNorm, PerChannel)
{
    Tensor x({1, 2, 1, 1}, std::vector<float>{1.0f, 1.0f});
    Tensor gamma({2}, std::vector<float>{1.0f, 10.0f});
    Tensor beta({2}, 0.0f);
    Tensor mean({2}, 0.0f);
    Tensor var({2}, 1.0f);
    Tensor y = batchNorm(x, gamma, beta, mean, var);
    EXPECT_NEAR(y[1] / y[0], 10.0f, 1e-3f);
}

TEST(Relu, ClampsNegative)
{
    Tensor x({4}, std::vector<float>{-2.0f, -0.5f, 0.0f, 3.0f});
    Tensor y = relu(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 0.0f);
    EXPECT_FLOAT_EQ(y[3], 3.0f);
}

TEST(Gelu, KnownValues)
{
    Tensor x({3}, std::vector<float>{0.0f, 1.0f, -10.0f});
    Tensor y = gelu(x);
    EXPECT_NEAR(y[0], 0.0f, 1e-6f);
    EXPECT_NEAR(y[1], 0.8412f, 1e-3f);
    EXPECT_NEAR(y[2], 0.0f, 1e-4f);
}

TEST(Add, Elementwise)
{
    Tensor a({2}, std::vector<float>{1.0f, 2.0f});
    Tensor b({2}, std::vector<float>{10.0f, 20.0f});
    Tensor y = add(a, b);
    EXPECT_FLOAT_EQ(y[0], 11.0f);
    EXPECT_FLOAT_EQ(y[1], 22.0f);
}

TEST(Add, ShapeMismatchPanics)
{
    Tensor a({2});
    Tensor b({3});
    EXPECT_DEATH(add(a, b), "shape mismatch");
}

TEST(ConcatChannels, StacksInOrder)
{
    Tensor a({1, 1, 2, 2}, 1.0f);
    Tensor b({1, 2, 2, 2}, 2.0f);
    Tensor y = concatChannels({&a, &b});
    EXPECT_EQ(y.shape(), (Shape{1, 3, 2, 2}));
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 2, 1, 1), 2.0f);
}

TEST(ConcatChannels, MismatchedShapePanics)
{
    Tensor a({1, 1, 2, 2});
    Tensor b({1, 2, 2, 3});
    Tensor tokens({1, 4, 2});
    EXPECT_DEATH(concatChannels({&a, &b}), "mismatched shape");
    EXPECT_DEATH(concatChannels({&a, &tokens}), "mismatched shape");
    EXPECT_DEATH(concatTokens({&tokens, &a}), "mismatched shape");
}

TEST(TokenLayout, RoundTrip)
{
    Rng rng(5);
    Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
    Tensor tokens = nchwToTokens(x);
    EXPECT_EQ(tokens.shape(), (Shape{2, 20, 3}));
    Tensor back = tokensToNchw(tokens, 4, 5);
    EXPECT_TRUE(back.allClose(x));
}

TEST(WindowPartition, RoundTrip)
{
    Rng rng(6);
    Tensor tokens = Tensor::randn({2, 6 * 4, 3}, rng);
    Tensor windows = windowPartition(tokens, 6, 4, 2);
    EXPECT_EQ(windows.shape(), (Shape{2 * 6, 4, 3}));
    Tensor back = windowReverse(windows, 6, 4, 2, 2);
    EXPECT_TRUE(back.allClose(tokens));
}

TEST(WindowPartition, WindowContentsContiguous)
{
    // A 4x4 grid with window 2: the first window holds grid positions
    // (0,0), (0,1), (1,0), (1,1).
    Tensor tokens({1, 16, 1});
    for (int64_t i = 0; i < 16; ++i)
        tokens[i] = static_cast<float>(i);
    Tensor windows = windowPartition(tokens, 4, 4, 2);
    EXPECT_FLOAT_EQ(windows.at3(0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(windows.at3(0, 1, 0), 1.0f);
    EXPECT_FLOAT_EQ(windows.at3(0, 2, 0), 4.0f);
    EXPECT_FLOAT_EQ(windows.at3(0, 3, 0), 5.0f);
}

TEST(CyclicShift, RoundTrip)
{
    Rng rng(7);
    Tensor tokens = Tensor::randn({1, 5 * 4, 2}, rng);
    Tensor shifted = cyclicShift(tokens, 5, 4, 2, 1);
    Tensor back = cyclicShift(shifted, 5, 4, -2, -1);
    EXPECT_TRUE(back.allClose(tokens));
}

TEST(CyclicShift, MovesExpectedPixel)
{
    Tensor tokens({1, 4, 1}, std::vector<float>{1, 2, 3, 4}); // 2x2 grid
    Tensor shifted = cyclicShift(tokens, 2, 2, 1, 0);
    // Row 0 moves to row 1.
    EXPECT_FLOAT_EQ(shifted.at3(0, 2, 0), 1.0f);
    EXPECT_FLOAT_EQ(shifted.at3(0, 0, 0), 3.0f);
}

// ---------------------------------------------------------------------
// Elementwise and layout parity: the sharded, flat-indexed kernels must
// be memcmp-identical to the loops they replaced (copied below as
// oracles) at 1 and 4 pool threads, below and above one shard's grain,
// including inputs holding -0.0, NaN and +-Inf.
// ---------------------------------------------------------------------

/** The GELU gelu(), geluInPlace() and the fused epilogue each owe per
 *  element: the scalar reference, whose tanh is the repo's own fdlibm
 *  port, not the host libm's. (Spelling the expression out here would
 *  let a toolchain that contracts by default fuse v + 0.044715 v^3;
 *  the reference is compiled with -ffp-contract=off.) */
float
geluOracle(float v)
{
    return geluScalar(v);
}

Tensor
nchwToTokensOracle(const Tensor &input)
{
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t h = input.dim(2);
    const int64_t w = input.dim(3);
    Tensor out({n, h * w, c});
    for (int64_t nn = 0; nn < n; ++nn)
        for (int64_t cc = 0; cc < c; ++cc)
            for (int64_t hh = 0; hh < h; ++hh)
                for (int64_t ww = 0; ww < w; ++ww)
                    out.at3(nn, hh * w + ww, cc) = input.at4(nn, cc, hh, ww);
    return out;
}

Tensor
tokensToNchwOracle(const Tensor &input, int64_t h, int64_t w)
{
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(2);
    Tensor out({n, c, h, w});
    for (int64_t nn = 0; nn < n; ++nn)
        for (int64_t cc = 0; cc < c; ++cc)
            for (int64_t hh = 0; hh < h; ++hh)
                for (int64_t ww = 0; ww < w; ++ww)
                    out.at4(nn, cc, hh, ww) = input.at3(nn, hh * w + ww, cc);
    return out;
}

Tensor
concatChannelsOracle(const std::vector<Tensor> &inputs)
{
    const int64_t n = inputs[0].dim(0);
    const int64_t h = inputs[0].dim(2);
    const int64_t w = inputs[0].dim(3);
    int64_t total_c = 0;
    for (const Tensor &t : inputs)
        total_c += t.dim(1);
    Tensor out({n, total_c, h, w});
    const int64_t hw = h * w;
    for (int64_t nn = 0; nn < n; ++nn) {
        int64_t c_off = 0;
        for (const Tensor &t : inputs) {
            const int64_t c = t.dim(1);
            const float *src = t.data() + nn * c * hw;
            float *dst = out.data() + (nn * total_c + c_off) * hw;
            std::copy(src, src + c * hw, dst);
            c_off += c;
        }
    }
    return out;
}

/** The executor's former token-dimension Concat loop. */
Tensor
concatTokensOracle(const std::vector<Tensor> &inputs)
{
    const int64_t n = inputs[0].dim(0);
    const int64_t c = inputs[0].dim(2);
    int64_t total_l = 0;
    for (const Tensor &t : inputs)
        total_l += t.dim(1);
    Tensor out({n, total_l, c});
    for (int64_t nn = 0; nn < n; ++nn) {
        int64_t off = 0;
        for (const Tensor &t : inputs) {
            const int64_t l = t.dim(1);
            const float *src = t.data() + nn * l * c;
            float *dst = out.data() + (nn * total_l + off) * c;
            std::copy(src, src + l * c, dst);
            off += l;
        }
    }
    return out;
}

/** The executor's former Narrow loops (rank 4, then token layout). */
Tensor
narrowOracle(const Tensor &in, int64_t keep)
{
    if (in.rank() == 4) {
        const int64_t n = in.dim(0);
        const int64_t h = in.dim(2);
        const int64_t w = in.dim(3);
        Tensor out({n, keep, h, w});
        for (int64_t nn = 0; nn < n; ++nn)
            for (int64_t cc = 0; cc < keep; ++cc)
                for (int64_t hh = 0; hh < h; ++hh)
                    for (int64_t ww = 0; ww < w; ++ww)
                        out.at4(nn, cc, hh, ww) = in.at4(nn, cc, hh, ww);
        return out;
    }
    const int64_t c = in.dim(-1);
    const int64_t rows = in.numel() / c;
    Shape out_shape = in.shape();
    out_shape.back() = keep;
    Tensor out(out_shape);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t i = 0; i < keep; ++i)
            out[r * keep + i] = in[r * c + i];
    return out;
}

/** The executor's former Patchify loop. */
Tensor
patchifyOracle(const Tensor &in, int64_t p)
{
    const int64_t n = in.dim(0);
    const int64_t c = in.dim(1);
    const int64_t gh = in.dim(2) / p;
    const int64_t gw = in.dim(3) / p;
    Tensor out({n, gh * gw, c * p * p});
    for (int64_t nn = 0; nn < n; ++nn)
        for (int64_t gy = 0; gy < gh; ++gy)
            for (int64_t gx = 0; gx < gw; ++gx)
                for (int64_t cc = 0; cc < c; ++cc)
                    for (int64_t py = 0; py < p; ++py)
                        for (int64_t px = 0; px < p; ++px)
                            out.at3(nn, gy * gw + gx,
                                    (cc * p + py) * p + px) =
                                in.at4(nn, cc, gy * p + py, gx * p + px);
    return out;
}

class ElementwiseParityTest : public PoolThreadsTest
{
};

// Element counts below one shard's grain (inline) and above several
// (GELU's grain is 2^18 / kGeluFlops elements, Add's and ReLU's 2^18).
const int64_t kElementCounts[] = {1, 1000, 100003, 600001};

TEST_P(ElementwiseParityTest, GeluReluAddMatchScalarLoops)
{
    Rng rng(103);
    for (int64_t count : kElementCounts)
        for (const NanFlavor &f : nanFlavors()) {
            Tensor x = Tensor::randn({count}, rng, 0.0f, 3.0f);
            Tensor y = Tensor::randn({count}, rng);
            addSpecials(x, f.nan);
            Tensor want_gelu({count}), want_relu({count}), want_add({count});
            for (int64_t i = 0; i < count; ++i) {
                want_gelu[i] = geluOracle(x[i]);
                want_relu[i] = x[i] > 0.0f ? x[i] : 0.0f;
                want_add[i] = x[i] + y[i];
            }
            EXPECT_TRUE(bitIdentical(want_gelu, gelu(x), f.nanBits))
                << count << " elements";
            EXPECT_TRUE(bitIdentical(want_relu, relu(x), f.nanBits))
                << count << " elements";
            EXPECT_TRUE(bitIdentical(want_add, add(x, y), f.nanBits))
                << count << " elements";

            Tensor in_place = x;
            geluInPlace(in_place);
            EXPECT_TRUE(bitIdentical(want_gelu, in_place, f.nanBits));
            in_place = x;
            reluInPlace(in_place);
            EXPECT_TRUE(bitIdentical(want_relu, in_place, f.nanBits));
            in_place = x;
            addInPlace(in_place, y);
            EXPECT_TRUE(bitIdentical(want_add, in_place, f.nanBits));
            // Add(x, x): the aliased operand is read before the write.
            Tensor want_twice({count});
            for (int64_t i = 0; i < count; ++i)
                want_twice[i] = x[i] + x[i];
            in_place = x;
            addInPlace(in_place, in_place);
            EXPECT_TRUE(bitIdentical(want_twice, in_place, f.nanBits));
        }
}

TEST_P(ElementwiseParityTest, FusedEpilogueGeluMatchesGelu)
{
    // The fused conv epilogue and gelu() share one GELU expression.
    Rng rng(107);
    for (const NanFlavor &f : nanFlavors()) {
        Tensor x = Tensor::randn({2, 5, 7, 9}, rng, 0.0f, 3.0f);
        addSpecials(x, f.nan);
        Tensor fused = x;
        convEpilogueInPlace(fused, nullptr, nullptr, EpilogueAct::GELU);
        Tensor want(x.shape());
        for (int64_t i = 0; i < x.numel(); ++i)
            want[i] = geluOracle(x[i]);
        EXPECT_TRUE(bitIdentical(want, fused, f.nanBits));
        EXPECT_TRUE(bitIdentical(want, gelu(x), f.nanBits));
    }
}

class LayoutParityTest : public PoolThreadsTest
{
};

/** Layout ops copy bits, so even a foreign NaN must survive exactly. */
Tensor
randnWithSpecials(const Shape &shape, Rng &rng)
{
    Tensor t = Tensor::randn(shape, rng);
    addSpecials(t, std::nanf("7"));
    return t;
}

TEST_P(LayoutParityTest, TransposesMatchIndexedLoops)
{
    // C and H*W off the 32-wide transpose tile, n > 1, a single token
    // and a single channel, and the B2 stage-1 shape (576 x 256), which
    // shards at 4 threads.
    const Shape shapes[] = {{1, 3, 4, 5},   {2, 37, 5, 7},  {3, 33, 1, 1},
                            {1, 1, 9, 11},  {2, 64, 6, 11}, {1, 256, 24, 24},
                            {2, 70, 13, 3}};
    Rng rng(109);
    for (const Shape &s : shapes) {
        Tensor x = randnWithSpecials(s, rng);
        EXPECT_TRUE(bitIdentical(nchwToTokensOracle(x), nchwToTokens(x)))
            << shapeToString(s);
        Tensor tok = randnWithSpecials({s[0], s[2] * s[3], s[1]}, rng);
        EXPECT_TRUE(bitIdentical(tokensToNchwOracle(tok, s[2], s[3]),
                                 tokensToNchw(tok, s[2], s[3])))
            << shapeToString(s);
    }
}

TEST_P(LayoutParityTest, ConcatsMatchCopyLoops)
{
    Rng rng(113);
    // Uneven channel counts (one of a single channel), H*W off 32, n > 1,
    // and the B2 decoder concat (4 x 768 channels at 24 x 24).
    const std::vector<std::vector<Shape>> channel_sets = {
        {{1, 1, 2, 2}, {1, 2, 2, 2}},
        {{2, 3, 5, 7}, {2, 37, 5, 7}, {2, 1, 5, 7}, {2, 12, 5, 7}},
        {{3, 5, 1, 3}, {3, 0, 1, 3}, {3, 2, 1, 3}},
        {{1, 768, 24, 24}, {1, 768, 24, 24}, {1, 768, 24, 24},
         {1, 768, 24, 24}},
    };
    for (const std::vector<Shape> &set : channel_sets) {
        std::vector<Tensor> parts;
        std::vector<const Tensor *> ptrs;
        for (const Shape &s : set)
            parts.push_back(randnWithSpecials(s, rng));
        for (const Tensor &t : parts)
            ptrs.push_back(&t);
        EXPECT_TRUE(bitIdentical(concatChannelsOracle(parts),
                                 concatChannels(ptrs)))
            << parts.size() << " parts, first " << shapeToString(set[0]);
    }
    const std::vector<std::vector<Shape>> token_sets = {
        {{1, 1, 8}, {1, 49, 8}},
        {{2, 5, 33}, {2, 17, 33}, {2, 1, 33}},
        {{1, 4000, 70}, {1, 300, 70}},
    };
    for (const std::vector<Shape> &set : token_sets) {
        std::vector<Tensor> parts;
        std::vector<const Tensor *> ptrs;
        for (const Shape &s : set)
            parts.push_back(randnWithSpecials(s, rng));
        for (const Tensor &t : parts)
            ptrs.push_back(&t);
        EXPECT_TRUE(bitIdentical(concatTokensOracle(parts),
                                 concatTokens(ptrs)))
            << parts.size() << " parts, first " << shapeToString(set[0]);
    }
}

TEST_P(LayoutParityTest, NarrowAndPatchifyMatchIndexedLoops)
{
    Rng rng(127);
    struct NarrowCase
    {
        Shape x;
        int64_t keep;
    };
    // NCHW and token layouts, keeping none, some and all channels, and
    // pruned-B2-sized tensors that shard at 4 threads.
    const NarrowCase narrows[] = {
        {{2, 7, 5, 3}, 4},     {{1, 5, 1, 1}, 5},   {{2, 6, 3, 3}, 0},
        {{1, 768, 24, 24}, 512}, {{2, 9, 37}, 20},  {{13, 8}, 1},
        {{1, 576, 1024}, 700},
    };
    for (const NarrowCase &tc : narrows) {
        Tensor x = randnWithSpecials(tc.x, rng);
        EXPECT_TRUE(
            bitIdentical(narrowOracle(x, tc.keep), narrowChannels(x, tc.keep)))
            << shapeToString(tc.x) << " keep " << tc.keep;
    }
    struct PatchCase
    {
        Shape x;
        int64_t patch;
    };
    // Grids that divide exactly and ones whose remainder is dropped.
    const PatchCase patches[] = {
        {{1, 3, 8, 8}, 4}, {{2, 3, 10, 7}, 3}, {{1, 2, 5, 5}, 1},
        {{1, 3, 224, 224}, 16},
    };
    for (const PatchCase &tc : patches) {
        Tensor x = randnWithSpecials(tc.x, rng);
        EXPECT_TRUE(bitIdentical(patchifyOracle(x, tc.patch),
                                 patchify(x, tc.patch)))
            << shapeToString(tc.x) << " patch " << tc.patch;
    }
}

// ---------------------------------------------------------------------
// Row-sharded norm parity: softmax, layerNorm, batchNorm and
// batchNormInPlace shard independent rows (planes) over the pool, and
// must stay memcmp-identical to the serial loops they were (copied
// below as oracles), at 1 and 4 pool threads.
// ---------------------------------------------------------------------

/** The serial softmax loop. */
Tensor
softmaxOracle(const Tensor &input)
{
    const int64_t c = input.dim(-1);
    const int64_t rows = input.numel() / c;
    Tensor out(input.shape());
    for (int64_t r = 0; r < rows; ++r) {
        const float *xr = input.data() + r * c;
        float *yr = out.data() + r * c;
        float max_v = xr[0];
        for (int64_t i = 1; i < c; ++i)
            max_v = std::max(max_v, xr[i]);
        if (std::isinf(max_v) && max_v < 0.0f) {
            for (int64_t i = 0; i < c; ++i)
                yr[i] = 1.0f / static_cast<float>(c);
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
    return out;
}

/** The serial layerNorm loop, double accumulation per row. */
Tensor
layerNormOracle(const Tensor &input, const Tensor &gamma,
                const Tensor &beta, float eps)
{
    const int64_t c = input.dim(-1);
    const int64_t rows = input.numel() / c;
    Tensor out(input.shape());
    for (int64_t r = 0; r < rows; ++r) {
        const float *xr = input.data() + r * c;
        float *yr = out.data() + r * c;
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
        for (int64_t i = 0; i < c; ++i)
            yr[i] = (xr[i] - static_cast<float>(mean)) * inv * gamma[i] +
                    beta[i];
    }
    return out;
}

/** The serial batchNorm loop. */
Tensor
batchNormOracle(const Tensor &input, const Tensor &gamma, const Tensor &beta,
                const Tensor &mean, const Tensor &var, float eps)
{
    const int64_t n = input.dim(0);
    const int64_t c = input.dim(1);
    const int64_t hw = input.dim(2) * input.dim(3);
    Tensor out(input.shape());
    for (int64_t nn = 0; nn < n; ++nn)
        for (int64_t cc = 0; cc < c; ++cc) {
            const float scale = gamma[cc] / std::sqrt(var[cc] + eps);
            const float shift = beta[cc] - mean[cc] * scale;
            const float *x = input.data() + (nn * c + cc) * hw;
            float *y = out.data() + (nn * c + cc) * hw;
            for (int64_t i = 0; i < hw; ++i)
                y[i] = x[i] * scale + shift;
        }
    return out;
}

class NormParityTest : public PoolThreadsTest
{
};

TEST_P(NormParityTest, SoftmaxMatchesSerialLoop)
{
    // Rows below one shard and enough rows (100 columns) to shard at 4
    // threads; one fully masked row and specials in the rest.
    Rng rng(107);
    const Shape shapes[] = {{3, 7}, {2, 1500, 100}};
    for (const Shape &shape : shapes) {
        Tensor x = randnWithSpecials(shape, rng);
        for (int64_t i = 0; i < shape.back(); ++i)
            x[i] = -std::numeric_limits<float>::infinity();
        EXPECT_TRUE(bitIdentical(softmaxOracle(x), softmax(x), false))
            << shapeToString(shape);
    }
}

TEST_P(NormParityTest, LayerNormMatchesSerialLoop)
{
    // B2 stage-0 tokens (576 x 64) and a batch of them, which shards.
    Rng rng(109);
    const Shape shapes[] = {{1, 5, 3}, {1, 576, 64}, {4, 576, 64}};
    for (const Shape &shape : shapes) {
        const int64_t c = shape.back();
        Tensor x = Tensor::randn(shape, rng, 0.5f, 2.0f);
        Tensor gamma = Tensor::randn({c}, rng);
        Tensor beta = Tensor::randn({c}, rng);
        beta[0] = -0.0f;
        EXPECT_TRUE(bitIdentical(layerNormOracle(x, gamma, beta, 1e-6f),
                                 layerNorm(x, gamma, beta, 1e-6f)))
            << shapeToString(shape);
        Tensor xs = randnWithSpecials(shape, rng);
        EXPECT_TRUE(bitIdentical(layerNormOracle(xs, gamma, beta, 1e-6f),
                                 layerNorm(xs, gamma, beta, 1e-6f), false))
            << "specials, " << shapeToString(shape);
    }
}

TEST_P(NormParityTest, BatchNormMatchesSerialLoop)
{
    // Conv2DFuse's B2 output (768 x 24²) shards at 4 threads.
    Rng rng(113);
    const Shape shapes[] = {{1, 3, 2, 2}, {2, 5, 7, 3}, {1, 768, 24, 24}};
    for (const Shape &shape : shapes) {
        const int64_t c = shape[1];
        Tensor x = randnWithSpecials(shape, rng);
        Tensor gamma = Tensor::randn({c}, rng);
        Tensor beta = Tensor::randn({c}, rng);
        Tensor mean = Tensor::randn({c}, rng);
        Tensor var({c});
        for (int64_t i = 0; i < c; ++i)
            var[i] = 0.5f + static_cast<float>(i % 7);
        const Tensor want = batchNormOracle(x, gamma, beta, mean, var, 1e-5f);
        EXPECT_TRUE(bitIdentical(
            want, batchNorm(x, gamma, beta, mean, var, 1e-5f), false))
            << shapeToString(shape);
        Tensor inplace = x;
        batchNormInPlace(inplace, gamma, beta, mean, var, 1e-5f);
        EXPECT_TRUE(bitIdentical(want, inplace, false))
            << "in place, " << shapeToString(shape);
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, NormParityTest, ::testing::Values(1, 4));
INSTANTIATE_TEST_SUITE_P(Threads, ElementwiseParityTest,
                         ::testing::Values(1, 4));
INSTANTIATE_TEST_SUITE_P(Threads, LayoutParityTest,
                         ::testing::Values(1, 4));

} // namespace
} // namespace vitdyn
