/** @file Tests of linear / matmul / attention reference kernels. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "parity.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

TEST(Linear, HandComputed)
{
    // y = x W^T + b with x = [1, 2], W = [[1, 1], [2, -1]], b = [0, 1].
    Tensor x({1, 2}, std::vector<float>{1, 2});
    Tensor w({2, 2}, std::vector<float>{1, 1, 2, -1});
    Tensor b({2}, std::vector<float>{0, 1});
    Tensor y = linear(x, w, b);
    EXPECT_FLOAT_EQ(y.at2(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(y.at2(0, 1), 1.0f);
}

TEST(Linear, BroadcastsOverLeadingDims)
{
    Rng rng(2);
    Tensor x = Tensor::randn({2, 3, 4}, rng);
    Tensor w = Tensor::randn({5, 4}, rng);
    Tensor y = linear(x, w, Tensor{});
    EXPECT_EQ(y.shape(), (Shape{2, 3, 5}));

    // Row (1, 2) equals the rank-2 computation on that row.
    Tensor row({1, 4});
    for (int64_t i = 0; i < 4; ++i)
        row[i] = x.at3(1, 2, i);
    Tensor yr = linear(row, w, Tensor{});
    for (int64_t o = 0; o < 5; ++o)
        EXPECT_NEAR(y.at3(1, 2, o), yr[o], 1e-4f);
}

TEST(Linear, FeatureMismatchPanics)
{
    Tensor x({1, 3});
    Tensor w({2, 4});
    EXPECT_DEATH(linear(x, w, Tensor{}), "in_features");
    EXPECT_DEATH(linear(x, packLinearWeight(w), 40, Tensor{}), "features");
}

TEST(Linear, PackUnpackRoundTrip)
{
    // Panel tails (out_f off 32), one-wide and multi-chunk in_f.
    Rng rng(5);
    for (int64_t out_f : {1, 8, 31, 32, 33, 65})
        for (int64_t in_f : {1, 7, 300}) {
            Tensor w = Tensor::randn({out_f, in_f}, rng);
            const Tensor panels = packLinearWeight(w);
            ASSERT_EQ(panels.shape(),
                      (Shape{(out_f + 31) / 32, in_f, kGemmPanelCols}));
            // Panel p, row i, column c holds W[32p + c][i]; 0 past out_f.
            for (int64_t p = 0; p < panels.dim(0); ++p)
                for (int64_t i = 0; i < in_f; ++i)
                    for (int64_t c = 0; c < kGemmPanelCols; ++c) {
                        const int64_t o = p * kGemmPanelCols + c;
                        const float want = o < out_f ? w.at2(o, i) : 0.0f;
                        const float got = panels.at3(p, i, c);
                        ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
                            << "out_f " << out_f << " in_f " << in_f
                            << " panel " << p << " row " << i << " col "
                            << c;
                    }
            EXPECT_TRUE(bitIdentical(w, unpackLinearWeight(panels, out_f)))
                << "out_f " << out_f << " in_f " << in_f;
        }
}

TEST(Linear, HeInitPanelsEqualPackingTheDraw)
{
    // Same numbers, same order, same Rng state afterwards (an odd draw
    // count leaves half a Box-Muller pair cached); out_f 70 ends in a
    // partial panel.
    for (int64_t out_f : {1, 32, 70})
        for (int64_t in_f : {1, 7, 64}) {
            Rng a(9), b(9);
            const Tensor want =
                packLinearWeight(Tensor::heInit({out_f, in_f}, a, in_f));
            EXPECT_TRUE(
                bitIdentical(want, heInitLinearWeight(out_f, in_f, b)))
                << "out_f " << out_f << " in_f " << in_f;
            EXPECT_EQ(a.normal(), b.normal());
        }
}

TEST(Matmul, Identity)
{
    Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
    Tensor eye({2, 2}, std::vector<float>{1, 0, 0, 1});
    EXPECT_TRUE(matmul(a, eye).allClose(a));
    EXPECT_TRUE(matmul(eye, a).allClose(a));
}

TEST(Matmul, HandComputed)
{
    Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(Matmul, AgreesWithLinear)
{
    // x W^T computed both ways.
    Rng rng(4);
    Tensor x = Tensor::randn({3, 8}, rng);
    Tensor w = Tensor::randn({5, 8}, rng);
    Tensor wt({8, 5});
    for (int64_t i = 0; i < 5; ++i)
        for (int64_t j = 0; j < 8; ++j)
            wt.at2(j, i) = w.at2(i, j);
    EXPECT_TRUE(matmul(x, wt).allClose(linear(x, w, Tensor{}), 1e-4f));
}

TEST(Bmm, MatchesPerBatchMatmul)
{
    Rng rng(6);
    Tensor a = Tensor::randn({3, 4, 5}, rng);
    Tensor b = Tensor::randn({3, 5, 2}, rng);
    Tensor c = bmm(a, b);
    EXPECT_EQ(c.shape(), (Shape{3, 4, 2}));
    for (int64_t bb = 0; bb < 3; ++bb) {
        Tensor a2({4, 5});
        Tensor b2({5, 2});
        for (int64_t i = 0; i < 20; ++i)
            a2[i] = a[bb * 20 + i];
        for (int64_t i = 0; i < 10; ++i)
            b2[i] = b[bb * 10 + i];
        Tensor c2 = matmul(a2, b2);
        for (int64_t i = 0; i < 8; ++i)
            EXPECT_NEAR(c[bb * 8 + i], c2[i], 1e-4f);
    }
}

TEST(Attention, UniformWhenQueryIsZero)
{
    // Zero queries give uniform attention: output = mean of V.
    Tensor q({1, 2, 4}, 0.0f);
    Rng rng(9);
    Tensor k = Tensor::randn({1, 3, 4}, rng);
    Tensor v = Tensor::randn({1, 3, 4}, rng);
    Tensor out = attention(q, k, v, 1);
    for (int64_t d = 0; d < 4; ++d) {
        float mean = 0.0f;
        for (int64_t j = 0; j < 3; ++j)
            mean += v.at3(0, j, d);
        mean /= 3.0f;
        EXPECT_NEAR(out.at3(0, 0, d), mean, 1e-4f);
        EXPECT_NEAR(out.at3(0, 1, d), mean, 1e-4f);
    }
}

TEST(Attention, SharpSelectionPicksMatchingValue)
{
    // With a huge matching key, attention selects that value row.
    Tensor q({1, 1, 2}, std::vector<float>{50.0f, 0.0f});
    Tensor k({1, 2, 2}, std::vector<float>{1.0f, 0.0f, -1.0f, 0.0f});
    Tensor v({1, 2, 2}, std::vector<float>{7.0f, 8.0f, -3.0f, -4.0f});
    Tensor out = attention(q, k, v, 1);
    EXPECT_NEAR(out.at3(0, 0, 0), 7.0f, 1e-3f);
    EXPECT_NEAR(out.at3(0, 0, 1), 8.0f, 1e-3f);
}

TEST(Attention, MultiHeadPartitionsChannels)
{
    // With 2 heads, head 0 only mixes dims [0, dh) of V.
    Rng rng(10);
    Tensor q = Tensor::randn({1, 4, 8}, rng);
    Tensor k = Tensor::randn({1, 4, 8}, rng);
    Tensor v = Tensor::randn({1, 4, 8}, rng);
    Tensor out2 = attention(q, k, v, 2);

    // Changing V in head-1 channels must not affect head-0 outputs.
    Tensor v2 = v;
    for (int64_t j = 0; j < 4; ++j)
        for (int64_t d = 4; d < 8; ++d)
            v2.at3(0, j, d) += 100.0f;
    Tensor out2b = attention(q, k, v2, 2);
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t d = 0; d < 4; ++d)
            EXPECT_NEAR(out2.at3(0, i, d), out2b.at3(0, i, d), 1e-4f);
}

TEST(Attention, CrossAttentionLengths)
{
    Rng rng(12);
    Tensor q = Tensor::randn({2, 5, 8}, rng);
    Tensor k = Tensor::randn({2, 9, 8}, rng);
    Tensor v = Tensor::randn({2, 9, 8}, rng);
    Tensor out = attention(q, k, v, 4);
    EXPECT_EQ(out.shape(), (Shape{2, 5, 8}));
}

TEST(Attention, HeadDivisibilityPanics)
{
    Tensor q({1, 2, 6});
    EXPECT_DEATH(attention(q, q, q, 4), "divisible");
}

// ---------------------------------------------------------------------
// GEMM-driver parity: linear, attentionScores and attentionContext run
// on the shared blocked GEMM and must be memcmp-identical to the scalar
// loops they replaced (copied below as oracles) for every available
// ISA, at 1 and 4 pool threads, including the shapes that used to take
// a separate scalar path and inputs holding -0.0, NaN and +-Inf.
// ---------------------------------------------------------------------

/** The seed linear loop: y[r][o] = b[o] + sum_i x[r][i] * W[o][i]. */
Tensor
linearOracle(const Tensor &x, const Tensor &w, const Tensor &b)
{
    const int64_t in_f = w.dim(1);
    const int64_t out_f = w.dim(0);
    const int64_t rows = x.numel() / in_f;
    Shape shape = x.shape();
    shape.back() = out_f;
    Tensor y(shape);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t o = 0; o < out_f; ++o) {
            float acc = b.numel() ? b[o] : 0.0f;
            for (int64_t i = 0; i < in_f; ++i)
                acc += x[r * in_f + i] * w[o * in_f + i];
            y[r * out_f + o] = acc;
        }
    return y;
}

/** The seed executor AttentionScore loop. */
Tensor
scoresOracle(const Tensor &q, const Tensor &k, int64_t heads)
{
    const int64_t n = q.dim(0);
    const int64_t lq = q.dim(1);
    const int64_t lkv = k.dim(1);
    const int64_t dh = q.dim(2) / heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    Tensor out({n, heads, lq, lkv});
    for (int64_t nn = 0; nn < n; ++nn)
        for (int64_t hh = 0; hh < heads; ++hh)
            for (int64_t i = 0; i < lq; ++i)
                for (int64_t j = 0; j < lkv; ++j) {
                    float dot = 0.0f;
                    for (int64_t d = 0; d < dh; ++d)
                        dot += q.at3(nn, i, hh * dh + d) *
                               k.at3(nn, j, hh * dh + d);
                    out.at4(nn, hh, i, j) = dot * scale;
                }
    return out;
}

/** The seed executor AttentionContext loop. */
Tensor
contextOracle(const Tensor &s, const Tensor &v)
{
    const int64_t n = s.dim(0);
    const int64_t heads = s.dim(1);
    const int64_t lq = s.dim(2);
    const int64_t lkv = s.dim(3);
    const int64_t c = v.dim(2);
    const int64_t dh = c / heads;
    Tensor out({n, lq, c});
    for (int64_t nn = 0; nn < n; ++nn)
        for (int64_t hh = 0; hh < heads; ++hh)
            for (int64_t i = 0; i < lq; ++i)
                for (int64_t d = 0; d < dh; ++d) {
                    float acc = 0.0f;
                    for (int64_t j = 0; j < lkv; ++j)
                        acc += s.at4(nn, hh, i, j) *
                               v.at3(nn, j, hh * dh + d);
                    out.at3(nn, i, hh * dh + d) = acc;
                }
    return out;
}

class GemmParityTest : public PoolThreadsTest
{
};

TEST_P(GemmParityTest, LinearMatchesScalarLoop)
{
    struct Case
    {
        Shape x;
        int64_t out_f;
        bool bias;
    };
    // Rows 1-3 and out_f < 8 (the old scalar fork), in_f off every
    // vector width, batched (N, L, C) rows, an empty bias, a shape
    // wide enough for full tiles and several column blocks, in_f
    // past the GEMM driver's accumulation chunk, and SegFormer-B2's
    // shapes at 96x96 (2048-wide outputs, in_f of 1280 and 2048 over
    // several chunks, 9-row tiles, more rows than one task's block).
    std::vector<Case> cases = {
        {{1, 13}, 5, true},       {{2, 13}, 7, true},
        {{3, 37}, 3, false},      {{1, 1, 64}, 8, true},
        {{4, 9}, 17, true},       {{2, 7, 13}, 19, false},
        {{3, 5, 24}, 17, true},   {{300, 33}, 21, true},
        {{9, 67}, 130, true},     {{2, kGemmChunkLen - 1}, 9, true},
        {{5, kGemmChunkLen}, 11, false},
        {{3, kGemmChunkLen + 1}, 7, false},
        {{40, 2 * kGemmChunkLen + 3}, 13, true},
        {{1, 9, 512}, 2048, true},  {{1, 9, 2048}, 512, true},
        {{1, 36, 320}, 1280, true}, {{1, 36, 1280}, 320, true},
        {{1, 576, 64}, 768, true},
    };
    // Panel tails (out_f off and on 32) under every tile row tail.
    for (int64_t rows = 1; rows <= 13; ++rows)
        for (int64_t out_f : {8, 16, 24, 31, 32, 33, 65})
            cases.push_back({{rows, 19}, out_f, rows % 2 == 1});
    Rng rng(71);
    for (const Case &tc : cases) {
        const int64_t in_f = tc.x.back();
        Tensor x = Tensor::randn(tc.x, rng);
        Tensor w = Tensor::randn({tc.out_f, in_f}, rng);
        Tensor b = tc.bias ? Tensor::randn({tc.out_f}, rng) : Tensor{};
        const Tensor panels = packLinearWeight(w);
        const Tensor want = linearOracle(x, w, b);
        for (IsaLevel isa : availableIsas()) {
            EXPECT_TRUE(bitIdentical(want, linear(x, w, b, kernelsFor(isa))))
                << "x " << shapeToString(tc.x) << " out_f " << tc.out_f
                << " isa " << isaName(isa);
            EXPECT_TRUE(bitIdentical(
                want, linear(x, panels, tc.out_f, b, kernelsFor(isa))))
                << "packed, x " << shapeToString(tc.x) << " out_f "
                << tc.out_f << " isa " << isaName(isa);
        }
        EXPECT_TRUE(bitIdentical(want, linear(x, w, b)));
        EXPECT_TRUE(bitIdentical(want, linear(x, panels, tc.out_f, b)));
    }
}

TEST_P(GemmParityTest, LinearSpecialValuesMatchScalarLoop)
{
    // Specials in X, then in X and W, through both entries; out_f 9
    // and 37 leave a panel tail.
    Rng rng(73);
    for (const NanFlavor &f : nanFlavors())
        for (const Shape &xs : {Shape{1, 11}, Shape{3, 11}, Shape{2, 6, 11},
                                Shape{40, 11}, Shape{60, 11}})
            for (int64_t out_f : {9, 37})
                for (bool specials_in_w : {false, true}) {
                    Tensor x = Tensor::randn(xs, rng);
                    Tensor w = Tensor::randn({out_f, 11}, rng);
                    Tensor b = Tensor::randn({out_f}, rng);
                    addSpecials(x, f.nan);
                    if (specials_in_w)
                        addSpecials(w, f.nan);
                    w[5] = -0.0f;
                    b[2] = -0.0f;
                    const Tensor panels = packLinearWeight(w);
                    const Tensor want = linearOracle(x, w, b);
                    for (IsaLevel isa : availableIsas()) {
                        const Microkernels &mk = kernelsFor(isa);
                        EXPECT_TRUE(bitIdentical(want, linear(x, w, b, mk),
                                                 f.nanBits))
                            << "x " << shapeToString(xs) << " out_f "
                            << out_f << " isa " << isaName(isa)
                            << " nan bits " << f.nanBits;
                        EXPECT_TRUE(bitIdentical(
                            want, linear(x, panels, out_f, b, mk),
                            f.nanBits))
                            << "packed, x " << shapeToString(xs)
                            << " out_f " << out_f << " isa " << isaName(isa)
                            << " nan bits " << f.nanBits;
                    }
                }
}

struct AttnCase
{
    int64_t n, lq, lkv, c, heads;
};

// dh = c / heads and lkv off every vector width, lkv = 1, several
// heads, batch n > 1, and one head wide enough for full GEMM tiles.
const AttnCase kAttnCases[] = {
    {1, 5, 1, 8, 2},   {1, 9, 3, 15, 3},  {2, 7, 9, 10, 2},
    {2, 17, 13, 12, 4}, {1, 40, 9, 64, 1}, {1, 6, 37, 20, 5},
};

TEST_P(GemmParityTest, AttentionScoresMatchScalarLoop)
{
    Rng rng(79);
    for (const AttnCase &tc : kAttnCases) {
        Tensor q = Tensor::randn({tc.n, tc.lq, tc.c}, rng);
        Tensor k = Tensor::randn({tc.n, tc.lkv, tc.c}, rng);
        const Tensor want = scoresOracle(q, k, tc.heads);
        for (IsaLevel isa : availableIsas())
            EXPECT_TRUE(bitIdentical(
                want, attentionScores(q, k, tc.heads, kernelsFor(isa))))
                << "lq " << tc.lq << " lkv " << tc.lkv << " c " << tc.c
                << " heads " << tc.heads << " isa " << isaName(isa);
        EXPECT_TRUE(bitIdentical(want, attentionScores(q, k, tc.heads)));

        for (const NanFlavor &f : nanFlavors()) {
            Tensor qs = q;
            addSpecials(qs, f.nan);
            k[1] = -0.0f;
            const Tensor want_sp = scoresOracle(qs, k, tc.heads);
            for (IsaLevel isa : availableIsas())
                EXPECT_TRUE(bitIdentical(
                    want_sp,
                    attentionScores(qs, k, tc.heads, kernelsFor(isa)),
                    f.nanBits))
                    << "specials, lq " << tc.lq << " isa " << isaName(isa)
                    << " nan bits " << f.nanBits;
        }
    }
}

TEST_P(GemmParityTest, AttentionContextMatchesScalarLoop)
{
    Rng rng(83);
    for (const AttnCase &tc : kAttnCases) {
        Tensor s = Tensor::randn({tc.n, tc.heads, tc.lq, tc.lkv}, rng);
        Tensor v = Tensor::randn({tc.n, tc.lkv, tc.c}, rng);
        const Tensor want = contextOracle(s, v);
        for (IsaLevel isa : availableIsas())
            EXPECT_TRUE(
                bitIdentical(want, attentionContext(s, v, kernelsFor(isa))))
                << "lq " << tc.lq << " lkv " << tc.lkv << " c " << tc.c
                << " heads " << tc.heads << " isa " << isaName(isa);
        EXPECT_TRUE(bitIdentical(want, attentionContext(s, v)));

        for (const NanFlavor &f : nanFlavors()) {
            Tensor vs = v;
            addSpecials(vs, f.nan);
            s[2] = -0.0f;
            const Tensor want_sp = contextOracle(s, vs);
            for (IsaLevel isa : availableIsas())
                EXPECT_TRUE(bitIdentical(
                    want_sp, attentionContext(s, vs, kernelsFor(isa)),
                    f.nanBits))
                    << "specials, lq " << tc.lq << " isa " << isaName(isa)
                    << " nan bits " << f.nanBits;
        }
    }
}

TEST(GemmOps, AttentionScoresHeadDivisibilityPanics)
{
    Tensor q({1, 2, 6});
    EXPECT_DEATH(attentionScores(q, q, 4), "divisible");
}

INSTANTIATE_TEST_SUITE_P(Threads, GemmParityTest, ::testing::Values(1, 4));

} // namespace
} // namespace vitdyn
