/** @file Property tests over randomly generated graphs: normalize
 * idempotence, executor/shape-inference agreement, surgery safety,
 * linter soundness (clean graphs execute, corrupted graphs are
 * flagged), and a conv-vs-im2col cross-check of the reference
 * kernels. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "analysis/lint.hh"
#include "analysis/liveness.hh"
#include "graph/executor.hh"
#include "graph/passes/pass.hh"
#include "graph/surgery.hh"
#include "tensor/ops.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

/**
 * Build a random single-input NCHW pipeline: conv / bn / relu / gelu
 * / pool / interpolate stages with residual side edges where shapes
 * allow. Deterministic per seed.
 */
Graph
randomPipeline(uint64_t seed)
{
    Rng rng(seed);
    Graph g("fuzz_" + std::to_string(seed));
    const int64_t c0 = 4 + 2 * rng.uniformInt(0, 4);
    int cur = g.addInput("x", {1, c0, 16, 16});
    int64_t channels = c0;
    Shape cur_shape = {1, c0, 16, 16};

    const int stages = static_cast<int>(rng.uniformInt(3, 9));
    for (int i = 0; i < stages; ++i) {
        const int kind = static_cast<int>(rng.uniformInt(0, 4));
        Layer l;
        l.name = "layer" + std::to_string(i);
        l.stage = "stage" + std::to_string(i % 3);
        l.inputs = {cur};
        switch (kind) {
          case 0: { // conv
            l.kind = LayerKind::Conv2d;
            l.attrs.inChannels = channels;
            l.attrs.outChannels = 4 + 4 * rng.uniformInt(0, 5);
            l.attrs.kernelH = l.attrs.kernelW =
                rng.uniform() < 0.5 ? 1 : 3;
            l.attrs.padH = l.attrs.padW = l.attrs.kernelH / 2;
            channels = l.attrs.outChannels;
            break;
          }
          case 1:
            l.kind = LayerKind::BatchNorm;
            l.attrs.inChannels = channels;
            break;
          case 2:
            l.kind = rng.uniform() < 0.5 ? LayerKind::ReLU
                                         : LayerKind::GELU;
            break;
          case 3:
            l.kind = LayerKind::Interpolate;
            l.attrs.outH = cur_shape[2];
            l.attrs.outW = cur_shape[3];
            break;
          case 4:
            l.kind = LayerKind::AvgPool;
            l.attrs.outH = cur_shape[2];
            l.attrs.outW = cur_shape[3];
            l.attrs.kernelH = l.attrs.kernelW = 1;
            break;
        }
        cur = g.addLayer(std::move(l));
        cur_shape = g.layer(cur).outShape;
    }
    g.markOutput(cur);
    return g;
}

class GraphFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(GraphFuzz, NormalizeIsIdempotent)
{
    Graph g = randomPipeline(GetParam());
    g.normalize();
    const std::string once = g.toString();
    g.normalize();
    EXPECT_EQ(g.toString(), once);
}

TEST_P(GraphFuzz, ExecutorMatchesInferredShapes)
{
    Graph g = randomPipeline(GetParam());
    Executor exec(g, GetParam());
    Rng rng(GetParam() + 1);
    const Shape &in = g.layer(g.inputs()[0]).outShape;
    Tensor out = exec.runSimple(Tensor::randn(in, rng));
    EXPECT_EQ(out.shape(), g.layer(g.outputs()[0]).outShape);
    EXPECT_TRUE(std::isfinite(out.sum()));
}

TEST_P(GraphFuzz, FlopsNonNegativeAndStable)
{
    Graph g = randomPipeline(GetParam());
    const int64_t flops = g.totalFlops();
    EXPECT_GE(flops, 0);
    g.recomputeShapes();
    EXPECT_EQ(g.totalFlops(), flops);
}

TEST_P(GraphFuzz, PruneLastConvStillRuns)
{
    Graph g = randomPipeline(GetParam());
    // Find the last conv with >4 input channels; prune it.
    int target = -1;
    for (const Layer &l : g.layers())
        if (l.kind == LayerKind::Conv2d && l.attrs.inChannels > 4 &&
            l.attrs.groups == 1)
            target = l.id;
    if (target < 0)
        GTEST_SKIP() << "no prunable conv in this pipeline";

    const std::string name = g.layer(target).name;
    const int64_t keep = g.layer(target).attrs.inChannels / 2;
    const int64_t saved = pruneInputChannels(g, name, keep);
    EXPECT_GE(saved, 0);

    Executor exec(g, GetParam());
    Rng rng(GetParam() + 2);
    const Shape &in = g.layer(g.inputs()[0]).outShape;
    Tensor out = exec.runSimple(Tensor::randn(in, rng));
    EXPECT_EQ(out.shape(), g.layer(g.outputs()[0]).outShape);
}

/** True when any finding carries the given check id. */
bool
flagged(const LintReport &report, const std::string &check)
{
    const auto &ds = report.diagnostics();
    return std::any_of(ds.begin(), ds.end(), [&](const Diagnostic &d) {
        return d.check == check;
    });
}

/** Linter-clean property: every generated pipeline passes the full
 *  battery, and a clean verdict implies the executor builds and runs
 *  to the inferred output shape. */
TEST_P(GraphFuzz, LinterCleanImpliesExecutable)
{
    Graph g = randomPipeline(GetParam());
    LintReport report = lintGraph(g);
    ASSERT_TRUE(report.clean()) << report.toText();

    Executor exec(g, GetParam());
    Rng rng(GetParam() + 3);
    const Shape &in = g.layer(g.inputs()[0]).outShape;
    Tensor out = exec.runSimple(Tensor::randn(in, rng));
    EXPECT_EQ(out.shape(), g.layer(g.outputs()[0]).outShape);
}

/** Surgery preserves lint-cleanliness: pruned graphs still pass. */
TEST_P(GraphFuzz, LinterCleanAfterPrune)
{
    Graph g = randomPipeline(GetParam());
    int target = -1;
    for (const Layer &l : g.layers())
        if (l.kind == LayerKind::Conv2d && l.attrs.inChannels > 4 &&
            l.attrs.groups == 1)
            target = l.id;
    if (target < 0)
        GTEST_SKIP() << "no prunable conv in this pipeline";

    const std::string name = g.layer(target).name;
    pruneInputChannels(g, name, g.layer(target).attrs.inChannels / 2);
    LintReport report = lintGraph(g);
    EXPECT_TRUE(report.clean()) << report.toText();
}

/** A corrupted stored shape must be caught by the independent
 *  re-derivation (the executor would read this shape for buffers). */
TEST_P(GraphFuzz, CorruptedShapeIsFlagged)
{
    Graph g = randomPipeline(GetParam());
    Layer &victim = g.layer(g.outputs()[0]);
    victim.outShape[1] += 1;
    LintReport report = lintGraph(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "shape.mismatch")) << report.toText();
}

/** A corrupted edge (dangling producer id) must be caught. */
TEST_P(GraphFuzz, CorruptedEdgeIsFlagged)
{
    Graph g = randomPipeline(GetParam());
    Layer &victim = g.layer(g.outputs()[0]);
    victim.inputs[0] = static_cast<int>(g.numLayers()) + 41;
    LintReport report = lintGraph(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "graph.dangling-input"))
        << report.toText();
}

/** Corrupted conv attributes (zero stride) must be caught. */
TEST_P(GraphFuzz, CorruptedAttrsAreFlagged)
{
    Graph g = randomPipeline(GetParam());
    int conv = -1;
    for (const Layer &l : g.layers())
        if (l.kind == LayerKind::Conv2d)
            conv = l.id;
    if (conv < 0)
        GTEST_SKIP() << "no conv in this pipeline";

    g.layer(conv).attrs.strideH = 0;
    LintReport report = lintGraph(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "attr.conv.stride")) << report.toText();
}

/** Pass-pipeline property: the standard pipeline leaves every
 *  generated graph lint-clean, conserves the flop/param totals, and
 *  the rewritten graph executes bit-identically to the original. */
TEST_P(GraphFuzz, PassPipelineLintCleanAndBitIdentical)
{
    Graph g = randomPipeline(GetParam());
    Graph rewritten = g;
    PassManager pipeline = PassManager::standardPipeline();
    Result<PipelineReport> report = pipeline.run(rewritten);
    ASSERT_TRUE(report) << report.status().message();
    ASSERT_TRUE(lintGraph(rewritten).clean())
        << lintGraph(rewritten).toText();
    // Fusion conserves the accounted flops exactly; folding a
    // degenerate layer (e.g. a same-size Interpolate) deletes its
    // useless work, so the total can only go down, never up.
    EXPECT_LE(rewritten.totalFlops(), g.totalFlops());
    EXPECT_EQ(rewritten.totalParams(), g.totalParams());

    // Same weight seed on both sides: fusion must not change a bit.
    Executor ref(g, GetParam());
    Executor fused(rewritten, GetParam());
    Rng rng(GetParam() + 7);
    Tensor x = Tensor::randn(g.layer(g.inputs()[0]).outShape, rng);
    Tensor a = ref.runSimple(x);
    Tensor b = fused.runSimple(x);
    ASSERT_EQ(a.shape(), b.shape());
    // Bitwise equality, except +0.0/-0.0 compare equal: folding a
    // degenerate AvgPool/Interpolate skips arithmetic that
    // canonicalizes -0.0 (0.0 + -0.0 == +0.0) — the one sign bit a
    // value-preserving rewrite may legitimately change.
    for (int64_t i = 0; i < a.numel(); ++i) {
        const float va = a.data()[i];
        const float vb = b.data()[i];
        if (std::memcmp(&va, &vb, sizeof(float)) != 0) {
            ASSERT_TRUE(va == 0.0f && vb == 0.0f)
                << "element " << i << ": " << va << " vs " << vb;
        }
    }
}

/** Pass-pipeline property: a second run finds nothing to rewrite and
 *  leaves the graph byte-identical. */
TEST_P(GraphFuzz, PassPipelineIsIdempotent)
{
    Graph g = randomPipeline(GetParam());
    PassManager pipeline = PassManager::standardPipeline();
    Result<PipelineReport> first = pipeline.run(g);
    ASSERT_TRUE(first) << first.status().message();
    const std::string once = g.toString();
    Result<PipelineReport> second = pipeline.run(g);
    ASSERT_TRUE(second) << second.status().message();
    EXPECT_EQ(second.value().totalRewrites(), 0);
    EXPECT_EQ(g.toString(), once);
}

/** Certification property: the executor's measured activation peak
 *  never exceeds the liveness analyzer's static bound — on the raw
 *  graph and on its pipeline-rewritten form (where in-place steals
 *  push the runtime peak below the no-steal model the bound uses). */
TEST_P(GraphFuzz, MeasuredPeakWithinCertifiedBound)
{
    Graph g = randomPipeline(GetParam());
    Rng rng(GetParam() + 3);
    Tensor x = Tensor::randn(g.layer(g.inputs()[0]).outShape, rng);

    Executor raw(g, GetParam());
    raw.runSimple(x);
    ASSERT_GT(raw.certifiedPeakBytes(), 0u);
    EXPECT_LE(raw.lastRunStats().peakLiveBytes,
              raw.certifiedPeakBytes());

    Graph rewritten = g;
    PassManager pipeline = PassManager::standardPipeline();
    ASSERT_TRUE(pipeline.run(rewritten));
    Executor fused(rewritten, GetParam());
    fused.runSimple(x);
    EXPECT_LE(fused.lastRunStats().peakLiveBytes,
              fused.certifiedPeakBytes());
}

/** Bound-invariance property: the standard pipeline only ever
 *  *removes* simultaneously-live bytes (fusion deletes intermediate
 *  activations; in-place annotation affects the planned arena, not
 *  liveness), so the analyzer's maxLiveBytes must not grow. The
 *  packed certified bound is kept out of this comparison on purpose:
 *  best-fit packing is a heuristic, and a smaller live set can
 *  fragment into a slightly larger arena — maxLiveBytes is the
 *  monotone quantity. The certified bound must still cover the live
 *  peak on both sides. */
TEST_P(GraphFuzz, PipelineNeverRaisesLiveBytes)
{
    Graph g = randomPipeline(GetParam());
    const analysis::LivenessInfo before = analysis::analyzeLiveness(g);
    EXPECT_GE(analysis::certifiedPeakBytes(g), before.maxLiveBytes);

    PassManager pipeline = PassManager::standardPipeline();
    Result<PipelineReport> report = pipeline.run(g);
    ASSERT_TRUE(report) << report.status().message();
    const analysis::LivenessInfo after = analysis::analyzeLiveness(g);
    EXPECT_LE(after.maxLiveBytes, before.maxLiveBytes);
    EXPECT_GE(analysis::certifiedPeakBytes(g), after.maxLiveBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz,
                         testing::Range<uint64_t>(1, 25));

/** conv2d must agree with an independent im2col + matmul oracle. */
class ConvOracle : public testing::TestWithParam<int> {};

TEST_P(ConvOracle, MatchesIm2colMatmul)
{
    Rng rng(1000 + GetParam());
    const int64_t c = 1 + rng.uniformInt(1, 6);
    const int64_t k = 1 + rng.uniformInt(1, 8);
    const int64_t h = 5 + rng.uniformInt(0, 6);
    const int64_t w = 5 + rng.uniformInt(0, 6);
    const int64_t r = rng.uniform() < 0.5 ? 1 : 3;
    const int64_t stride = 1 + rng.uniformInt(0, 1);
    const int64_t pad = r / 2;

    Tensor x = Tensor::randn({1, c, h, w}, rng);
    Tensor weight = Tensor::randn({k, c, r, r}, rng);
    Conv2dParams params;
    params.strideH = params.strideW = stride;
    params.padH = params.padW = pad;
    Tensor y = conv2d(x, weight, Tensor{}, params);

    // Oracle: im2col then a plain matmul.
    const int64_t p = convOutDim(h, r, stride, pad);
    const int64_t q = convOutDim(w, r, stride, pad);
    Tensor cols({p * q, c * r * r});
    for (int64_t op = 0; op < p; ++op)
        for (int64_t oq = 0; oq < q; ++oq)
            for (int64_t cc = 0; cc < c; ++cc)
                for (int64_t rr = 0; rr < r; ++rr)
                    for (int64_t ss = 0; ss < r; ++ss) {
                        const int64_t ih = op * stride - pad + rr;
                        const int64_t iw = oq * stride - pad + ss;
                        const float v =
                            (ih >= 0 && ih < h && iw >= 0 && iw < w)
                                ? x.at4(0, cc, ih, iw)
                                : 0.0f;
                        cols.at2(op * q + oq,
                                 (cc * r + rr) * r + ss) = v;
                    }
    Tensor wmat({c * r * r, k});
    for (int64_t kk = 0; kk < k; ++kk)
        for (int64_t i = 0; i < c * r * r; ++i)
            wmat.at2(i, kk) = weight[kk * c * r * r + i];
    Tensor oracle = matmul(cols, wmat); // (p*q, k)

    for (int64_t kk = 0; kk < k; ++kk)
        for (int64_t op = 0; op < p; ++op)
            for (int64_t oq = 0; oq < q; ++oq)
                ASSERT_NEAR(y.at4(0, kk, op, oq),
                            oracle.at2(op * q + oq, kk), 1e-3f)
                    << "k=" << kk << " p=" << op << " q=" << oq;
}

INSTANTIATE_TEST_SUITE_P(Random, ConvOracle, testing::Range(0, 16));

} // namespace
} // namespace vitdyn
