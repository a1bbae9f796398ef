/**
 * @file
 * Tests of the lint-gated pass framework (graph/passes/): the fusion/
 * folding/DCE/in-place battery, the PassManager's transactional lint
 * gates, and the bit-identity contract of fused execution.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "analysis/lint.hh"
#include "graph/executor.hh"
#include "graph/passes/pass.hh"
#include "graph/passes/passes.hh"
#include "graph/weight_store.hh"
#include "models/resnet.hh"
#include "models/segformer.hh"
#include "obs/metrics.hh"
#include "util/random.hh"
#include "util/threadpool.hh"

namespace vitdyn
{
namespace
{

Layer
conv(const std::string &name, int input, int64_t c_in, int64_t c_out)
{
    Layer l;
    l.name = name;
    l.kind = LayerKind::Conv2d;
    l.attrs.inChannels = c_in;
    l.attrs.outChannels = c_out;
    l.inputs = {input};
    return l;
}

Layer
batchnorm(const std::string &name, int input, int64_t channels)
{
    Layer l;
    l.name = name;
    l.kind = LayerKind::BatchNorm;
    l.attrs.inChannels = channels;
    l.inputs = {input};
    return l;
}

Layer
unary(const std::string &name, LayerKind kind, int input)
{
    Layer l;
    l.name = name;
    l.kind = kind;
    l.inputs = {input};
    return l;
}

/** input -> conv -> BN -> ReLU -> head conv (output). */
Graph
convBnReluGraph()
{
    Graph g("chain");
    const int in = g.addInput("input", {1, 4, 8, 8});
    const int c = g.addLayer(conv("conv", in, 4, 6));
    const int b = g.addLayer(batchnorm("bn", c, 6));
    const int r = g.addLayer(unary("relu", LayerKind::ReLU, b));
    g.markOutput(g.addLayer(conv("head", r, 6, 3)));
    return g;
}

TEST(FuseConvBnAct, FusesChainAndConservesAccounting)
{
    Graph g = convBnReluGraph();
    const int64_t flops_before = g.totalFlops();
    const int64_t params_before = g.totalParams();

    PassManager pipeline = PassManager::standardPipeline();
    Result<PipelineReport> report = pipeline.run(g);
    ASSERT_TRUE(report) << report.status().message();

    // conv+BN+ReLU collapsed into the conv: 5 layers -> 3.
    EXPECT_EQ(g.numLayers(), 3u);
    const int cid = g.findLayer("conv");
    ASSERT_GE(cid, 0);
    const Layer &fused = g.layer(cid);
    EXPECT_TRUE(fused.fused.bn);
    EXPECT_EQ(fused.fused.bnName, "bn");
    EXPECT_EQ(fused.fused.activation, LayerKind::ReLU);

    // The fused layer absorbs the accounting of the layers it
    // replaced — graph totals are pipeline invariants.
    EXPECT_EQ(g.totalFlops(), flops_before);
    EXPECT_EQ(g.totalParams(), params_before);

    // The gate already proved this; assert it stays true at rest.
    EXPECT_FALSE(lintGraph(g).hasErrors()) << lintGraph(g).toText();
}

TEST(FuseConvBnAct, SecondRunIsIdempotent)
{
    Graph g = convBnReluGraph();
    PassManager pipeline = PassManager::standardPipeline();
    ASSERT_TRUE(pipeline.run(g));
    const std::string once = g.toString();

    Result<PipelineReport> again = pipeline.run(g);
    ASSERT_TRUE(again) << again.status().message();
    EXPECT_EQ(again.value().totalRewrites(), 0);
    EXPECT_EQ(g.toString(), once);
}

TEST(FuseConvBnAct, MultiConsumerIntermediateBlocksThatHop)
{
    // conv feeds BN and a second consumer: the conv -> BN hop is not
    // a sole-consumer edge, so nothing about the conv may fuse.
    Graph g("m");
    const int in = g.addInput("input", {1, 4, 8, 8});
    const int c = g.addLayer(conv("conv", in, 4, 6));
    const int b = g.addLayer(batchnorm("bn", c, 6));
    const int side = g.addLayer(unary("side", LayerKind::GELU, c));
    Layer add;
    add.name = "join";
    add.kind = LayerKind::Add;
    add.inputs = {b, side};
    g.markOutput(g.addLayer(add));

    PassManager pipeline = PassManager::standardPipeline();
    ASSERT_TRUE(pipeline.run(g));
    EXPECT_FALSE(g.layer(g.findLayer("conv")).fused.any());
    EXPECT_GE(g.findLayer("bn"), 0);
}

TEST(FuseConvBnAct, BnWithSeveralReadersStillFoldsIntoConv)
{
    // The BN itself has two consumers — that only stops extending the
    // chain past the BN, not folding the BN into the conv; both
    // readers are rewired onto the fused conv.
    Graph g("m");
    const int in = g.addInput("input", {1, 4, 8, 8});
    const int c = g.addLayer(conv("conv", in, 4, 6));
    const int b = g.addLayer(batchnorm("bn", c, 6));
    const int r1 = g.addLayer(unary("relu1", LayerKind::ReLU, b));
    const int r2 = g.addLayer(unary("relu2", LayerKind::ReLU, b));
    Layer add;
    add.name = "join";
    add.kind = LayerKind::Add;
    add.inputs = {r1, r2};
    g.markOutput(g.addLayer(add));

    PassManager pipeline = PassManager::standardPipeline();
    ASSERT_TRUE(pipeline.run(g));
    const Layer &fused = g.layer(g.findLayer("conv"));
    EXPECT_TRUE(fused.fused.bn);
    EXPECT_EQ(fused.fused.activation, LayerKind::Identity);
    EXPECT_EQ(g.findLayer("bn"), -1);
    for (const char *name : {"relu1", "relu2"})
        EXPECT_EQ(g.layer(g.findLayer(name)).inputs[0],
                  g.findLayer("conv"));
}

TEST(FuseConvBnAct, GraphOutputTailIsNeverAbsorbed)
{
    // The ReLU is the graph output: absorbing it would change what
    // the graph publishes, so the chain must stop before it.
    Graph g("m");
    const int in = g.addInput("input", {1, 4, 8, 8});
    const int c = g.addLayer(conv("conv", in, 4, 6));
    const int b = g.addLayer(batchnorm("bn", c, 6));
    g.markOutput(g.addLayer(unary("relu", LayerKind::ReLU, b)));

    PassManager pipeline = PassManager::standardPipeline();
    ASSERT_TRUE(pipeline.run(g));
    const Layer &fused = g.layer(g.findLayer("conv"));
    // BN folds (sole consumer, not an output); the output ReLU stays.
    EXPECT_TRUE(fused.fused.bn);
    EXPECT_EQ(fused.fused.activation, LayerKind::Identity);
    EXPECT_GE(g.findLayer("relu"), 0);
}

/** A small SegFormer: the real model structure at a test-sized cost. */
Graph
tinySegformer()
{
    SegformerConfig cfg;
    cfg.name = "segformer_tiny_test";
    cfg.imageH = cfg.imageW = 64;
    cfg.numClasses = 6;
    cfg.embedDims = {8, 16, 24, 32};
    cfg.depths = {2, 2, 2, 2};
    cfg.numHeads = {1, 2, 3, 4};
    cfg.decoderDim = 32;
    return buildSegformer(cfg);
}

TEST(FuseConvBnAct, FusedExecutionBitIdenticalAtAnyThreadCount)
{
    const int restore = ThreadPool::instance().threads();
    for (const Graph &unfused : {convBnReluGraph(), tinySegformer()}) {
        Graph fused = unfused;
        PassManager pipeline = PassManager::standardPipeline();
        ASSERT_TRUE(pipeline.run(fused)) << unfused.name();
        EXPECT_LT(fused.numLayers(), unfused.numLayers())
            << unfused.name();

        WeightStore store;
        Executor ex_unfused(unfused, 7, &store);
        Executor ex_fused(fused, 7, &store);

        Rng rng(3);
        const Tensor x = Tensor::randn(
            unfused.layer(unfused.inputs()[0]).outShape, rng);
        for (int threads : {1, 4}) {
            ThreadPool::instance().resize(threads);
            Tensor a = ex_unfused.runSimple(x);
            Tensor b = ex_fused.runSimple(x);
            ASSERT_EQ(a.shape(), b.shape());
            EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                  sizeof(float) * a.numel()),
                      0)
                << unfused.name() << " fused output diverged at "
                << threads << " threads";
        }
    }
    ThreadPool::instance().resize(restore);
}

TEST(FoldConstants, DegenerateLayersCollapseAndOutputsMatch)
{
    auto build = [] {
        Graph g("m");
        const int in = g.addInput("input", {1, 4, 8, 8});
        Layer pool;
        pool.name = "unit_pool";
        pool.kind = LayerKind::MaxPool;
        pool.inputs = {in};
        const int p = g.addLayer(pool);
        Layer resize;
        resize.name = "same_size";
        resize.kind = LayerKind::Interpolate;
        resize.attrs.outH = 8;
        resize.attrs.outW = 8;
        resize.inputs = {p};
        const int r = g.addLayer(resize);
        Layer cat;
        cat.name = "lone_concat";
        cat.kind = LayerKind::Concat;
        cat.attrs.outChannels = 4;
        cat.inputs = {r};
        const int cc = g.addLayer(cat);
        g.markOutput(g.addLayer(conv("head", cc, 4, 2)));
        return g;
    };

    Graph plain = build();
    Graph folded = build();
    PassManager pipeline = PassManager::standardPipeline();
    Result<PipelineReport> report = pipeline.run(folded);
    ASSERT_TRUE(report) << report.status().message();

    // All three no-ops vanish; the head reads the input directly.
    EXPECT_EQ(folded.numLayers(), 2u);
    EXPECT_EQ(folded.layer(folded.findLayer("head")).inputs[0],
              folded.findLayer("input"));

    WeightStore store;
    Executor ex_plain(plain, 5, &store);
    Executor ex_folded(folded, 5, &store);
    Rng rng(11);
    const Tensor x = Tensor::randn({1, 4, 8, 8}, rng);
    Tensor a = ex_plain.run({{"input", x}}).at("head");
    Tensor b = ex_folded.run({{"input", x}}).at("head");
    EXPECT_EQ(
        std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()), 0);
}

TEST(DeadLayerElim, DropsUnreachableButKeepsSanctioned)
{
    Graph g("m");
    const int in = g.addInput("input", {1, 4, 8, 8});
    g.addLayer(conv("junk", in, 4, 6));
    g.addLayer(conv("cost_only_proxy", in, 4, 6));
    g.markOutput(g.addLayer(conv("head", in, 4, 2)));

    PassOptions options;
    // The suppression both silences the unreachable-layer lint and
    // shields the layer from elimination.
    options.lint.suppressions = {{"graph.unreachable", "cost_only"}};
    PassManager pipeline = PassManager::standardPipeline(options);
    Result<PipelineReport> report = pipeline.run(g);
    ASSERT_TRUE(report) << report.status().message();

    EXPECT_EQ(g.findLayer("junk"), -1);
    EXPECT_GE(g.findLayer("cost_only_proxy"), 0);
    EXPECT_GE(g.findLayer("head"), 0);
    int dce = 0;
    for (const PassStats &stats : report.value().passes)
        if (stats.pass == "dead-layer-elim")
            dce = stats.rewrites;
    EXPECT_EQ(dce, 1);
}

TEST(InplacePriority, AnnotatesSoleConsumerElementwise)
{
    Graph g("m");
    const int in = g.addInput("input", {1, 4, 8, 8});
    const int c = g.addLayer(conv("conv", in, 4, 6));
    const int r = g.addLayer(unary("gelu", LayerKind::GELU, c));
    Layer add;
    add.name = "self_add";
    add.kind = LayerKind::Add;
    add.inputs = {r, r};
    g.markOutput(g.addLayer(add));

    // Run only the annotation pass: the fusion pass would otherwise
    // absorb the GELU into the conv first.
    PassManager pipeline;
    ASSERT_TRUE(pipeline.addByName("inplace-priority"));
    Result<PipelineReport> report = pipeline.run(g);
    ASSERT_TRUE(report) << report.status().message();
    EXPECT_EQ(report.value().totalRewrites(), 2);
    EXPECT_GT(g.layer(g.findLayer("gelu")).inplacePriority, 0);
    // Add(x, x) consumes its producer twice but from one layer, so it
    // still qualifies.
    EXPECT_GT(g.layer(g.findLayer("self_add")).inplacePriority, 0);
}

TEST(InplacePriority, ExecutorReusesBuffersAndStaysBitIdentical)
{
    auto build = [] {
        // Small input, wide intermediates: the unfused peak is two
        // coexisting wide tensors (producer + fresh output), the
        // in-place peak only ever holds one wide tensor plus the
        // narrow input.
        Graph g("m");
        const int in = g.addInput("input", {1, 2, 16, 16});
        const int c = g.addLayer(conv("conv", in, 2, 8));
        const int b = g.addLayer(batchnorm("bn", c, 8));
        const int r = g.addLayer(unary("gelu", LayerKind::GELU, b));
        Layer add;
        add.name = "residual";
        add.kind = LayerKind::Add;
        add.inputs = {r, r};
        g.markOutput(g.addLayer(add));
        return g;
    };

    Graph plain = build();
    Graph annotated = build();
    PassManager pipeline;
    ASSERT_TRUE(pipeline.addByName("inplace-priority"));
    ASSERT_TRUE(pipeline.run(annotated));

    WeightStore store;
    Executor ex_plain(plain, 9, &store);
    Executor ex_annotated(annotated, 9, &store);
    Rng rng(13);
    const Tensor x = Tensor::randn({1, 2, 16, 16}, rng);

    Counter &reuses =
        MetricsRegistry::instance().counter("executor.inplace_reuses");
    const uint64_t reuses_before = reuses.value();
    Tensor a = ex_plain.run({{"input", x}}).at("residual");
    EXPECT_EQ(reuses.value(), reuses_before);
    Tensor b = ex_annotated.run({{"input", x}}).at("residual");
    EXPECT_GE(reuses.value(), reuses_before + 3u);

    EXPECT_EQ(
        std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()), 0);
    // Every elementwise step overwrote its producer instead of
    // allocating: peak live activation memory must shrink.
    EXPECT_LT(ex_annotated.lastRunStats().peakLiveBytes,
              ex_plain.lastRunStats().peakLiveBytes);
}

/** A pass that corrupts the graph and claims success. */
class VandalPass : public Pass
{
  public:
    VandalPass()
        : Pass("vandal")
    {
    }

    Result<int> run(Graph &graph, const PassOptions &) const override
    {
        // Lie about a shape: the lint shape-flow cross-check re-derives
        // every stored shape, so this cannot slip through the gate.
        graph.layer(static_cast<int>(graph.numLayers()) - 1)
            .outShape[1] += 1;
        return 1;
    }
};

TEST(PassManager, LintGateRejectsCorruptingPassAndKeepsGraph)
{
    Graph g = convBnReluGraph();
    const std::string before = g.toString();

    PassManager pipeline;
    pipeline.add(std::make_unique<VandalPass>());
    Result<PipelineReport> report = pipeline.run(g);
    ASSERT_FALSE(report);
    EXPECT_NE(report.status().message().find("vandal"),
              std::string::npos)
        << report.status().message();
    EXPECT_EQ(g.toString(), before);
}

TEST(PassManager, RejectsGraphThatArrivesBroken)
{
    Graph g = convBnReluGraph();
    g.layer(g.findLayer("head")).outShape[1] += 1;

    PassManager pipeline = PassManager::standardPipeline();
    Result<PipelineReport> report = pipeline.run(g);
    ASSERT_FALSE(report);
    EXPECT_NE(report.status().message().find("input graph"),
              std::string::npos)
        << report.status().message();
}

TEST(PassManager, AddByNameRejectsUnknown)
{
    PassManager pipeline;
    Status added = pipeline.addByName("no-such-pass");
    EXPECT_FALSE(added);
    EXPECT_EQ(pipeline.numPasses(), 0u);

    for (const std::string &name : registeredPassNames())
        EXPECT_TRUE(pipeline.addByName(name));
    EXPECT_EQ(pipeline.numPasses(), registeredPassNames().size());
    EXPECT_EQ(makePass("no-such-pass"), nullptr);
}

TEST(PassManager, RealModelsRewriteCleanWithInvariantTotals)
{
    struct Case
    {
        const char *name;
        Graph graph;
    };
    Case cases[] = {
        {"segformer_b0", buildSegformer(segformerB0Config())},
        {"resnet50", buildResnet(ResnetConfig{})},
    };
    for (Case &c : cases) {
        const int64_t flops = c.graph.totalFlops();
        const int64_t params = c.graph.totalParams();
        const size_t layers = c.graph.numLayers();
        PassManager pipeline = PassManager::standardPipeline();
        Result<PipelineReport> report = pipeline.run(c.graph);
        ASSERT_TRUE(report) << c.name << ": "
                            << report.status().message();
        EXPECT_GT(report.value().totalRewrites(), 0) << c.name;
        EXPECT_LT(c.graph.numLayers(), layers) << c.name;
        EXPECT_EQ(c.graph.totalFlops(), flops) << c.name;
        EXPECT_EQ(c.graph.totalParams(), params) << c.name;
        EXPECT_FALSE(lintGraph(c.graph).hasErrors()) << c.name;
    }
}

} // namespace
} // namespace vitdyn
