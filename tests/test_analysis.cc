/** @file Tests of the static-analysis subsystem (src/analysis/):
 * diagnostics plumbing, every lint check family with positive and
 * negative fixtures, the surgery pre-validators, LUT cross-checks
 * (including a stale-cost row caught by the FLOP oracle), and the
 * engines' lint gate (veto-and-keep-serving). */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>

#include "analysis/lint.hh"
#include "analysis/liveness.hh"
#include "analysis/lut_check.hh"
#include "analysis/memory_lint.hh"
#include "analysis/shape_check.hh"
#include "engine/engine.hh"
#include "engine/model_switching.hh"
#include "graph/executor.hh"
#include "graph/passes/pass.hh"
#include "graph/passes/passes.hh"
#include "graph/surgery.hh"
#include "obs/metrics.hh"
#include "resilience/accuracy_model.hh"
#include "resilience/config.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

bool
flagged(const LintReport &report, const std::string &check)
{
    const auto &ds = report.diagnostics();
    return std::any_of(ds.begin(), ds.end(), [&](const Diagnostic &d) {
        return d.check == check;
    });
}

/** Small but real conv pipeline: input -> conv -> bn -> relu. */
Graph
tinyConvNet()
{
    Graph g("tiny");
    int x = g.addInput("x", {1, 8, 8, 8});
    Layer conv;
    conv.name = "conv";
    conv.kind = LayerKind::Conv2d;
    conv.attrs.inChannels = 8;
    conv.attrs.outChannels = 16;
    conv.attrs.kernelH = conv.attrs.kernelW = 3;
    conv.attrs.padH = conv.attrs.padW = 1;
    conv.inputs = {x};
    int c = g.addLayer(std::move(conv));
    Layer bn;
    bn.name = "bn";
    bn.kind = LayerKind::BatchNorm;
    bn.attrs.inChannels = 16;
    bn.inputs = {c};
    int b = g.addLayer(std::move(bn));
    Layer relu;
    relu.name = "relu";
    relu.kind = LayerKind::ReLU;
    relu.inputs = {b};
    g.markOutput(g.addLayer(std::move(relu)));
    return g;
}

/** The engine-test SegFormer: small enough to execute in tests. */
SegformerConfig
tinyBase()
{
    SegformerConfig cfg;
    cfg.name = "segformer_tiny_lint";
    cfg.imageH = cfg.imageW = 64;
    cfg.numClasses = 6;
    cfg.embedDims = {8, 16, 24, 32};
    cfg.depths = {2, 2, 2, 2};
    cfg.numHeads = {1, 2, 3, 4};
    cfg.decoderDim = 32;
    return cfg;
}

double
flopCost(const Graph &g)
{
    return static_cast<double>(g.totalFlops());
}

// ---------------------------------------------------------------------
// Diagnostics plumbing.

TEST(Diagnostics, CountsAndCleanliness)
{
    LintReport report;
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.toStatus().isOk());

    report.addGraph(Severity::Info, "x.info", "advisory");
    EXPECT_TRUE(report.clean()); // Info does not dirty a report.
    report.addGraph(Severity::Warning, "x.warn", "suspicious");
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(report.hasErrors());
    report.add(Severity::Error, "x.err", 3, "layer3", "broken");
    EXPECT_TRUE(report.hasErrors());
    EXPECT_EQ(report.count(Severity::Info), 1u);
    EXPECT_EQ(report.count(Severity::Warning), 1u);
    EXPECT_EQ(report.count(Severity::Error), 1u);
}

TEST(Diagnostics, ToStatusCarriesFirstError)
{
    LintReport report;
    report.addGraph(Severity::Error, "a.first", "first problem");
    report.addGraph(Severity::Error, "a.second", "second problem");
    Status status = report.toStatus();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("a.first"), std::string::npos);
    EXPECT_NE(status.message().find("first problem"), std::string::npos);
    EXPECT_NE(status.message().find("1 more"), std::string::npos);
}

TEST(Diagnostics, CsvEscapesQuotesAndCommas)
{
    LintReport report;
    report.add(Severity::Warning, "x.csv", 1, "layer,one",
               "says \"hi\", twice");
    const std::string csv = report.toCsv();
    EXPECT_NE(csv.find("\"layer,one\""), std::string::npos);
    EXPECT_NE(csv.find("\"says \"\"hi\"\", twice\""), std::string::npos);
}

TEST(Diagnostics, MergeWithContextPrefixesMessages)
{
    LintReport inner;
    inner.addGraph(Severity::Error, "x.err", "boom");
    LintReport outer;
    outer.mergeWithContext(inner, "row 2 ('small')");
    ASSERT_EQ(outer.diagnostics().size(), 1u);
    EXPECT_NE(outer.diagnostics()[0].message.find("row 2 ('small')"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Structural checks.

TEST(GraphLint, CleanGraphPasses)
{
    LintReport report = lintGraph(tinyConvNet());
    EXPECT_TRUE(report.clean()) << report.toText();
}

TEST(GraphLint, EmptyGraphFlagged)
{
    Graph g("empty");
    EXPECT_TRUE(flagged(lintGraph(g), "graph.empty"));
}

TEST(GraphLint, MissingOutputsFlagged)
{
    Graph g("no_out");
    g.addInput("x", {1, 4, 4, 4});
    EXPECT_TRUE(flagged(lintGraph(g), "graph.no-outputs"));
}

TEST(GraphLint, DanglingInputFlagged)
{
    Graph g = tinyConvNet();
    g.layer(g.outputs()[0]).inputs[0] = 99;
    LintReport report = lintGraph(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "graph.dangling-input"));
}

TEST(GraphLint, ForwardInputFlagged)
{
    Graph g = tinyConvNet();
    // Make the conv (id 1) consume the relu (id 3): a forward edge.
    g.layer(1).inputs[0] = 3;
    LintReport report = lintGraph(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "graph.forward-input"));
    // The forward edge also closes a cycle conv -> bn -> relu -> conv.
    EXPECT_TRUE(flagged(report, "graph.cycle"));
}

TEST(GraphLint, UnreachableLayerIsWarning)
{
    Graph g = tinyConvNet();
    Layer side;
    side.name = "side";
    side.kind = LayerKind::ReLU;
    side.inputs = {0};
    g.addLayer(std::move(side));
    LintReport report = lintGraph(g);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "graph.unreachable"));
}

TEST(GraphLint, DuplicateNameSeverityIsConfigurable)
{
    Graph g = tinyConvNet();
    g.layer(2).name = "conv"; // Same name as layer 1: aliased weights.
    EXPECT_TRUE(flagged(lintGraph(g), "graph.duplicate-name"));
    EXPECT_FALSE(lintGraph(g).hasErrors());

    LintOptions strict;
    strict.duplicateNameSeverity = Severity::Error;
    EXPECT_TRUE(lintGraph(g, strict).hasErrors());
}

TEST(GraphLint, SuppressionDropsMatchingFinding)
{
    Graph g = tinyConvNet();
    Layer side;
    side.name = "cost_only.probe";
    side.kind = LayerKind::ReLU;
    side.inputs = {0};
    g.addLayer(std::move(side));

    LintOptions options;
    options.suppressions = {{"graph.unreachable", "cost_only"}};
    EXPECT_TRUE(lintGraph(g, options).clean());
    // The suppression is scoped: other layer names still flag.
    options.suppressions = {{"graph.unreachable", "other"}};
    EXPECT_FALSE(lintGraph(g, options).clean());
}

// ---------------------------------------------------------------------
// Attribute checks (fixtures mutate attrs after insertion, since
// addLayer() would reject them up front).

TEST(AttrLint, NonDividingGroupsFlagged)
{
    Graph g = tinyConvNet();
    g.layer(1).attrs.groups = 3; // Divides neither 8 nor 16.
    LintReport report = lintGraph(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "attr.conv.groups"));
}

TEST(AttrLint, ZeroStrideFlagged)
{
    Graph g = tinyConvNet();
    g.layer(1).attrs.strideW = 0;
    EXPECT_TRUE(flagged(lintGraph(g), "attr.conv.stride"));
}

TEST(AttrLint, NegativePadFlagged)
{
    Graph g = tinyConvNet();
    g.layer(1).attrs.padH = -1;
    EXPECT_TRUE(flagged(lintGraph(g), "attr.conv.pad"));
}

TEST(AttrLint, NonDividingHeadsFlagged)
{
    Graph g("attn");
    int x = g.addInput("tokens", {1, 16, 32});
    Layer score;
    score.name = "score";
    score.kind = LayerKind::AttentionScore;
    score.attrs.inFeatures = 32;
    score.attrs.numHeads = 4;
    score.inputs = {x, x};
    g.markOutput(g.addLayer(std::move(score)));
    EXPECT_TRUE(lintGraph(g).clean());

    g.layer(1).attrs.numHeads = 5; // 32 % 5 != 0.
    EXPECT_TRUE(flagged(lintGraph(g), "attr.attn.head-div"));
}

// ---------------------------------------------------------------------
// Shape flow: the independent re-derivation.

TEST(ShapeLint, CorruptedStoredShapeFlagged)
{
    Graph g = tinyConvNet();
    g.layer(1).outShape[1] = 17; // Conv out channels are 16.
    LintReport report = lintGraph(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "shape.mismatch"));
}

TEST(ShapeLint, DerivationMatchesBuilderOnRealModel)
{
    Graph g = buildSegformer(tinyBase());
    for (const Layer &layer : g.layers()) {
        if (layer.kind == LayerKind::Input)
            continue;
        std::vector<Shape> ins;
        for (int id : layer.inputs)
            ins.push_back(g.layer(id).outShape);
        Result<Shape> derived = analysis::deriveShape(layer, ins);
        ASSERT_TRUE(bool(derived)) << layer.name;
        EXPECT_EQ(derived.value(), layer.outShape) << layer.name;
    }
}

TEST(AcctLint, DerivationMatchesLayerMethodsOnRealModel)
{
    Graph g = buildSegformer(tinyBase());
    for (const Layer &layer : g.layers()) {
        EXPECT_EQ(analysis::deriveMacs(layer), layer.macs())
            << layer.name;
        EXPECT_EQ(analysis::deriveFlops(layer), layer.flops())
            << layer.name;
        EXPECT_EQ(analysis::deriveParams(layer), layer.paramCount())
            << layer.name;
    }
}

// ---------------------------------------------------------------------
// Surgery pre-validation: structured errors instead of aborts.

TEST(SurgeryValidate, UnknownLayerIsError)
{
    Graph g = tinyConvNet();
    Status status = validatePruneInputChannels(g, "nope", 4);
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("no layer named"),
              std::string::npos);
}

TEST(SurgeryValidate, ChannelMismatchIsErrorNotAbort)
{
    Graph g = buildSegformer(tinyBase());
    // 4 * decoderDim = 128 is the fuse width; 500 cannot fit.
    Status status =
        validatePruneInputChannels(g, "Conv2DFuse", 500);
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("bad channel count"),
              std::string::npos);

    Graph copy = buildSegformer(tinyBase());
    Result<int64_t> applied =
        tryPruneInputChannels(copy, "Conv2DFuse", 500);
    EXPECT_FALSE(bool(applied));
}

TEST(SurgeryValidate, ValidOpValidatesAndApplies)
{
    Graph g = buildSegformer(tinyBase());
    ASSERT_TRUE(
        validatePruneInputChannels(g, "Conv2DFuse", 64));
    Result<int64_t> applied =
        tryPruneInputChannels(g, "Conv2DFuse", 64);
    ASSERT_TRUE(bool(applied)) << applied.status().message();
    EXPECT_GT(applied.value(), 0);
    EXPECT_TRUE(lintGraph(g).clean());
}

TEST(SurgeryValidate, BypassUnknownTagIsError)
{
    Graph g = tinyConvNet();
    Status status = validateBypassBlock(g, "no_such_stage");
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("no layers tagged"),
              std::string::npos);
}

TEST(SurgeryValidate, BadDepthsConfigIsErrorNotAbort)
{
    PruneConfig bad;
    bad.label = "bad_depths";
    bad.depths = {9, 2, 2, 2}; // Stage 0 only has 2 blocks.
    Status status = validateSegformerPrune(tinyBase(), bad);
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("outside [1,"), std::string::npos);

    Result<Graph> built = tryApplySegformerPrune(tinyBase(), bad);
    EXPECT_FALSE(bool(built));
}

// ---------------------------------------------------------------------
// LUT cross-checks.

/** LUT points whose stored costs come from the real FLOP oracle. */
std::vector<TradeoffPoint>
honestPoints(const SegformerConfig &base)
{
    std::vector<PruneConfig> configs(2);
    configs[0].label = "full";
    configs[0].depths = {2, 2, 2, 2};
    configs[1].label = "small";
    configs[1].depths = {1, 1, 1, 1};
    configs[1].fuseInChannels = 64;

    const double full_flops = flopCost(buildSegformer(base));
    std::vector<TradeoffPoint> points;
    double miou = 1.0;
    for (const PruneConfig &config : configs) {
        TradeoffPoint p;
        p.config = config;
        p.absoluteUtil = flopCost(applySegformerPrune(base, config));
        p.normalizedUtil = p.absoluteUtil / full_flops;
        p.normalizedMiou = miou;
        miou -= 0.2;
        points.push_back(std::move(p));
    }
    return points;
}

TEST(LutCheck, HonestLutPassesWithCostOracle)
{
    AccuracyResourceLut lut(honestPoints(tinyBase()), "flops");
    LutCheckOptions options;
    options.cost = flopCost;
    LintReport report = checkLut(lut, ModelFamily::Segformer,
                                 tinyBase(), SwinConfig{}, options);
    EXPECT_TRUE(report.clean()) << report.toText();
}

TEST(LutCheck, StaleCostRowFlagged)
{
    auto points = honestPoints(tinyBase());
    // Stale row: stored cost halved, as if swept from older code.
    points[1].absoluteUtil *= 0.5;
    AccuracyResourceLut lut(points, "flops");
    LutCheckOptions options;
    options.cost = flopCost;
    LintReport report = checkLut(lut, ModelFamily::Segformer,
                                 tinyBase(), SwinConfig{}, options);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "lut.stale-cost")) << report.toText();
}

TEST(LutCheck, InfeasibleConfigRowFlagged)
{
    auto points = honestPoints(tinyBase());
    points[1].config.depths = {7, 7, 7, 7};
    AccuracyResourceLut lut(points, "flops");
    LintReport report = checkLut(lut, ModelFamily::Segformer,
                                 tinyBase(), SwinConfig{}, {});
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "lut.config")) << report.toText();
}

TEST(LutCheck, NormalizedCostDriftWarnsWithoutOracle)
{
    auto points = honestPoints(tinyBase());
    points[1].normalizedUtil = 0.01; // Way off the real FLOP ratio.
    AccuracyResourceLut lut(points, "flops");
    LintReport report = checkLut(lut, ModelFamily::Segformer,
                                 tinyBase(), SwinConfig{}, {});
    EXPECT_FALSE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "lut.flop-drift")) << report.toText();
}

TEST(LutCheck, EmptyLutFlagged)
{
    AccuracyResourceLut lut;
    LintReport report = checkLut(lut, ModelFamily::Segformer,
                                 tinyBase(), SwinConfig{}, {});
    EXPECT_TRUE(flagged(report, "lut.empty"));
}

// ---------------------------------------------------------------------
// Engine lint gate: veto the bad config, keep serving on the rest.

TEST(EngineLintGate, StaleLutRowIsVetoedAndEngineStillServes)
{
    auto points = honestPoints(tinyBase());
    points[1].absoluteUtil *= 0.5; // Stale FLOP entry for "small".
    AccuracyResourceLut lut(points, "flops");

    DrtEngineOptions options;
    options.prewarm = false;
    options.lint.cost = flopCost;
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     std::move(lut), 17, options);

    ASSERT_EQ(engine.numPaths(), 2u);
    // The stale row sorted to index 0 (it claims half its real cost).
    EXPECT_EQ(engine.numVetoed(), 1u);
    EXPECT_TRUE(engine.isVetoed(0));
    EXPECT_TRUE(engine.isQuarantined(0));
    EXPECT_FALSE(engine.isVetoed(1));

    // A budget that nominally selects the vetoed path must be served
    // by a healthy one instead of aborting.
    Rng rng(5);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    DrtResult result = engine.infer(image, 1.0e18);
    EXPECT_TRUE(result.healthy);
    EXPECT_EQ(result.configLabel, "full");
}

TEST(EngineLintGate, InfeasibleConfigVetoedWithoutCostOracle)
{
    auto points = honestPoints(tinyBase());
    points[1].config.depths = {9, 9, 9, 9};
    AccuracyResourceLut lut(points, "flops");

    DrtEngineOptions options;
    options.prewarm = false;
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     std::move(lut), 17, options);
    EXPECT_EQ(engine.numVetoed(), 1u);
}

TEST(EngineLintGate, AllRowsVetoedFailsCreateRecoverably)
{
    auto points = honestPoints(tinyBase());
    for (TradeoffPoint &p : points)
        p.config.depths = {9, 9, 9, 9};
    AccuracyResourceLut lut(points, "flops");

    Result<std::unique_ptr<DrtEngine>> engine =
        DrtEngine::create(ModelFamily::Segformer, tinyBase(),
                          SwinConfig{}, std::move(lut), 17, {});
    ASSERT_FALSE(bool(engine));
    EXPECT_NE(engine.status().message().find("failed lint"),
              std::string::npos);
}

TEST(EngineLintGate, MalformedRowsVetoedByBothEntryPoints)
{
    const SegformerConfig base = tinyBase();
    struct Row
    {
        const char *label;
        std::array<int64_t, 4> depths;
        double cost;
        double util;
        double miou;
    };
    // Three bad rows between two good ones: a negative cost, an empty
    // label and a negative stage depth.
    const Row rows[] = {
        {"neg_cost", {1, 1, 1, 1}, -1.0, 0.2, 0.5},
        {"small", {1, 1, 1, 1}, 40.0, 0.4, 0.6},
        {"", {2, 1, 1, 1}, 60.0, 0.6, 0.7},
        {"neg_depth", {2, -1, 2, 2}, 80.0, 0.8, 0.8},
        {"full", {2, 2, 2, 2}, 100.0, 1.0, 1.0},
    };
    std::vector<TradeoffPoint> points;
    for (const Row &row : rows) {
        TradeoffPoint p;
        p.config.label = row.label;
        p.config.depths = row.depths;
        p.absoluteUtil = row.cost;
        p.normalizedUtil = row.util;
        p.normalizedMiou = row.miou;
        points.push_back(p);
    }

    DrtEngineOptions options;
    options.prewarm = false;
    for (bool factory : {false, true}) {
        AccuracyResourceLut lut(points, "ms");
        std::unique_ptr<DrtEngine> engine;
        if (factory) {
            Result<std::unique_ptr<DrtEngine>> created =
                DrtEngine::create(ModelFamily::Segformer, base,
                                  SwinConfig{}, std::move(lut), 17,
                                  options);
            ASSERT_TRUE(bool(created)) << created.status().message();
            engine = created.take();
        } else {
            engine = std::make_unique<DrtEngine>(
                ModelFamily::Segformer, base, SwinConfig{},
                std::move(lut), 17, options);
        }
        ASSERT_EQ(engine->numPaths(), 5u);
        for (size_t i = 0; i < engine->numPaths(); ++i) {
            const std::string &label =
                engine->lut().entries()[i].config.label;
            EXPECT_EQ(engine->isVetoed(i),
                      label != "small" && label != "full")
                << "row " << i << " '" << label << "' factory "
                << factory;
        }

        Rng rng(5);
        Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
        EXPECT_EQ(engine->infer(image, 1.0e18).configLabel, "full");
        EXPECT_EQ(engine->infer(image, 50.0).configLabel, "small");
    }
}

TEST(EngineLintGate, ModelSwitchingDropsInfeasibleCandidate)
{
    Counter &dropped = MetricsRegistry::instance().counter(
        "lint.dropped_candidates");
    const uint64_t before = dropped.value();

    std::vector<TrainedVariant> variants(1);
    variants[0].name = "tiny";
    variants[0].normalizedMiou = 1.0;
    variants[0].segConfig = tinyBase();

    std::vector<PruneConfig> candidates(2);
    candidates[0].label = "ok";
    candidates[0].depths = {1, 1, 1, 1};
    candidates[1].label = "broken";
    candidates[1].depths = {9, 9, 9, 9};

    AccuracyModel accuracy(PrunedModelKind::SegformerB2Ade);
    ModelSwitchingEngine engine(ModelFamily::Segformer, variants,
                                candidates, accuracy, flopCost);
    EXPECT_EQ(dropped.value(), before + 1);

    // The surviving frontier still answers budget queries.
    auto choice = engine.select(1.0e18);
    EXPECT_FALSE(choice.name.empty());
}

// ---------------------------------------------------------------------
// Liveness analysis and the certified memory plan.

/** tinyConvNet with the two sound elementwise steals annotated by
 *  hand (bn steals conv's buffer, relu steals bn's). */
Graph
annotatedConvNet()
{
    Graph g = tinyConvNet();
    g.layer(2).inplacePriority = 8;  // bn
    g.layer(3).inplacePriority = 10; // relu
    return g;
}

TEST(Liveness, IntervalsAndPeakOnChain)
{
    // input(2048 B) -> conv(4096 B) -> bn(4096 B) -> relu(4096 B).
    const analysis::LivenessInfo info =
        analysis::analyzeLiveness(tinyConvNet());
    ASSERT_EQ(info.buffers.size(), 4u);

    // Charge-before-free: a buffer survives through its last
    // consumer's step, so each edge overlaps by exactly one step.
    EXPECT_EQ(info.buffers[0].birth, 0);
    EXPECT_EQ(info.buffers[0].death, 1);
    EXPECT_FALSE(info.buffers[0].pinned);
    EXPECT_EQ(info.buffers[1].death, 2);
    EXPECT_EQ(info.buffers[2].death, 3);
    EXPECT_EQ(info.buffers[0].bytes, 2048u);
    EXPECT_EQ(info.buffers[1].bytes, 4096u);

    EXPECT_EQ(info.totalBytes, 14336u);
    EXPECT_EQ(info.maxLiveBytes, 8192u); // conv + bn at step 2.
    EXPECT_EQ(info.maxLiveTensors, 2u);
    EXPECT_EQ(info.peakStep, 2);

    EXPECT_TRUE(info.interferes(1, 2));  // conv live at bn's step.
    EXPECT_FALSE(info.interferes(0, 2)); // input dead before bn.
}

TEST(Liveness, OutputAndConsumerlessBuffersArePinned)
{
    Graph g("pins");
    int x = g.addInput("x", {1, 4, 4, 4});
    Layer relu;
    relu.name = "relu";
    relu.kind = LayerKind::ReLU;
    relu.inputs = {x};
    g.markOutput(g.addLayer(std::move(relu)));
    Layer dead;
    dead.name = "dead_gelu"; // No consumers, not an output.
    dead.kind = LayerKind::GELU;
    dead.inputs = {x};
    g.addLayer(std::move(dead));

    const analysis::LivenessInfo info = analysis::analyzeLiveness(g);
    const int n = static_cast<int>(g.numLayers());
    EXPECT_FALSE(info.buffers[0].pinned); // Input is consumed.
    EXPECT_TRUE(info.buffers[1].pinned);  // Graph output.
    EXPECT_TRUE(info.buffers[2].pinned);  // Consumer-less.
    EXPECT_EQ(info.buffers[1].death, n);
    EXPECT_EQ(info.buffers[2].death, n);
    // Everything is simultaneously live at the end.
    EXPECT_EQ(info.maxLiveBytes, info.totalBytes);
}

TEST(Liveness, OffsetsDisjointAndArenaCoversLivePeakOnRealModel)
{
    const Graph g = buildSegformer(tinyBase());
    const analysis::LivenessInfo info = analysis::analyzeLiveness(g);
    std::vector<int64_t> offsets;
    const size_t arena = analysis::assignOffsets(info, {}, &offsets);

    EXPECT_GE(arena, info.maxLiveBytes);
    EXPECT_EQ(arena, analysis::certifiedPeakBytes(g));

    // Interfering buffers must occupy disjoint byte ranges.
    const int n = static_cast<int>(info.buffers.size());
    ASSERT_EQ(static_cast<int>(offsets.size()), n);
    for (int a = 0; a < n; ++a) {
        const int64_t end_a =
            offsets[a] + static_cast<int64_t>(info.buffers[a].bytes);
        EXPECT_LE(end_a, static_cast<int64_t>(arena));
        for (int b = a + 1; b < n; ++b) {
            if (!info.interferes(a, b))
                continue;
            const int64_t end_b =
                offsets[b] +
                static_cast<int64_t>(info.buffers[b].bytes);
            EXPECT_TRUE(end_a <= offsets[b] || end_b <= offsets[a])
                << "buffers " << a << " and " << b << " overlap";
        }
    }
}

TEST(Liveness, PlanIsDeterministic)
{
    const Graph g = buildSegformer(tinyBase());
    const analysis::MemoryPlan first = analysis::planMemory(g);
    const analysis::MemoryPlan second = analysis::planMemory(g);
    EXPECT_EQ(first.certifiedPeakBytes, second.certifiedPeakBytes);
    EXPECT_EQ(first.plannedPeakBytes, second.plannedPeakBytes);
    EXPECT_EQ(first.offsets, second.offsets);
    EXPECT_EQ(first.plannedOffsets, second.plannedOffsets);
}

TEST(Liveness, VerifiedStealsShrinkPlannedArena)
{
    const Graph g = annotatedConvNet();
    const analysis::MemoryPlan plan = analysis::planMemory(g);

    EXPECT_EQ(plan.maxLiveBytes, 8192u);
    // Best-fit packing pays fragmentation over the tight live peak
    // (bn cannot reuse the dead input's 2048 B slot), but the bound
    // stays sound: certified >= maxLive always.
    EXPECT_EQ(plan.certifiedPeakBytes, 10240u);
    // conv+bn+relu coalesce to one 4096 B group beside the input.
    EXPECT_EQ(plan.plannedPeakBytes, 6144u);
    EXPECT_EQ(plan.stealSavedBytes, 4096u);
    // The coalesced plan is a real plan, never below the no-steal
    // liveness floor of its own merged lifetimes.
    EXPECT_LT(plan.plannedPeakBytes, plan.certifiedPeakBytes);
}

// ---------------------------------------------------------------------
// Memory lint: the in-place verifier.

TEST(MemoryLint, RealModelPipelineIsMemoryClean)
{
    Graph g = buildSegformer(tinyBase());
    PassManager pipeline = PassManager::standardPipeline();
    Result<PipelineReport> report = pipeline.run(g);
    ASSERT_TRUE(report) << report.status().message();

    // The pass filters its candidates through the verifier, so the
    // default lint (memory family included) is clean by construction.
    const LintReport lint = lintGraph(g);
    EXPECT_TRUE(lint.clean()) << lint.toText();

    // And it actually annotated something worth verifying.
    LintReport verify;
    const std::vector<int> targets =
        analysis::verifiedStealTargets(g, &verify);
    EXPECT_TRUE(verify.clean()) << verify.toText();
    EXPECT_TRUE(std::any_of(targets.begin(), targets.end(),
                            [](int t) { return t >= 0; }));
}

TEST(MemoryLint, NotLastConsumerStealRejected)
{
    Graph g = annotatedConvNet();
    // A second, later reader of conv's buffer: bn's steal would free
    // a buffer the gelu still needs.
    Layer late;
    late.name = "late_reader";
    late.kind = LayerKind::GELU;
    late.inputs = {1}; // conv
    g.markOutput(g.addLayer(std::move(late)));

    LintReport report;
    analysis::checkMemory(g, report);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "mem.inplace.not-last"))
        << report.toText();

    const std::vector<int> targets =
        analysis::verifiedStealTargets(g, nullptr);
    EXPECT_EQ(targets[2], -1); // bn's steal is unsound now...
    EXPECT_GE(targets[3], 0);  // ...relu's (of bn) is untouched.
}

TEST(MemoryLint, GraphOutputStealRejected)
{
    Graph g = tinyConvNet();
    g.markOutput(2); // bn is now also a graph output...
    g.layer(3).inplacePriority = 10; // ...and relu tries to steal it.

    LintReport report;
    analysis::checkMemory(g, report);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "mem.inplace.output"))
        << report.toText();
}

TEST(MemoryLint, ShapeMismatchStealRejected)
{
    Graph g = annotatedConvNet();
    g.layer(3).outShape = {1, 16, 8, 4}; // Corrupt relu's shape.
    LintReport report;
    analysis::checkMemory(g, report);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "mem.inplace.shape"))
        << report.toText();
}

TEST(MemoryLint, NonElementwiseKindStealRejected)
{
    Graph g = tinyConvNet();
    g.layer(1).inplacePriority = 5; // Conv2d cannot run in place.
    LintReport report;
    analysis::checkMemory(g, report);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "mem.inplace.kind"))
        << report.toText();
}

TEST(MemoryLint, AliasThroughForwarderRejected)
{
    // conv's buffer reaches relu through an Identity forwarder while
    // a later gelu still reads conv directly: in a zero-copy plan the
    // steal would free the aliased buffer under the gelu.
    Graph g("alias");
    int x = g.addInput("x", {1, 4, 8, 8});
    Layer conv;
    conv.name = "conv";
    conv.kind = LayerKind::Conv2d;
    conv.attrs.inChannels = 4;
    conv.attrs.outChannels = 4;
    conv.attrs.kernelH = conv.attrs.kernelW = 1;
    conv.inputs = {x};
    int c = g.addLayer(std::move(conv));
    Layer fwd;
    fwd.name = "fwd";
    fwd.kind = LayerKind::Identity;
    fwd.inputs = {c};
    int f = g.addLayer(std::move(fwd));
    Layer relu;
    relu.name = "relu";
    relu.kind = LayerKind::ReLU;
    relu.inputs = {f};
    relu.inplacePriority = 10;
    g.markOutput(g.addLayer(std::move(relu)));
    Layer gelu;
    gelu.name = "late_alias_reader";
    gelu.kind = LayerKind::GELU;
    gelu.inputs = {c};
    g.markOutput(g.addLayer(std::move(gelu)));

    LintReport report;
    analysis::checkMemory(g, report);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(flagged(report, "mem.inplace.alias"))
        << report.toText();

    // The annotation pass must refuse to create this hazard itself.
    Graph fresh = g;
    fresh.layer(3).inplacePriority = 0;
    Result<int> rewrites =
        makeInplacePriorityPass()->run(fresh, PassOptions{});
    ASSERT_TRUE(rewrites) << rewrites.status().message();
    EXPECT_EQ(fresh.layer(3).inplacePriority, 0);
}

TEST(MemoryLint, FrontierCertifiedCoversMeasuredPeak)
{
    // Every frontier config of the tiny model: build, rewrite with
    // the standard pipeline, execute, and check measured <= certified.
    const SegformerConfig base = tinyBase();
    std::vector<PruneConfig> configs(3);
    configs[0].label = "full";
    configs[0].depths = {2, 2, 2, 2};
    configs[1].label = "mid";
    configs[1].depths = {2, 1, 1, 2};
    configs[2].label = "small";
    configs[2].depths = {1, 1, 1, 1};
    configs[2].fuseInChannels = 64;

    Rng rng(11);
    const Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    for (const PruneConfig &config : configs) {
        Result<Graph> built = tryApplySegformerPrune(base, config);
        ASSERT_TRUE(built) << config.label;
        Graph g = std::move(built.value());
        PassManager pipeline = PassManager::standardPipeline();
        ASSERT_TRUE(pipeline.run(g)) << config.label;

        Executor exec(g, 17);
        exec.runSimple(image);
        const size_t measured = exec.lastRunStats().peakLiveBytes;
        EXPECT_GT(measured, 0u) << config.label;
        EXPECT_LE(measured, exec.certifiedPeakBytes())
            << config.label;
    }
}

TEST(LutCheck, MemoryBudgetRowFlagged)
{
    AccuracyResourceLut lut(honestPoints(tinyBase()), "flops");
    LutCheckOptions options;
    options.cost = flopCost;

    // A generous budget passes...
    options.memoryBudgetBytes = size_t{1} << 40;
    LintReport ok = checkLut(lut, ModelFamily::Segformer, tinyBase(),
                             SwinConfig{}, options);
    EXPECT_TRUE(ok.clean()) << ok.toText();

    // ...an impossible one is a named per-row error.
    options.memoryBudgetBytes = 1;
    LintReport bad = checkLut(lut, ModelFamily::Segformer, tinyBase(),
                              SwinConfig{}, options);
    EXPECT_TRUE(bad.hasErrors());
    EXPECT_TRUE(flagged(bad, "lut.memory-budget")) << bad.toText();
}

/** honestPoints plus a stale-cost row (the "small" config storing
 *  half its cost) and an infeasible row. */
std::vector<TradeoffPoint>
mixedPoints(const SegformerConfig &base)
{
    std::vector<TradeoffPoint> points = honestPoints(base);
    TradeoffPoint stale = points[1];
    stale.config.label = "small_stale";
    stale.absoluteUtil *= 0.5;
    stale.normalizedUtil *= 0.5;
    stale.normalizedMiou -= 0.1;
    TradeoffPoint infeasible = points[0];
    infeasible.config.label = "infeasible";
    infeasible.config.depths = {9, 9, 9, 9};
    infeasible.absoluteUtil =
        (points[0].absoluteUtil + points[1].absoluteUtil) / 2;
    infeasible.normalizedUtil =
        (points[0].normalizedUtil + points[1].normalizedUtil) / 2;
    infeasible.normalizedMiou =
        (points[0].normalizedMiou + points[1].normalizedMiou) / 2;
    points.push_back(stale);
    points.push_back(infeasible);
    return points;
}

TEST(EngineLintGate, OverBudgetConfigVetoedAtLoad)
{
    const SegformerConfig base = tinyBase();
    const std::vector<TradeoffPoint> honest = honestPoints(base);
    const size_t peak_small = analysis::certifiedPeakBytes(
        applySegformerPrune(base, honest[1].config));
    const size_t peak_full = analysis::certifiedPeakBytes(
        applySegformerPrune(base, honest[0].config));
    ASSERT_LT(peak_small, peak_full);

    // Budget between the two peaks: "full" must be vetoed at load,
    // "small" keeps serving, and the stored per-path bounds match the
    // analyzer's. The mixed LUT adds a stale-cost and an infeasible
    // row; on both LUTs the engine vetoes exactly the rows checkLut
    // reports an Error for.
    DrtEngineOptions options;
    options.prewarm = false;
    options.lint.cost = flopCost;
    options.lint.memoryBudgetBytes = (peak_small + peak_full) / 2;
    for (const std::vector<TradeoffPoint> &points :
         {honest, mixedPoints(base)}) {
        AccuracyResourceLut lut(points, "flops");
        const LintReport report = checkLut(lut, ModelFamily::Segformer,
                                           base, SwinConfig{},
                                           options.lint);
        DrtEngine engine(ModelFamily::Segformer, base, SwinConfig{},
                         std::move(lut), 17, options);

        ASSERT_EQ(engine.numPaths(), points.size());
        EXPECT_EQ(engine.numVetoed(), points.size() - 1);
        for (size_t i = 0; i < engine.numPaths(); ++i) {
            const PruneConfig &config = engine.lut().entries()[i].config;
            const std::string row = "row " + std::to_string(i) + " ";
            bool row_error = false;
            for (const Diagnostic &d : report.diagnostics())
                row_error |= d.severity == Severity::Error &&
                             d.message.rfind(row, 0) == 0;
            EXPECT_EQ(engine.isVetoed(i), row_error) << config.label;
            EXPECT_EQ(engine.isVetoed(i), config.label != "small")
                << config.label;

            Result<Graph> built = tryApplySegformerPrune(base, config);
            EXPECT_EQ(engine.certifiedPeakBytes(i),
                      built ? analysis::certifiedPeakBytes(built.value())
                            : 0u)
                << config.label;
        }

        Rng rng(5);
        Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
        DrtResult result = engine.infer(image, 1.0e18);
        EXPECT_TRUE(result.healthy);
        EXPECT_EQ(result.configLabel, "small");
    }

    // A budget below every config's bound fails create() recoverably.
    DrtEngineOptions tight = options;
    tight.lint.memoryBudgetBytes = peak_small / 2;
    Result<std::unique_ptr<DrtEngine>> none = DrtEngine::create(
        ModelFamily::Segformer, base, SwinConfig{},
        AccuracyResourceLut(honestPoints(base), "flops"), 17, tight);
    EXPECT_FALSE(bool(none));
}

TEST(ExecutorMemory, StealMetricsAndRuntimeCrossCheck)
{
    Counter &steal_bytes =
        MetricsRegistry::instance().counter("exec.steal_reuse_bytes");
    const uint64_t before = steal_bytes.value();

    const Graph g = annotatedConvNet();
    Executor exec(g, 3);
    Rng rng(9);
    exec.runSimple(Tensor::randn({1, 8, 8, 8}, rng));

    // Both annotated steals fired: 4096 B each for bn and relu.
    const Executor::RunStats &stats = exec.lastRunStats();
    EXPECT_EQ(stats.stealReuseBytes, 8192u);
    EXPECT_EQ(steal_bytes.value(), before + 8192u);
    EXPECT_LE(stats.peakLiveBytes, exec.certifiedPeakBytes());

    Gauge &peak_gauge =
        MetricsRegistry::instance().gauge("exec.peak_live_bytes");
    EXPECT_EQ(static_cast<size_t>(peak_gauge.value()),
              stats.peakLiveBytes);
}

} // namespace
} // namespace vitdyn
