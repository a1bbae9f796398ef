/** @file Tests of the fault-injection subsystem and the DRT engine's
 * graceful degradation: deterministic corruption, health checks,
 * quarantine, fallback to the next Pareto entry, and recovery after
 * probation. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "engine/engine.hh"
#include "engine/trace.hh"
#include "fault/fault.hh"
#include "graph/executor.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

Tensor
rampTensor(const Shape &shape)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i)
        t[i] = 0.01f * static_cast<float>(i % 997) - 2.0f;
    return t;
}

// --- FaultInjector -------------------------------------------------

TEST(FaultInjector, DeterministicAcrossInstances)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.specs.push_back({FaultKind::Transient, "*", 0.5, 3, 1e6});
    plan.specs.push_back({FaultKind::BitFlip, "conv", 0.5, 2, 0.0});

    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 20; ++i) {
        Tensor ta = rampTensor({2, 8, 4, 4});
        Tensor tb = rampTensor({2, 8, 4, 4});
        const size_t fa = a.corruptActivation("conv" + std::to_string(i),
                                              ta);
        const size_t fb = b.corruptActivation("conv" + std::to_string(i),
                                              tb);
        EXPECT_EQ(fa, fb);
        for (int64_t j = 0; j < ta.numel(); ++j) {
            if (std::isnan(ta[j]))
                EXPECT_TRUE(std::isnan(tb[j]));
            else
                EXPECT_EQ(ta[j], tb[j]) << "element " << j;
        }
    }
    EXPECT_EQ(a.faultsFired(), b.faultsFired());
    EXPECT_GT(a.faultsFired(), 0u);
}

TEST(FaultInjector, ResetReplaysTheSameStream)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.specs.push_back({FaultKind::NaNPoison, "*", 0.3, 1, 0.0});

    FaultInjector inj(plan);
    std::vector<size_t> first;
    for (int i = 0; i < 30; ++i) {
        Tensor t = rampTensor({16});
        first.push_back(inj.corruptActivation("layer", t));
    }
    inj.reset();
    for (int i = 0; i < 30; ++i) {
        Tensor t = rampTensor({16});
        EXPECT_EQ(inj.corruptActivation("layer", t), first[i]);
    }
}

TEST(FaultInjector, RateZeroNeverFires)
{
    FaultPlan plan;
    plan.specs.push_back({FaultKind::NaNPoison, "*", 0.0, 1, 0.0});
    FaultInjector inj(plan);
    for (int i = 0; i < 50; ++i) {
        Tensor t = rampTensor({64});
        EXPECT_EQ(inj.corruptActivation("anything", t), 0u);
    }
    EXPECT_EQ(inj.faultsFired(), 0u);
}

TEST(FaultInjector, PatternTargetsOnlyMatchingLayers)
{
    FaultPlan plan;
    plan.specs.push_back({FaultKind::NaNPoison, "decoder", 1.0, 4, 0.0});
    FaultInjector inj(plan);

    Tensor hit = rampTensor({32});
    Tensor miss = rampTensor({32});
    EXPECT_EQ(inj.corruptActivation("decoder.fuse", hit), 1u);
    EXPECT_EQ(inj.corruptActivation("encoder.block0", miss), 0u);

    bool has_nan = false;
    for (int64_t i = 0; i < hit.numel(); ++i)
        has_nan |= std::isnan(hit[i]);
    EXPECT_TRUE(has_nan);
    for (int64_t i = 0; i < miss.numel(); ++i)
        EXPECT_FALSE(std::isnan(miss[i]));
}

TEST(FaultInjector, BitFlipStaysInInt8Domain)
{
    // A bit flip through the quant domain perturbs few elements, each
    // by at most 255 quantization steps, and never produces NaN/Inf.
    FaultPlan plan;
    plan.seed = 5;
    plan.specs.push_back({FaultKind::BitFlip, "*", 1.0, 2, 0.0});
    FaultInjector inj(plan);

    Tensor t = rampTensor({4, 16});
    Tensor orig = t;
    EXPECT_EQ(inj.corruptWeights("w", t), 1u);

    const float scale = orig.maxAbs() / 127.0f;
    int64_t changed = 0;
    for (int64_t i = 0; i < t.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(t[i]));
        if (t[i] != orig[i]) {
            ++changed;
            // The flipped value is a dequantized int8: within scale*128.
            EXPECT_LE(std::fabs(t[i]), scale * 128.0f + 1e-4f);
        }
    }
    EXPECT_GE(changed, 1);
    EXPECT_LE(changed, 2);
}

TEST(FaultInjector, StuckChannelZeroesExactlyOneChannel)
{
    FaultPlan plan;
    plan.seed = 11;
    plan.specs.push_back({FaultKind::StuckChannel, "*", 1.0, 1, 0.0});
    FaultInjector inj(plan);

    Tensor t({2, 6, 3, 3}, 1.5f);
    EXPECT_EQ(inj.corruptActivation("conv", t), 1u);

    int zero_channels = 0;
    for (int64_t c = 0; c < 6; ++c) {
        bool all_zero = true;
        for (int64_t n = 0; n < 2; ++n)
            for (int64_t h = 0; h < 3; ++h)
                for (int64_t w = 0; w < 3; ++w)
                    all_zero &= t.at4(n, c, h, w) == 0.0f;
        zero_channels += all_zero;
    }
    EXPECT_EQ(zero_channels, 1);
}

TEST(FaultPlan, CsvRoundTrip)
{
    FaultPlan plan;
    plan.seed = 1234;
    plan.specs.push_back({FaultKind::Transient, "*", 0.01, 4, 64.0});
    plan.specs.push_back({FaultKind::NaNPoison, "Conv2DFuse", 0.5, 1,
                          0.0});
    plan.specs.push_back({FaultKind::StuckChannel, "stage3", 0.25, 1,
                          0.0});

    Result<FaultPlan> loaded = FaultPlan::fromCsv(plan.toCsv());
    ASSERT_TRUE(loaded.isOk()) << loaded.status().message();
    EXPECT_EQ(loaded.value().seed, plan.seed);
    ASSERT_EQ(loaded.value().specs.size(), plan.specs.size());
    for (size_t i = 0; i < plan.specs.size(); ++i) {
        EXPECT_EQ(loaded.value().specs[i].kind, plan.specs[i].kind);
        EXPECT_EQ(loaded.value().specs[i].layerPattern,
                  plan.specs[i].layerPattern);
        EXPECT_DOUBLE_EQ(loaded.value().specs[i].rate,
                         plan.specs[i].rate);
        EXPECT_EQ(loaded.value().specs[i].count, plan.specs[i].count);
    }
    EXPECT_EQ(loaded.value().toCsv(), plan.toCsv());
}

TEST(FaultPlan, MalformedCsvIsRecoverable)
{
    EXPECT_FALSE(FaultPlan::fromCsv("").isOk());
    EXPECT_FALSE(FaultPlan::fromCsv("nonsense").isOk());
    EXPECT_FALSE(
        FaultPlan::fromCsv("seed,1\nkind,pattern,rate,count,magnitude\n"
                           "badkind,*,0.5,1,1\n")
            .isOk());
    EXPECT_FALSE(
        FaultPlan::fromCsv("seed,1\nkind,pattern,rate,count,magnitude\n"
                           "nan,*,2.0,1,1\n")
            .isOk()); // rate > 1
    EXPECT_FALSE(
        FaultPlan::fromCsv("seed,1\nkind,pattern,rate,count,magnitude\n"
                           "nan,*,0.5\n")
            .isOk()); // truncated row
}

// --- Executor health checks ---------------------------------------

Graph
smallGraph()
{
    Graph g("health_test");
    int in = g.addInput("x", {1, 4, 8, 8});
    Layer conv;
    conv.name = "conv_a";
    conv.kind = LayerKind::Conv2d;
    conv.attrs.inChannels = 4;
    conv.attrs.outChannels = 4;
    conv.inputs = {in};
    int mid = g.addLayer(std::move(conv));
    Layer act;
    act.name = "relu_a";
    act.kind = LayerKind::ReLU;
    act.inputs = {mid};
    g.markOutput(g.addLayer(std::move(act)));
    return g;
}

TEST(ExecutorHealth, CleanRunPassesChecks)
{
    Graph g = smallGraph();
    Executor exec(g, 1);
    HealthCheckConfig cfg;
    cfg.enabled = true;
    cfg.exhaustive = true;
    exec.setHealthChecks(cfg);

    Rng rng(3);
    exec.runSimple(Tensor::randn({1, 4, 8, 8}, rng));
    const HealthReport &report = exec.lastHealthReport();
    EXPECT_TRUE(report.healthy);
    EXPECT_EQ(report.issues.size(), 0u);
    EXPECT_EQ(report.layersChecked, 2u);
    EXPECT_GT(report.elementsChecked, 0u);
    EXPECT_EQ(report.summary(), "healthy");
}

TEST(ExecutorHealth, ExhaustiveModeCatchesSingleNaN)
{
    Graph g = smallGraph();
    Executor exec(g, 1);
    HealthCheckConfig cfg;
    cfg.enabled = true;
    cfg.exhaustive = true;
    exec.setHealthChecks(cfg);

    // Poison exactly one element of the conv output via the hook.
    exec.setPostLayerHook([](const Layer &layer, Tensor &out) {
        if (layer.name == "conv_a")
            out[7] = std::numeric_limits<float>::quiet_NaN();
    });

    Rng rng(3);
    exec.runSimple(Tensor::randn({1, 4, 8, 8}, rng));
    const HealthReport &report = exec.lastHealthReport();
    EXPECT_FALSE(report.healthy);
    ASSERT_GE(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].layer, "conv_a");
    EXPECT_GE(report.issues[0].nanCount, 1);
    EXPECT_NE(report.summary().find("conv_a"), std::string::npos);
}

TEST(ExecutorHealth, SampledModeCatchesWidespreadCorruption)
{
    Graph g = smallGraph();
    Executor exec(g, 1);
    HealthCheckConfig cfg;
    cfg.enabled = true;
    cfg.exhaustive = false;
    cfg.sampleStride = 7;
    exec.setHealthChecks(cfg);

    exec.setPostLayerHook([](const Layer &layer, Tensor &out) {
        if (layer.name == "conv_a")
            for (int64_t i = 0; i < out.numel(); ++i)
                out[i] = std::numeric_limits<float>::infinity();
    });

    Rng rng(3);
    exec.runSimple(Tensor::randn({1, 4, 8, 8}, rng));
    EXPECT_FALSE(exec.lastHealthReport().healthy);
}

TEST(ExecutorHealth, RangeLimitFlagsBlowups)
{
    Graph g = smallGraph();
    Executor exec(g, 1);
    HealthCheckConfig cfg;
    cfg.enabled = true;
    cfg.exhaustive = true;
    cfg.absLimit = 100.0f;
    exec.setHealthChecks(cfg);

    exec.setPostLayerHook([](const Layer &layer, Tensor &out) {
        if (layer.name == "conv_a")
            out[0] = 5000.0f;
    });

    Rng rng(3);
    exec.runSimple(Tensor::randn({1, 4, 8, 8}, rng));
    const HealthReport &report = exec.lastHealthReport();
    EXPECT_FALSE(report.healthy);
    ASSERT_GE(report.issues.size(), 1u);
    EXPECT_GE(report.issues[0].rangeCount, 1);
}

TEST(ExecutorHealth, MutateWeightsTargetsNamedLayer)
{
    Graph g = smallGraph();
    Executor exec(g, 1);
    EXPECT_FALSE(exec.mutateWeights("no_such_layer", [](Tensor &) {}));
    EXPECT_FALSE(exec.mutateWeights("relu_a", [](Tensor &) {}));

    Rng rng(3);
    Tensor input = Tensor::randn({1, 4, 8, 8}, rng);
    Tensor clean = exec.runSimple(input);

    ASSERT_TRUE(exec.mutateWeights("conv_a", [](Tensor &w) {
        for (int64_t i = 0; i < w.numel(); ++i)
            w[i] = 0.0f;
    }));
    Tensor corrupted = exec.runSimple(input);
    EXPECT_FALSE(clean.allClose(corrupted, 1e-6f));
}

TEST(ExecutorHealth, LinearWeightFaultShowsOnTheNextFrame)
{
    // A persistent fault in a Linear weight must reach the very next
    // frame: no cached copy of the weight may outlive the mutation.
    constexpr int64_t in_f = 13, out_f = 11, hit_o = 3, hit_i = 4;
    Graph g("linear_fault");
    int in = g.addInput("x", {2, 9, in_f});
    Layer fc;
    fc.name = "fc_a";
    fc.kind = LayerKind::Linear;
    fc.attrs.inFeatures = in_f;
    fc.attrs.outFeatures = out_f;
    fc.inputs = {in};
    g.markOutput(g.addLayer(std::move(fc)));

    Executor exec(g, 1);
    Rng rng(5);
    Tensor x = Tensor::randn({2, 9, in_f}, rng);
    Tensor clean = exec.runSimple(x);
    ASSERT_TRUE(exec.mutateWeights("fc_a", [](Tensor &w) {
        w[hit_o * in_f + hit_i] = 1000.0f;
    }));
    Tensor faulty = exec.runSimple(x);

    // Exactly output feature hit_o reads the damaged weight: it moves
    // in every row, and every other feature keeps its bits.
    ASSERT_EQ(faulty.shape(), clean.shape());
    for (int64_t r = 0; r < 2 * 9; ++r)
        for (int64_t o = 0; o < out_f; ++o) {
            const float a = clean[r * out_f + o];
            const float b = faulty[r * out_f + o];
            if (o == hit_o)
                EXPECT_NE(a, b) << "row " << r;
            else
                EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
                    << "row " << r << " feature " << o;
        }
    // The fault persists: a second frame repeats the faulty output.
    Tensor again = exec.runSimple(x);
    EXPECT_EQ(std::memcmp(again.data(), faulty.data(),
                          sizeof(float) * faulty.numel()),
              0);
}

// --- Engine quarantine / fallback / recovery ----------------------

/** A small SegFormer so engine tests execute real tensors quickly. */
SegformerConfig
tinyBase()
{
    SegformerConfig cfg;
    cfg.name = "segformer_fault_test";
    cfg.imageH = cfg.imageW = 64;
    cfg.numClasses = 6;
    cfg.embedDims = {8, 16, 24, 32};
    cfg.depths = {2, 2, 2, 2};
    cfg.numHeads = {1, 2, 3, 4};
    cfg.decoderDim = 32;
    return cfg;
}

/**
 * Three LUT points where only "full" keeps two blocks per stage —
 * fault patterns on ".block1" therefore hit only the full path.
 */
std::vector<TradeoffPoint>
tinyPoints()
{
    std::vector<TradeoffPoint> pts(3);
    pts[0].config = {"full", {2, 2, 2, 2}, 0, 0, 0, 1.0, 1.0};
    pts[0].normalizedUtil = 1.0;
    pts[0].absoluteUtil = 100.0;
    pts[0].normalizedMiou = 1.0;
    pts[1].config = {"mid", {1, 1, 1, 1}, 96, 0, 0, 0.7, 0.9};
    pts[1].normalizedUtil = 0.7;
    pts[1].absoluteUtil = 70.0;
    pts[1].normalizedMiou = 0.9;
    pts[2].config = {"small", {1, 1, 1, 1}, 64, 0, 0, 0.55, 0.8};
    pts[2].normalizedUtil = 0.55;
    pts[2].absoluteUtil = 55.0;
    pts[2].normalizedMiou = 0.8;
    return pts;
}

EngineResilienceConfig
testResilience()
{
    EngineResilienceConfig cfg;
    cfg.enabled = true;
    cfg.health.enabled = true;
    cfg.health.exhaustive = true;
    cfg.maxRetries = 2;
    cfg.probationFrames = 5;
    return cfg;
}

TEST(EngineResilience, QuarantineFallbackAndProbationRecovery)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    engine.setResilience(testResilience());

    // Fault only layers present in the full path (second block of
    // stage 1): the pruned paths have depth 1 everywhere.
    FaultPlan plan;
    plan.seed = 99;
    plan.specs.push_back(
        {FaultKind::NaNPoison, ".block1.", 1.0, 8, 0.0});
    FaultInjector injector(plan);
    engine.setFaultInjector(&injector);

    Rng rng(1);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);

    // Frame 1: full selected, fails health, degrades to mid. Paths
    // are sorted by ascending cost, so "full" is the last index.
    const size_t full_path = engine.numPaths() - 1;
    DrtResult r = engine.infer(image, 1000.0);
    EXPECT_EQ(r.configLabel, "mid");
    EXPECT_TRUE(r.degraded);
    EXPECT_TRUE(r.healthy);
    EXPECT_EQ(r.retries, 1);
    EXPECT_EQ(r.quarantinedPaths, 1u);
    EXPECT_TRUE(engine.isQuarantined(full_path));
    EXPECT_DOUBLE_EQ(r.accuracyEstimate, 0.9);

    // While quarantined: no retry needed, but still degraded.
    r = engine.infer(image, 1000.0);
    EXPECT_EQ(r.configLabel, "mid");
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.retries, 0);
    EXPECT_TRUE(engine.isQuarantined(full_path));

    // The fault clears (transient): probation (5 frames after the
    // quarantining frame 1) keeps mid serving through frame 5, then
    // the full path returns to service.
    engine.setFaultInjector(nullptr);
    for (int i = 0; i < 3; ++i) {
        r = engine.infer(image, 1000.0);
        EXPECT_EQ(r.configLabel, "mid");
    }
    EXPECT_TRUE(engine.isQuarantined(full_path));
    r = engine.infer(image, 1000.0);
    EXPECT_EQ(r.configLabel, "full");
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(r.healthy);
    EXPECT_EQ(r.quarantinedPaths, 0u);
    EXPECT_FALSE(engine.isQuarantined(full_path));
    EXPECT_DOUBLE_EQ(r.accuracyEstimate, 1.0);
}

TEST(EngineResilience, PersistentFaultExhaustsRetriesBestEffort)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    engine.setResilience(testResilience());

    // Poison every path: the engine must still answer (best effort),
    // flag the output unhealthy, and not abort.
    FaultPlan plan;
    plan.seed = 99;
    plan.specs.push_back({FaultKind::NaNPoison, "Conv2DFuse", 1.0, 8,
                          0.0});
    FaultInjector injector(plan);
    engine.setFaultInjector(&injector);

    Rng rng(1);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    DrtResult r = engine.infer(image, 1000.0);
    EXPECT_FALSE(r.healthy);
    EXPECT_EQ(r.retries, 2); // bounded by maxRetries
    EXPECT_EQ(r.quarantinedPaths, 3u);

    // Next frame: all paths quarantined, engine still responds.
    r = engine.infer(image, 1000.0);
    EXPECT_FALSE(r.healthy);
}

TEST(EngineResilience, PersistentWeightFaultQuarantinesOnePath)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    engine.setResilience(testResilience());

    // Corrupt the full path's fusion conv weights persistently (a
    // damaged weight transfer); the pruned paths have their own
    // executors and stay clean. "full" is the costliest = last path.
    ASSERT_TRUE(engine.pathExecutor(engine.numPaths() - 1).mutateWeights(
        "Conv2DFuse", [](Tensor &w) {
            w[0] = std::numeric_limits<float>::quiet_NaN();
        }));

    Rng rng(1);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    for (int frame = 0; frame < 12; ++frame) {
        DrtResult r = engine.infer(image, 1000.0);
        // Whenever full is tried it fails and mid serves the frame.
        EXPECT_EQ(r.configLabel, "mid");
        EXPECT_TRUE(r.healthy);
        EXPECT_TRUE(r.degraded);
    }
}

TEST(EngineResilience, DisabledEngineDeliversCorruptedOutput)
{
    // The unhardened baseline: health checks observe the corruption
    // but nothing degrades — the NaN output reaches the caller.
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    EngineResilienceConfig cfg = testResilience();
    cfg.enabled = false;
    engine.setResilience(cfg);

    FaultPlan plan;
    plan.seed = 99;
    plan.specs.push_back(
        {FaultKind::NaNPoison, ".block1.", 1.0, 8, 0.0});
    FaultInjector injector(plan);
    engine.setFaultInjector(&injector);

    Rng rng(1);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);

    // A clean twin (same seed, no injector) gives the reference.
    DrtEngine clean(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                    AccuracyResourceLut(tinyPoints(), "ms"), 17);
    Tensor reference = clean.infer(image, 1000.0).output;

    DrtResult r = engine.infer(image, 1000.0);
    EXPECT_EQ(r.configLabel, "full");
    EXPECT_FALSE(r.healthy);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.retries, 0);
    EXPECT_FALSE(r.output.allClose(reference, 1e-6f));
}

TEST(EngineTrace, RecordsHealthAndQuarantineTransitions)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    engine.setResilience(testResilience());

    FaultPlan plan;
    plan.seed = 99;
    plan.specs.push_back(
        {FaultKind::NaNPoison, ".block1.", 1.0, 8, 0.0});
    FaultInjector injector(plan);
    engine.setFaultInjector(&injector);

    Rng rng(1);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    BudgetTrace trace = makeStepTrace(8, 1000.0, 1000.0, 0);

    EngineTraceStats stats = runEngineTrace(engine, trace, image);
    ASSERT_EQ(stats.records.size(), 8u);
    EXPECT_EQ(stats.frames, 8);
    EXPECT_EQ(stats.unhealthyFrames, 0);

    // Frame 0 retried off the faulty full path and quarantined it.
    EXPECT_EQ(stats.records[0].retries, 1);
    EXPECT_TRUE(stats.records[0].degraded);
    EXPECT_EQ(stats.records[0].configLabel, "mid");
    EXPECT_EQ(stats.records[0].quarantinedPaths, 1u);
    EXPECT_GE(stats.quarantineEntries, 1);
    EXPECT_GE(stats.degradedFrames, 1);
    EXPECT_GT(stats.totalRetries, 0);

    // The full path re-enters service mid-trace (probation 5) and is
    // immediately re-faulted: a release must have been observed.
    EXPECT_GE(stats.quarantineReleases, 1);
}

} // namespace
} // namespace vitdyn
