/**
 * @file
 * Tests of the shared WeightStore: synthesis dedup, zero-copy serving,
 * bit-identical parity with a fresh store (fp32 and int8),
 * copy-on-write fault isolation, thread safety (run under TSan with
 * VITDYN_THREADS=4), and the engine-level executor caches built on it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hh"
#include "graph/executor.hh"
#include "graph/weight_store.hh"
#include "obs/metrics.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

/** conv -> batchnorm -> relu -> tokens -> layernorm -> linear ->
 *  softmax: every weighted layer kind plus the masked-softmax path. */
Graph
tinyMixedGraph(int64_t conv_out = 8, int64_t lin_out = 6)
{
    Graph g("tiny_mixed");
    int in = g.addInput("x", {1, 3, 8, 8});
    Layer conv;
    conv.name = "conv1";
    conv.kind = LayerKind::Conv2d;
    conv.attrs.inChannels = 3;
    conv.attrs.outChannels = conv_out;
    conv.attrs.kernelH = conv.attrs.kernelW = 3;
    conv.attrs.padH = conv.attrs.padW = 1;
    conv.inputs = {in};
    int cid = g.addLayer(std::move(conv));
    Layer bn;
    bn.name = "bn1";
    bn.kind = LayerKind::BatchNorm;
    bn.attrs.inChannels = conv_out;
    bn.inputs = {cid};
    int bid = g.addLayer(std::move(bn));
    Layer act;
    act.name = "relu1";
    act.kind = LayerKind::ReLU;
    act.inputs = {bid};
    int aid = g.addLayer(std::move(act));
    Layer tok;
    tok.name = "tokens";
    tok.kind = LayerKind::ImageToTokens;
    tok.inputs = {aid};
    int tid = g.addLayer(std::move(tok));
    Layer ln;
    ln.name = "ln1";
    ln.kind = LayerKind::LayerNorm;
    ln.attrs.inFeatures = conv_out;
    ln.inputs = {tid};
    int lid = g.addLayer(std::move(ln));
    Layer fc;
    fc.name = "fc1";
    fc.kind = LayerKind::Linear;
    fc.attrs.inFeatures = conv_out;
    fc.attrs.outFeatures = lin_out;
    fc.inputs = {lid};
    int fid = g.addLayer(std::move(fc));
    Layer sm;
    sm.name = "sm1";
    sm.kind = LayerKind::Softmax;
    sm.inputs = {fid};
    g.addOutput(std::move(sm));
    return g;
}

Tensor
testInput()
{
    Rng rng(99);
    return Tensor::randn({1, 3, 8, 8}, rng);
}

void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.numel()) *
                              sizeof(float)),
              0);
}

TEST(WeightStore, DedupAndZeroCopyServing)
{
    Graph g = tinyMixedGraph();
    const Layer &conv = g.layer(g.findLayer("conv1"));

    WeightStore store;
    SharedLayerWeights a = store.get(1, conv, 0, 0);
    SharedLayerWeights b = store.get(1, conv, 0, 0);
    // Same key -> the exact same physical tensors, no copying.
    EXPECT_EQ(a.weight.get(), b.weight.get());
    EXPECT_EQ(a.bias.get(), b.bias.get());
    EXPECT_EQ(a.weight->shape(), (Shape{8, 3, 3, 3}));

    // A different seed is a different weight set.
    SharedLayerWeights c = store.get(2, conv, 0, 0);
    EXPECT_NE(c.weight.get(), a.weight.get());

    WeightStore::Stats stats = store.stats();
    EXPECT_EQ(stats.fullEntries, 2u);
    EXPECT_EQ(stats.sliceEntries, 0u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(WeightStore, PrunedSliceIsCachedAndMatchesFullPrefix)
{
    Graph g = tinyMixedGraph();
    Graph pruned = tinyMixedGraph();
    pruned.layer(pruned.findLayer("conv1")).attrs.outChannels = 5;
    const Layer &full_conv = g.layer(g.findLayer("conv1"));
    const Layer &pruned_conv =
        pruned.layer(pruned.findLayer("conv1"));

    WeightStore store;
    SharedLayerWeights full = store.get(7, full_conv, 8, 3);
    SharedLayerWeights s1 = store.get(7, pruned_conv, 8, 3);
    SharedLayerWeights s2 = store.get(7, pruned_conv, 8, 3);
    // The slice is materialized once and shared thereafter.
    EXPECT_EQ(s1.weight.get(), s2.weight.get());
    EXPECT_EQ(s1.weight->shape(), (Shape{5, 3, 3, 3}));
    // Slice contents are exactly the leading block of the full tensor.
    for (int64_t k = 0; k < 5; ++k)
        for (int64_t c = 0; c < 3; ++c)
            for (int64_t r = 0; r < 3; ++r)
                for (int64_t s = 0; s < 3; ++s)
                    EXPECT_EQ(s1.weight->at4(k, c, r, s),
                              full.weight->at4(k, c, r, s));

    WeightStore::Stats stats = store.stats();
    EXPECT_EQ(stats.fullEntries, 1u);
    EXPECT_EQ(stats.sliceEntries, 1u);
}

/** The store's per-layer weight seed: seed ^ FNV-1a(layer name). */
uint64_t
layerSeed(uint64_t seed, const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return seed ^ h;
}

TEST(WeightStore, ConvEntryHoldsOneCopyInGemmOrder)
{
    // conv1 is 3x3 over 3 channels. Its entry is packing the KCRS He
    // draw, bit for bit, and is the only resident copy; a slice pruned
    // in both K and C is packing the leading KCRS block.
    Graph g = tinyMixedGraph();
    Graph pruned = tinyMixedGraph();
    Layer &pruned_conv = pruned.layer(pruned.findLayer("conv1"));
    pruned_conv.attrs.outChannels = 5;
    pruned_conv.attrs.inChannels = 2;

    WeightStore store;
    SharedLayerWeights full =
        store.get(7, g.layer(g.findLayer("conv1")), 8, 3);
    Rng rng(layerSeed(7, "conv1"));
    const Tensor kcrs = Tensor::heInit({8, 3, 3, 3}, rng, 3 * 3 * 3);
    const Tensor bias = Tensor::randn({8}, rng, 0.0f, 0.01f);
    expectBitIdentical(*full.weight, packConvWeight(kcrs));
    expectBitIdentical(*full.bias, bias);
    EXPECT_EQ(store.stats().bytes, (8 * 3 * 3 * 3 + 8) * sizeof(float));

    SharedLayerWeights slice = store.get(7, pruned_conv, 8, 3);
    Tensor sliced({5, 2, 3, 3});
    for (int64_t k = 0; k < 5; ++k)
        for (int64_t c = 0; c < 2; ++c)
            for (int64_t r = 0; r < 3; ++r)
                for (int64_t s = 0; s < 3; ++s)
                    sliced.at4(k, c, r, s) = kcrs.at4(k, c, r, s);
    expectBitIdentical(*slice.weight, packConvWeight(sliced));
}

TEST(WeightStore, LinearEntryHoldsOnePackedCopy)
{
    // 64 output features fill two panels exactly, so the packed weight
    // is the only copy and adds no padding.
    Graph g = tinyMixedGraph(8, 64);
    const Layer &fc = g.layer(g.findLayer("fc1"));
    WeightStore store;
    SharedLayerWeights lw = store.get(1, fc, 0, 0);
    EXPECT_EQ(lw.weight->shape(), (Shape{2, 8, kGemmPanelCols}));
    EXPECT_EQ(lw.bias->shape(), (Shape{64}));
    EXPECT_EQ(store.stats().bytes, (64 * 8 + 64) * sizeof(float));
}

TEST(WeightStore, PrunedLinearSliceEqualsPackingTheSlicedWeight)
{
    // Full 70 x 8, served pruned to 37 x 5: both dims cut, and both
    // the full and the sliced weight end in a partial panel.
    Graph g = tinyMixedGraph(8, 70);
    Graph pruned = tinyMixedGraph(8, 70);
    pruned.layer(pruned.findLayer("fc1")).attrs.outFeatures = 37;
    pruned.layer(pruned.findLayer("fc1")).attrs.inFeatures = 5;
    WeightStore store;
    SharedLayerWeights full =
        store.get(7, g.layer(g.findLayer("fc1")), 70, 8);
    SharedLayerWeights slice =
        store.get(7, pruned.layer(pruned.findLayer("fc1")), 70, 8);

    const Tensor w = unpackLinearWeight(*full.weight, 70);
    Tensor sliced({37, 5});
    for (int64_t o = 0; o < 37; ++o)
        for (int64_t i = 0; i < 5; ++i)
            sliced.at2(o, i) = w.at2(o, i);
    expectBitIdentical(*slice.weight, packLinearWeight(sliced));
    ASSERT_EQ(slice.bias->numel(), 37);
    for (int64_t o = 0; o < 37; ++o)
        EXPECT_EQ((*slice.bias)[o], (*full.bias)[o]);
}

TEST(WeightStore, ExecutorParityAcrossStoresFp32AndInt8)
{
    // Cached (shared-store, second executor = pure cache hits) and
    // fresh-store executors must be memcmp-identical — the
    // bit-identity contract of the store.
    Graph g = tinyMixedGraph();
    const Tensor x = testInput();

    for (bool int8 : {false, true}) {
        WeightStore shared;
        Executor first(g, 5, &shared);
        first.setInt8(int8);
        Tensor y_first = first.runSimple(x);

        Executor cached(g, 5, &shared); // every weight is a cache hit
        cached.setInt8(int8);
        Tensor y_cached = cached.runSimple(x);

        WeightStore fresh;
        Executor uncached(g, 5, &fresh);
        uncached.setInt8(int8);
        Tensor y_uncached = uncached.runSimple(x);

        expectBitIdentical(y_cached, y_first);
        expectBitIdentical(y_cached, y_uncached);
    }
}

TEST(WeightStore, PrunedExecutorParityAcrossStores)
{
    // The slice-serving path is bit-identical too, int8 included.
    Graph pruned = tinyMixedGraph();
    pruned.layer(pruned.findLayer("conv1")).attrs.outChannels = 5;
    pruned.layer(pruned.findLayer("bn1")).attrs.inChannels = 5;
    pruned.layer(pruned.findLayer("ln1")).attrs.inFeatures = 5;
    pruned.layer(pruned.findLayer("fc1")).attrs.inFeatures = 5;
    pruned.recomputeShapes();
    const Tensor x = testInput();

    auto run = [&](WeightStore &store, bool int8) {
        Executor exec(pruned, 5, &store);
        exec.setFullDims("conv1", 8, 3);
        exec.setFullDims("bn1", 0, 8);
        exec.setFullDims("ln1", 0, 8);
        exec.setFullDims("fc1", 6, 8);
        exec.setInt8(int8);
        return exec.runSimple(x);
    };

    for (bool int8 : {false, true}) {
        WeightStore shared;
        Tensor y_first = run(shared, int8);
        Tensor y_cached = run(shared, int8);
        WeightStore fresh;
        Tensor y_uncached = run(fresh, int8);
        expectBitIdentical(y_cached, y_first);
        expectBitIdentical(y_cached, y_uncached);
    }
}

TEST(WeightStore, MutateWeightsIsCopyOnWrite)
{
    Graph g = tinyMixedGraph();
    const Tensor x = testInput();

    WeightStore store;
    Executor victim(g, 3, &store);
    Executor bystander(g, 3, &store);
    Tensor clean = bystander.runSimple(x);

    ASSERT_TRUE(victim.mutateWeights("conv1", [](Tensor &w) {
        for (int64_t i = 0; i < w.numel(); ++i)
            w[i] += 100.0f;
    }));
    Tensor damaged = victim.runSimple(x);
    EXPECT_FALSE(damaged.allClose(clean, 1e-3f));

    // The shared store tensor was not touched: the bystander and any
    // future executor still see pristine weights.
    expectBitIdentical(bystander.runSimple(x), clean);
    Executor later(g, 3, &store);
    expectBitIdentical(later.runSimple(x), clean);
}

TEST(WeightStore, WarmupMakesRunSynthesisFree)
{
    Graph g = tinyMixedGraph();
    WeightStore store;
    Executor exec(g, 21, &store);
    exec.warmupWeights();

    Counter &synth = MetricsRegistry::instance().counter("weights.synth");
    Counter &slices =
        MetricsRegistry::instance().counter("weights.slice_synth");
    const uint64_t synth_before = synth.value();
    const uint64_t slice_before = slices.value();
    exec.runSimple(testInput());
    EXPECT_EQ(synth.value(), synth_before);
    EXPECT_EQ(slices.value(), slice_before);
}

TEST(WeightStore, ClearDropsEntriesButOutstandingViewsSurvive)
{
    Graph g = tinyMixedGraph();
    const Layer &conv = g.layer(g.findLayer("conv1"));
    WeightStore store;
    SharedLayerWeights held = store.get(1, conv, 0, 0);
    const float first = held.weight->at4(0, 0, 0, 0);
    store.clear();
    EXPECT_EQ(store.stats().fullEntries, 0u);
    // Shared ownership keeps the tensor alive and intact.
    EXPECT_EQ(held.weight->at4(0, 0, 0, 0), first);
    // Re-synthesis after clear is a new allocation with equal bits.
    SharedLayerWeights again = store.get(1, conv, 0, 0);
    EXPECT_NE(again.weight.get(), held.weight.get());
    expectBitIdentical(*again.weight, *held.weight);
}

TEST(WeightStore, ConcurrentGetSynthesizesExactlyOnce)
{
    Graph g = tinyMixedGraph();
    Graph pruned = tinyMixedGraph();
    pruned.layer(pruned.findLayer("conv1")).attrs.outChannels = 5;
    const Layer &conv = g.layer(g.findLayer("conv1"));
    const Layer &pruned_conv =
        pruned.layer(pruned.findLayer("conv1"));

    WeightStore store;
    constexpr int kThreads = 8;
    std::vector<SharedLayerWeights> full_results(kThreads);
    std::vector<SharedLayerWeights> slice_results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            full_results[t] = store.get(1, conv, 8, 3);
            slice_results[t] = store.get(1, pruned_conv, 8, 3);
        });
    for (std::thread &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(full_results[t].weight.get(),
                  full_results[0].weight.get());
        EXPECT_EQ(slice_results[t].weight.get(),
                  slice_results[0].weight.get());
    }
    // Racing first callers collapsed onto one synthesis + one slice.
    WeightStore::Stats stats = store.stats();
    EXPECT_EQ(stats.fullEntries, 1u);
    EXPECT_EQ(stats.sliceEntries, 1u);
}

TEST(WeightStore, ConcurrentExecutorsShareOneStore)
{
    Graph g = tinyMixedGraph();
    const Tensor x = testInput();
    WeightStore store;
    Executor reference(g, 9, &store);
    const Tensor expected = reference.runSimple(x);

    constexpr int kThreads = 4;
    std::vector<Tensor> outputs(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            Executor exec(g, 9, &store);
            outputs[t] = exec.runSimple(x);
        });
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        expectBitIdentical(outputs[t], expected);
}

// ---- Engine-level executor caches built on the store ----

/** The tiny SegFormer + LUT of test_engine, for cache behavior. */
SegformerConfig
tinyEngineBase()
{
    SegformerConfig cfg;
    cfg.name = "segformer_tiny_ws_test";
    cfg.imageH = cfg.imageW = 64;
    cfg.numClasses = 6;
    cfg.embedDims = {8, 16, 24, 32};
    cfg.depths = {2, 2, 2, 2};
    cfg.numHeads = {1, 2, 3, 4};
    cfg.decoderDim = 32;
    return cfg;
}

std::vector<TradeoffPoint>
tinyEnginePoints()
{
    std::vector<TradeoffPoint> pts(3);
    pts[0].config = {"full", {2, 2, 2, 2}, 0, 0, 0, 1.0, 1.0};
    pts[0].normalizedUtil = 1.0;
    pts[0].absoluteUtil = 100.0;
    pts[0].normalizedMiou = 1.0;
    pts[1].config = {"mid", {2, 2, 2, 2}, 64, 0, 0, 0.8, 0.9};
    pts[1].normalizedUtil = 0.8;
    pts[1].absoluteUtil = 80.0;
    pts[1].normalizedMiou = 0.9;
    pts[2].config = {"small", {1, 1, 1, 1}, 48, 0, 0, 0.6, 0.7};
    pts[2].normalizedUtil = 0.6;
    pts[2].absoluteUtil = 60.0;
    pts[2].normalizedMiou = 0.7;
    return pts;
}

TEST(EngineWeightCache, RepeatSwitchPerformsZeroSynthesis)
{
    WeightStore store;
    DrtEngineOptions options;
    options.weightStore = &store;
    DrtEngine engine(ModelFamily::Segformer, tinyEngineBase(),
                     SwinConfig{},
                     AccuracyResourceLut(tinyEnginePoints(), "ms"), 23,
                     options);

    Counter &synth = MetricsRegistry::instance().counter("weights.synth");
    Counter &slices =
        MetricsRegistry::instance().counter("weights.slice_synth");
    Counter &cache_misses = MetricsRegistry::instance().counter(
        "engine.executor_cache_misses");
    Counter &cache_hits = MetricsRegistry::instance().counter(
        "engine.executor_cache_hits");

    // Prewarm materialized every path and synthesized every weight.
    const uint64_t synth_after_warm = synth.value();
    const uint64_t slice_after_warm = slices.value();
    const uint64_t misses_after_warm = cache_misses.value();
    const uint64_t hits_before = cache_hits.value();

    Rng rng(1);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    // Budget schedule that switches config every frame, revisiting
    // each config repeatedly.
    for (double budget : {100.0, 60.0, 80.0, 100.0, 60.0, 80.0})
        engine.infer(image, budget);

    // The acceptance criterion: repeat switches to previously used
    // configurations perform zero weight synthesis and zero executor
    // rebuilds — every switch is a cache hit.
    EXPECT_EQ(synth.value(), synth_after_warm);
    EXPECT_EQ(slices.value(), slice_after_warm);
    EXPECT_EQ(cache_misses.value(), misses_after_warm);
    EXPECT_GE(cache_hits.value(), hits_before + 6);
}

TEST(EngineWeightCache, BoundedLruEvictsButNeverResynthesizes)
{
    WeightStore store;
    DrtEngineOptions options;
    options.weightStore = &store;
    options.executorCacheCapacity = 1;
    options.prewarm = false;
    DrtEngine engine(ModelFamily::Segformer, tinyEngineBase(),
                     SwinConfig{},
                     AccuracyResourceLut(tinyEnginePoints(), "ms"), 29,
                     options);
    EXPECT_EQ(engine.numMaterializedPaths(), 0u);

    Rng rng(2);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    Counter &synth = MetricsRegistry::instance().counter("weights.synth");

    engine.infer(image, 60.0); // materialize "small"
    EXPECT_EQ(engine.numMaterializedPaths(), 1u);
    engine.infer(image, 100.0); // evicts "small", materializes "full"
    EXPECT_EQ(engine.numMaterializedPaths(), 1u);

    // Thrash back: the executor is rebuilt (capacity 1) but every
    // weight comes from the store — zero re-synthesis.
    const uint64_t synth_after = synth.value();
    engine.infer(image, 60.0);
    engine.infer(image, 100.0);
    EXPECT_EQ(engine.numMaterializedPaths(), 1u);
    EXPECT_EQ(synth.value(), synth_after);
}

TEST(EngineWeightCache, PathsShareStoreWeightsAcrossConfigs)
{
    // Two engines over the same store and seed produce bit-identical
    // outputs per config — and the store holds one full weight set.
    WeightStore store;
    DrtEngineOptions options;
    options.weightStore = &store;
    DrtEngine a(ModelFamily::Segformer, tinyEngineBase(), SwinConfig{},
                AccuracyResourceLut(tinyEnginePoints(), "ms"), 31,
                options);
    DrtEngine b(ModelFamily::Segformer, tinyEngineBase(), SwinConfig{},
                AccuracyResourceLut(tinyEnginePoints(), "ms"), 31,
                options);

    Rng rng(3);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    for (double budget : {60.0, 100.0}) {
        Tensor ya = a.infer(image, budget).output;
        Tensor yb = b.infer(image, budget).output;
        ASSERT_EQ(ya.shape(), yb.shape());
        EXPECT_EQ(std::memcmp(ya.data(), yb.data(),
                              static_cast<size_t>(ya.numel()) *
                                  sizeof(float)),
                  0);
    }
}

} // namespace
} // namespace vitdyn
