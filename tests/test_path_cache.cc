/**
 * @file
 * Tests of PathCache, the materialization core both engines share:
 * LRU eviction order, shared ownership of evicted paths, the
 * engine.executor_cache_* / engine.switch_ms metrics (identical
 * whichever engine drives the cache), re-application of DrtEngine's
 * configure hook to resident paths, and materialize-on-miss through
 * DrtEngine::pathGraph / pathExecutor.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>

#include "engine/engine.hh"
#include "engine/model_switching.hh"
#include "fault/fault.hh"
#include "graph/weight_store.hh"
#include "obs/metrics.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

/** conv -> relu on an 8x8 image; @p channels varies per key. */
Graph
tinyConvGraph(int64_t channels)
{
    Graph g("tiny_path");
    int in = g.addInput("x", {1, 3, 8, 8});
    Layer conv;
    conv.name = "conv";
    conv.kind = LayerKind::Conv2d;
    conv.attrs.inChannels = 3;
    conv.attrs.outChannels = channels;
    conv.attrs.kernelH = conv.attrs.kernelW = 3;
    conv.attrs.padH = conv.attrs.padW = 1;
    conv.inputs = {in};
    int cid = g.addLayer(std::move(conv));
    Layer act;
    act.name = "relu";
    act.kind = LayerKind::ReLU;
    act.inputs = {cid};
    g.addOutput(std::move(act));
    return g;
}

Tensor
tinyInput()
{
    Rng rng(5);
    return Tensor::randn({1, 3, 8, 8}, rng);
}

/** A cache over tinyConvGraph(4 + key) that counts builds per key. */
class CountingCache
{
  public:
    CountingCache(size_t capacity, PathCache::Configure configure = {})
        : cache_(
              [&] {
                  PathCacheOptions options;
                  options.executorCacheCapacity = capacity;
                  options.weightStore = &store_;
                  options.convAutotune.enabled = false;
                  return options;
              }(),
              3,
              [this](size_t key) {
                  ++builds[key];
                  return PathSource{
                      "p" + std::to_string(key),
                      std::make_shared<const Graph>(
                          tinyConvGraph(4 + static_cast<int64_t>(key))),
                      nullptr};
              },
              std::move(configure))
    {
    }

    PathCache &cache() { return cache_; }
    WeightStore &store() { return store_; }

    std::map<size_t, int> builds;

  private:
    WeightStore store_;
    PathCache cache_;
};

TEST(PathCache, EvictsLeastRecentlyUsedAtCapacityOne)
{
    CountingCache c(1);
    c.cache().acquire(0);
    c.cache().acquire(0); // hit
    EXPECT_EQ(c.builds[0], 1);
    c.cache().acquire(1); // evicts 0
    EXPECT_EQ(c.cache().size(), 1u);
    c.cache().acquire(1); // hit
    EXPECT_EQ(c.builds[1], 1);
    c.cache().acquire(0); // rebuilt, evicts 1
    EXPECT_EQ(c.builds[0], 2);
    EXPECT_EQ(c.cache().size(), 1u);
}

TEST(PathCache, EvictsLeastRecentlyUsedAtCapacityTwo)
{
    CountingCache c(2);
    c.cache().acquire(0);
    c.cache().acquire(1);
    c.cache().acquire(0); // 1 is now the least recently used
    c.cache().acquire(2); // evicts 1
    EXPECT_EQ(c.cache().size(), 2u);
    c.cache().acquire(0); // hit
    EXPECT_EQ(c.builds[0], 1);
    c.cache().acquire(1); // rebuilt, evicts 2 (0 ran later)
    EXPECT_EQ(c.builds[1], 2);
    c.cache().acquire(2); // rebuilt, evicts 0
    EXPECT_EQ(c.builds[2], 2);
    c.cache().acquire(1); // hit
    EXPECT_EQ(c.builds[1], 2);
    c.cache().acquire(0); // rebuilt
    EXPECT_EQ(c.builds[0], 2);
    EXPECT_EQ(c.cache().size(), 2u);
}

TEST(PathCache, EvictedPathStaysValidForItsHolder)
{
    CountingCache c(1);
    std::shared_ptr<MaterializedPath> held = c.cache().acquire(0);
    c.cache().acquire(1); // evicts 0 from the cache
    ASSERT_EQ(c.cache().size(), 1u);

    // The holder's graph and executor still work, and compute what a
    // fresh executor over the same store and seed computes.
    const Tensor x = tinyInput();
    const Tensor y = held->executor->runSimple(x);
    Graph g = tinyConvGraph(4);
    Executor fresh(g, 3, &c.store());
    const Tensor ref = fresh.runSimple(x);
    ASSERT_EQ(y.shape(), ref.shape());
    EXPECT_EQ(std::memcmp(y.data(), ref.data(),
                          static_cast<size_t>(y.numel()) * sizeof(float)),
              0);
    EXPECT_EQ(held->graph->numLayers(), g.numLayers());
}

TEST(PathCache, ConfigureRunsOnMissAndOnReconfigure)
{
    int configured = 0;
    CountingCache c(0, [&configured](Executor &) { ++configured; });
    c.cache().acquire(0);
    c.cache().acquire(1);
    c.cache().acquire(0); // hit: no configure
    EXPECT_EQ(configured, 2);
    c.cache().reconfigure();
    EXPECT_EQ(configured, 4);
}

/** Hit/miss counter and switch_ms observation deltas of @p drive. */
struct SwitchCounts
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t switches = 0;

    bool operator==(const SwitchCounts &o) const
    {
        return hits == o.hits && misses == o.misses &&
               switches == o.switches;
    }
};

SwitchCounts
countSwitches(const std::function<void()> &drive)
{
    MetricsRegistry &registry = MetricsRegistry::instance();
    Counter &hits = registry.counter("engine.executor_cache_hits");
    Counter &misses = registry.counter("engine.executor_cache_misses");
    Histogram &switch_ms = registry.histogram("engine.switch_ms");
    const uint64_t h0 = hits.value();
    const uint64_t m0 = misses.value();
    const uint64_t s0 = switch_ms.snapshot("engine.switch_ms").count;
    drive();
    return {hits.value() - h0, misses.value() - m0,
            switch_ms.snapshot("engine.switch_ms").count - s0};
}

SegformerConfig
tinySegformer(const std::string &name, int64_t depth)
{
    SegformerConfig cfg;
    cfg.name = name;
    cfg.imageH = cfg.imageW = 64;
    cfg.numClasses = 6;
    cfg.embedDims = {8, 16, 24, 32};
    cfg.depths = {depth, depth, depth, depth};
    cfg.numHeads = {1, 2, 3, 4};
    cfg.decoderDim = 32;
    return cfg;
}

std::vector<TradeoffPoint>
tinyPoints()
{
    std::vector<TradeoffPoint> pts(2);
    pts[0].config = {"full", {2, 2, 2, 2}, 0, 0, 0, 1.0, 1.0};
    pts[0].normalizedUtil = 1.0;
    pts[0].absoluteUtil = 100.0;
    pts[0].normalizedMiou = 1.0;
    pts[1].config = {"small", {1, 1, 1, 1}, 64, 0, 0, 0.55, 0.8};
    pts[1].normalizedUtil = 0.55;
    pts[1].absoluteUtil = 55.0;
    pts[1].normalizedMiou = 0.8;
    return pts;
}

DrtEngineOptions
coldOptions(WeightStore *store, size_t capacity)
{
    DrtEngineOptions options;
    options.prewarm = false;
    options.executorCacheCapacity = capacity;
    options.weightStore = store;
    options.convAutotune.enabled = false;
    return options;
}

TEST(PathCache, SwitchMetricsAreTheSameWhicheverEngineDrivesIt)
{
    // The same acquire pattern (a, b, a, a) at capacity 1: three
    // misses, one hit, one switch_ms observation per miss.
    WeightStore store;
    DrtEngine drt(ModelFamily::Segformer, tinySegformer("drt", 2),
                  SwinConfig{}, AccuracyResourceLut(tinyPoints(), "ms"),
                  9, coldOptions(&store, 1));
    const SwitchCounts by_drt = countSwitches([&] {
        drt.pathExecutor(0);
        drt.pathExecutor(1);
        drt.pathExecutor(0);
        drt.pathExecutor(0);
    });

    std::vector<TrainedVariant> variants(2);
    variants[0].name = "tiny_b";
    variants[0].segConfig = tinySegformer("tiny_b", 2);
    variants[1].name = "tiny_a";
    variants[1].normalizedMiou = 0.8;
    variants[1].segConfig = tinySegformer("tiny_a", 1);
    AccuracyModel accuracy(PrunedModelKind::SegformerB2Ade);
    PathCacheOptions options;
    options.executorCacheCapacity = 1;
    options.weightStore = &store;
    options.convAutotune.enabled = false;
    ModelSwitchingEngine switching(
        ModelFamily::Segformer, variants, {}, accuracy,
        [](const Graph &g) { return static_cast<double>(g.totalFlops()); },
        9, options);
    ModelSwitchingEngine::Choice a;
    a.isTrainedVariant = true;
    a.name = "tiny_a";
    ModelSwitchingEngine::Choice b = a;
    b.name = "tiny_b";
    const SwitchCounts by_switching = countSwitches([&] {
        switching.acquireExecutor(a);
        switching.acquireExecutor(b);
        switching.acquireExecutor(a);
        switching.acquireExecutor(a);
    });

    EXPECT_EQ(by_drt.misses, 3u);
    EXPECT_EQ(by_drt.hits, 1u);
    EXPECT_EQ(by_drt.switches, 3u);
    EXPECT_TRUE(by_drt == by_switching)
        << "switching engine: " << by_switching.hits << " hits, "
        << by_switching.misses << " misses, " << by_switching.switches
        << " switch_ms observations";
}

TEST(PathCache, EngineReconfiguresResidentPaths)
{
    DrtEngine engine(ModelFamily::Segformer, tinySegformer("drt", 2),
                     SwinConfig{}, AccuracyResourceLut(tinyPoints(), "ms"),
                     9);
    ASSERT_EQ(engine.numMaterializedPaths(), engine.numPaths());

    EngineResilienceConfig resilience;
    resilience.health.enabled = true;
    resilience.health.exhaustive = true;
    engine.setResilience(resilience);
    for (size_t i = 0; i < engine.numPaths(); ++i)
        EXPECT_TRUE(engine.pathExecutor(i).healthChecks().enabled);

    // The injector hook reaches every resident executor, and
    // detaching removes it again.
    FaultPlan plan;
    plan.seed = 4;
    plan.specs.push_back({FaultKind::NaNPoison, "*", 1.0, 8, 0.0});
    FaultInjector injector(plan);
    engine.setFaultInjector(&injector);
    Rng rng(6);
    const Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    for (size_t i = 0; i < engine.numPaths(); ++i) {
        const size_t fired = injector.faultsFired();
        engine.pathExecutor(i).runSimple(image);
        EXPECT_GT(injector.faultsFired(), fired);
        EXPECT_FALSE(engine.pathExecutor(i).lastHealthReport().healthy);
    }
    engine.setFaultInjector(nullptr);
    for (size_t i = 0; i < engine.numPaths(); ++i) {
        const size_t fired = injector.faultsFired();
        engine.pathExecutor(i).runSimple(image);
        EXPECT_EQ(injector.faultsFired(), fired);
        EXPECT_TRUE(engine.pathExecutor(i).lastHealthReport().healthy);
    }
}

TEST(PathCache, EnginePathAccessorsMaterializeOnMiss)
{
    WeightStore store;
    DrtEngine engine(ModelFamily::Segformer, tinySegformer("drt", 2),
                     SwinConfig{}, AccuracyResourceLut(tinyPoints(), "ms"),
                     9, coldOptions(&store, 0));
    EXPECT_EQ(engine.numMaterializedPaths(), 0u);

    SwitchCounts counts = countSwitches([&] {
        EXPECT_GT(engine.pathGraph(1).numLayers(), 0u);
    });
    EXPECT_EQ(counts.misses, 1u);
    EXPECT_EQ(engine.numMaterializedPaths(), 1u);

    counts = countSwitches([&] { engine.pathExecutor(1); });
    EXPECT_EQ(counts.misses, 0u);
    EXPECT_EQ(counts.hits, 1u);

    counts = countSwitches([&] { engine.pathExecutor(0); });
    EXPECT_EQ(counts.misses, 1u);
    EXPECT_EQ(engine.numMaterializedPaths(), 2u);
}

} // namespace
} // namespace vitdyn
