/**
 * @file
 * Model switching vs dynamic pruning (the comparison behind Fig 6/7's
 * trained-model squares): the combined Pareto frontier over pruned
 * paths of the big pretrained model and the smaller retrained
 * variants, and the crossover point where the paper recommends
 * switching models.
 */

#include "bench_common.hh"

#include <chrono>

#include "engine/engine.hh"
#include "engine/model_switching.hh"
#include "graph/weight_store.hh"
#include "util/logging.hh"
#include "profile/gpu_model.hh"

namespace vitdyn
{
namespace
{

double
elapsedMs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The pre-WeightStore switch: build everything from scratch, private
 *  weights. A fresh store per switch reproduces the old re-synthesis. */
double
rebuildSwitchMs(const ModelSwitchingEngine &engine,
                const ModelSwitchingEngine::Choice &choice,
                const Graph &reference)
{
    const auto t0 = std::chrono::steady_clock::now();
    WeightStore fresh;
    Graph g = engine.buildChoice(choice);
    Executor exec(g, 1, &fresh);
    if (!choice.isTrainedVariant)
        registerFullDims(reference, exec);
    exec.warmupWeights();
    return elapsedMs(t0);
}

/**
 * Measured config-switch latency, rebuild vs shared-store cache: the
 * bugfix this PR exists for. Cycles a budget schedule that revisits
 * three frontier configs; the rebuild path re-synthesizes weights on
 * every switch, the cached path serves repeats from the executor LRU.
 */
void
reportSwitchLatency()
{
    GpuLatencyModel gpu;
    AccuracyModel acc(PrunedModelKind::SegformerB2Ade);
    WeightStore store;
    PathCacheOptions options;
    options.weightStore = &store;
    ModelSwitchingEngine engine(
        ModelFamily::Segformer, segformerTrainedVariants(),
        segformerAdePruneCatalog(), acc,
        [&](const Graph &g) { return gpu.graphTimeMs(g); }, 1, options);

    // Cheapest, middle and most expensive frontier entries.
    const auto &entries = engine.lut().entries();
    const size_t picks[] = {0, entries.size() / 2, entries.size() - 1};
    std::vector<ModelSwitchingEngine::Choice> choices;
    for (size_t index : picks)
        choices.push_back(
            engine.select(entries[index].resourceCost * 1.0001));

    const Graph reference =
        buildSegformer(segformerTrainedVariants()[0].segConfig);

    Table table("Config-switch latency: rebuild vs shared-store cache",
                {"Config", "Rebuild ms", "Cold cache ms", "Hot cache ms",
                 "Hot speedup"});
    constexpr int kRounds = 3;
    double rebuild_total = 0.0;
    double cached_total = 0.0;
    for (const auto &choice : choices) {
        double rebuild_sum = 0.0;
        for (int round = 0; round < kRounds; ++round)
            rebuild_sum += rebuildSwitchMs(engine, choice, reference);
        const double rebuild_mean = rebuild_sum / kRounds;

        auto t0 = std::chrono::steady_clock::now();
        auto held = engine.acquireExecutor(choice); // miss: materialize
        const double cold_ms = elapsedMs(t0);
        double hot_sum = 0.0;
        for (int round = 0; round < kRounds; ++round) {
            t0 = std::chrono::steady_clock::now();
            held = engine.acquireExecutor(choice); // repeat switch: hit
            hot_sum += elapsedMs(t0);
        }
        const double hot_mean = hot_sum / kRounds;

        rebuild_total += kRounds * rebuild_mean;
        cached_total += cold_ms + (kRounds - 1) * hot_mean;
        table.addRow({choice.name, Table::num(rebuild_mean, 3),
                      Table::num(cold_ms, 3), Table::num(hot_mean, 4),
                      Table::num(rebuild_mean /
                                     std::max(hot_mean, 1e-6),
                                 1) +
                          "x"});
    }
    emitTable(table, "model_switching_latency");
    inform("schedule of ", kRounds, "x", choices.size(),
           " switches: rebuild ", Table::num(rebuild_total, 1),
           " ms, cached ", Table::num(cached_total, 1), " ms (",
           Table::num(rebuild_total / std::max(cached_total, 1e-6), 1),
           "x)");
}

void
reportFamily(const char *title, ModelSwitchingEngine &engine,
             const std::string &csv)
{
    Table table(title, {"Entry", "Kind", "Norm cost", "Norm accuracy"});
    for (const LutEntry &e : engine.lut().entries()) {
        const bool trained = e.config.label.rfind("trained:", 0) == 0;
        table.addRow({e.config.label, trained ? "trained" : "pruned",
                      Table::num(e.normalizedCost, 3),
                      Table::num(e.accuracyEstimate, 3)});
    }
    emitTable(table, csv);
    inform("switchover: below ",
           Table::num(100 * engine.switchoverNormalizedCost(), 1),
           "% of the full model's cost, only trained variants remain "
           "on the frontier");
}

void
produceTables()
{
    GpuLatencyModel gpu;
    auto cost = [&](const Graph &g) { return gpu.graphTimeMs(g); };

    {
        AccuracyModel acc(PrunedModelKind::SegformerB2Ade);
        ModelSwitchingEngine engine(ModelFamily::Segformer,
                                    segformerTrainedVariants(),
                                    segformerAdePruneCatalog(), acc,
                                    cost);
        reportFamily("SegFormer (ADE20K): pruned vs trained frontier",
                     engine, "model_switching_segformer");
    }
    {
        AccuracyModel acc(PrunedModelKind::SwinBaseAde);
        ModelSwitchingEngine engine(ModelFamily::Swin,
                                    swinTrainedVariants(),
                                    swinBasePruneCatalog(), acc, cost);
        reportFamily("Swin (ADE20K): pruned vs trained frontier",
                     engine, "model_switching_swin");
    }

    Table claims("Published switching guidance", {"Claim"});
    claims.addRow({"SegFormer: pruning competitive up to ~25% savings;"
                   " switch to retrained models for ~50%"});
    claims.addRow({"Swin: switch Base->Tiny beyond ~20% savings;"
                   " Small never clearly beats pruned Base"});
    claims.print();

    reportSwitchLatency();
}

void
BM_BuildSwitchingEngine(benchmark::State &state)
{
    GpuLatencyModel gpu;
    AccuracyModel acc(PrunedModelKind::SegformerB2Ade);
    for (auto _ : state) {
        ModelSwitchingEngine engine(
            ModelFamily::Segformer, segformerTrainedVariants(),
            segformerAdePruneCatalog(), acc,
            [&](const Graph &g) { return gpu.graphTimeMs(g); });
        benchmark::DoNotOptimize(engine.switchoverNormalizedCost());
    }
}
BENCHMARK(BM_BuildSwitchingEngine);

void
BM_SwitchRebuild(benchmark::State &state)
{
    GpuLatencyModel gpu;
    AccuracyModel acc(PrunedModelKind::SegformerB2Ade);
    ModelSwitchingEngine engine(
        ModelFamily::Segformer, segformerTrainedVariants(),
        segformerAdePruneCatalog(), acc,
        [&](const Graph &g) { return gpu.graphTimeMs(g); });
    const auto choice = engine.select(
        engine.lut().entries().front().resourceCost * 1.0001);
    const Graph reference =
        buildSegformer(segformerTrainedVariants()[0].segConfig);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            rebuildSwitchMs(engine, choice, reference));
}
BENCHMARK(BM_SwitchRebuild);

void
BM_SwitchCachedHit(benchmark::State &state)
{
    GpuLatencyModel gpu;
    AccuracyModel acc(PrunedModelKind::SegformerB2Ade);
    WeightStore store;
    PathCacheOptions options;
    options.weightStore = &store;
    ModelSwitchingEngine engine(
        ModelFamily::Segformer, segformerTrainedVariants(),
        segformerAdePruneCatalog(), acc,
        [&](const Graph &g) { return gpu.graphTimeMs(g); }, 1, options);
    const auto choice = engine.select(
        engine.lut().entries().front().resourceCost * 1.0001);
    auto held = engine.acquireExecutor(choice); // warm the cache
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.acquireExecutor(choice));
}
BENCHMARK(BM_SwitchCachedHit);

} // namespace
} // namespace vitdyn

VITDYN_BENCH_MAIN(vitdyn::produceTables)
