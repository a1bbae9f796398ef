#include "engine/path_cache.hh"

#include <chrono>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/logging.hh"

namespace vitdyn
{

void
registerFullDims(const Graph &full_graph, Executor &executor)
{
    for (const Layer &layer : full_graph.layers()) {
        switch (layer.kind) {
          case LayerKind::Conv2d:
            executor.setFullDims(layer.name, layer.attrs.outChannels,
                                 layer.attrs.inChannels);
            break;
          case LayerKind::Linear:
            executor.setFullDims(layer.name, layer.attrs.outFeatures,
                                 layer.attrs.inFeatures);
            break;
          case LayerKind::LayerNorm:
            executor.setFullDims(layer.name, 0, layer.attrs.inFeatures);
            break;
          case LayerKind::BatchNorm:
            executor.setFullDims(layer.name, 0, layer.attrs.inChannels);
            break;
          default:
            break;
        }
    }
}

PathCache::PathCache(PathCacheOptions options, uint64_t seed, Build build,
                     Configure configure)
    : options_(std::move(options)), seed_(seed), build_(std::move(build)),
      configure_(std::move(configure))
{
    vitdyn_assert(static_cast<bool>(build_), "PathCache needs a builder");
}

std::shared_ptr<MaterializedPath>
PathCache::acquire(size_t key)
{
    // References cached once: registration locks, increments do not.
    static Counter &hits =
        MetricsRegistry::instance().counter("engine.executor_cache_hits");
    static Counter &misses = MetricsRegistry::instance().counter(
        "engine.executor_cache_misses");
    static Histogram &switch_ms =
        MetricsRegistry::instance().histogram("engine.switch_ms");

    ++tick_;
    if (auto it = slots_.find(key); it != slots_.end()) {
        hits.add();
        it->second.lastUsed = tick_;
        return it->second.path;
    }

    misses.add();
    const auto t0 = std::chrono::steady_clock::now();
    ScopedSpan span(Tracer::instance(), "engine.materialize", "engine");

    PathSource source = build_(key);
    span.arg("path", source.label);
    // The executor holds a reference to the graph, so the path owns a
    // share of it and the cache only ever moves the shared_ptr.
    auto path = std::make_shared<MaterializedPath>();
    path->graph = std::move(source.graph);
    path->executor = std::make_unique<Executor>(*path->graph, seed_,
                                                options_.weightStore);
    if (source.fullDims)
        registerFullDims(*source.fullDims, *path->executor);
    path->executor->setConvAutotune(options_.convAutotune);
    if (configure_)
        configure_(*path->executor);
    // Synthesize (or fetch from the store) every weight now, so the
    // first frame on this path pays no lazy-synthesis stall and
    // switch_ms reflects the true cost of readying the path.
    path->executor->warmupWeights();

    if (options_.executorCacheCapacity > 0) {
        while (slots_.size() >= options_.executorCacheCapacity) {
            auto victim = slots_.begin();
            for (auto it = slots_.begin(); it != slots_.end(); ++it)
                if (it->second.lastUsed < victim->second.lastUsed)
                    victim = it;
            slots_.erase(victim);
        }
    }
    slots_[key] = Slot{path, tick_};

    switch_ms.observe(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    return path;
}

void
PathCache::reconfigure()
{
    if (!configure_)
        return;
    for (auto &[key, slot] : slots_)
        configure_(*slot.path->executor);
}

} // namespace vitdyn
