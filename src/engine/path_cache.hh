/**
 * @file
 * The one materialization core both engines share: a bounded LRU of
 * execution paths (graph + weight-warmed executor) keyed by an index
 * the caller owns.
 *
 * DrtEngine keys it by LUT index (Section IV's switch between
 * pre-built paths over one weight set); ModelSwitchingEngine keys it
 * by its choice index (Section III's switch over trained variants
 * and pruned paths). A miss asks the caller's builder for the path
 * graph (DrtEngine hands over the graph its load-time row check
 * built, so a row's graph is built once per engine), builds the
 * executor over it on the shared WeightStore, registers the
 * reference graph's full dims so pruned paths slice the same
 * weights, installs conv autotuning, applies the caller's configure
 * hook and warms every weight. Entries are shared-owned, so an
 * evicted path stays valid for whoever still holds it.
 *
 * Metrics (one process-wide view of switch cost, whichever engine
 * drives the cache): engine.executor_cache_hits/misses counters, the
 * engine.switch_ms histogram (one observation per miss) and an
 * engine.materialize span per miss.
 */

#ifndef VITDYN_ENGINE_PATH_CACHE_HH
#define VITDYN_ENGINE_PATH_CACHE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "graph/executor.hh"

namespace vitdyn
{

/** Materialization policy shared by DrtEngine and
 *  ModelSwitchingEngine. */
struct PathCacheOptions
{
    /**
     * Max execution paths kept materialized (graph + executor and its
     * per-layer state). 0 means unbounded: every path used stays resident.
     * A bounded cache evicts the least-recently-acquired path; note
     * eviction also discards any persistent weight damage injected
     * into that path's executor (the replacement re-reads pristine
     * store weights).
     */
    size_t executorCacheCapacity = 0;

    /** Weight store for all paths; nullptr = process-wide instance. */
    WeightStore *weightStore = nullptr;

    /**
     * Measured conv execution-plan autotuning, applied to every
     * path's executor at materialization (see
     * tensor/kernels/conv_autotune.hh). Enabled by default: every
     * plan the tuner enumerates is exact, so the choice never changes
     * outputs, and shapes are measured once per process (tiny layers
     * are not measured at all). Set convAutotune.enabled = false to
     * fall back to the static Auto heuristic everywhere — the CI
     * determinism knob.
     */
    ConvAutotuneOptions convAutotune = {/*enabled=*/true};
};

/** A materialized execution path: the path graph and a weight-warmed
 *  executor that references it. */
struct MaterializedPath
{
    std::shared_ptr<const Graph> graph;
    std::unique_ptr<Executor> executor;
};

/** What the caller's builder returns for one key on a cache miss. */
struct PathSource
{
    std::string label; ///< Names the path in spans and logs.
    /** The path graph, shared with the caller: the path keeps it
     *  alive, so a graph the caller retains is never copied. */
    std::shared_ptr<const Graph> graph;
    /** Reference whose layer dims the path slices its weights from
     *  (registerFullDims); nullptr = the graph's own dims. Must
     *  outlive the cache. */
    const Graph *fullDims = nullptr;
};

/** Bounded LRU of materialized execution paths; see file comment. */
class PathCache
{
  public:
    using Build = std::function<PathSource(size_t key)>;
    using Configure = std::function<void(Executor &)>;

    /**
     * @param options    capacity, store and autotune policy.
     * @param seed       weight-synthesis seed of every executor.
     * @param build      graph builder, called once per miss.
     * @param configure  per-executor hook, applied before weight
     *                   warmup on every miss and by reconfigure().
     */
    PathCache(PathCacheOptions options, uint64_t seed, Build build,
              Configure configure = {});

    /**
     * The materialized path for @p key: a hit refreshes recency; a
     * miss materializes (see file comment) and evicts the
     * least-recently-acquired path beyond capacity.
     */
    std::shared_ptr<MaterializedPath> acquire(size_t key);

    /** Re-apply the configure hook to every resident path (after the
     *  state it reads changed). */
    void reconfigure();

    /** Number of resident paths. */
    size_t size() const { return slots_.size(); }

  private:
    struct Slot
    {
        std::shared_ptr<MaterializedPath> path;
        uint64_t lastUsed = 0; ///< Tick of the last acquire.
    };

    PathCacheOptions options_;
    uint64_t seed_;
    Build build_;
    Configure configure_;
    std::map<size_t, Slot> slots_;
    uint64_t tick_ = 0; ///< LRU clock.
};

/**
 * Register the full (unpruned) layer dimensions of @p full_graph on
 * @p executor so a pruned graph's executor slices the same weights
 * (the paper's "same model weights" property).
 */
void registerFullDims(const Graph &full_graph, Executor &executor);

} // namespace vitdyn

#endif // VITDYN_ENGINE_PATH_CACHE_HH
