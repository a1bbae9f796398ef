/**
 * @file
 * Reference executor: interprets a Graph against real tensors.
 *
 * Weights are synthesized deterministically per layer (He-initialized from
 * a seed mixed with the layer name), standing in for pretrained checkpoints
 * we do not have (see DESIGN.md substitutions). Because the same seed and
 * the same layer naming produce the same weights, a pruned graph derived
 * from a full graph shares the surviving weight slices with the original
 * — exactly the paper's "same model weights, different execution path"
 * property. Synthesis and slicing live in the shared WeightStore
 * (graph/weight_store.hh): each layer's full-size weight tensor is
 * generated once per process and every executor — of any pruned
 * configuration — receives immutable shared views, so building a new
 * executor for a configuration switch re-synthesizes nothing.
 */

#ifndef VITDYN_GRAPH_EXECUTOR_HH
#define VITDYN_GRAPH_EXECUTOR_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hh"
#include "graph/weight_store.hh"
#include "tensor/kernels/conv_autotune.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace vitdyn
{

/**
 * Numeric-health checking of per-layer activations.
 *
 * On the hot path every stride-th element of each layer output is
 * inspected (NaN, Inf, |x| beyond absLimit); exhaustive mode inspects
 * every element for debug runs and fault campaigns. A corruption that
 * slips through sampling at one layer is usually caught downstream:
 * NaN/Inf propagate through convolutions, norms and matmuls, touching
 * ever more elements.
 */
struct HealthCheckConfig
{
    bool enabled = false;
    bool exhaustive = false;   ///< Check every element (debug mode).
    int64_t sampleStride = 61; ///< Hot-path sampling stride (prime).
    float absLimit = 1e6f;     ///< |x| beyond this is unhealthy.
};

/** One layer that failed its post-execution health check. */
struct LayerHealthIssue
{
    std::string layer;
    int64_t nanCount = 0;
    int64_t infCount = 0;
    int64_t rangeCount = 0; ///< Finite but beyond absLimit.
    float maxAbs = 0.0f;    ///< Largest finite magnitude seen.
};

/** Aggregate health outcome of one Executor::run. */
struct HealthReport
{
    bool healthy = true;
    size_t layersChecked = 0;
    size_t elementsChecked = 0;
    std::vector<LayerHealthIssue> issues;

    /** "healthy" or a one-line description of the first issues. */
    std::string summary() const;
};

/** Runs a Graph on tensor inputs with synthetic deterministic weights. */
class Executor
{
  public:
    /**
     * @param graph  the model to execute (not owned; must outlive us).
     * @param seed   weight synthesis seed; equal seeds + layer names give
     *               equal weights.
     * @param store  weight store to synthesize through (not owned; must
     *               outlive us). Defaults to the process-wide
     *               WeightStore::instance(), so executors of the same
     *               model family share one physical weight copy; pass a
     *               standalone store to model an independent weight set.
     */
    explicit Executor(const Graph &graph, uint64_t seed = 1,
                      WeightStore *store = nullptr);

    /**
     * Record the full (unpruned) dimensions for a layer so a pruned
     * executor slices instead of regenerating. Extents beyond the
     * layer's current dims must be >= the current ones.
     */
    void setFullDims(const std::string &layer_name, int64_t full_out,
                     int64_t full_in);

    /**
     * Execute conv and linear layers through the INT8 path (symmetric
     * per-tensor quantization with int32 accumulation) — the
     * arithmetic the Section V accelerator performs. Everything else
     * stays float.
     */
    void setInt8(bool enable) { int8_ = enable; }
    bool int8() const { return int8_; }

    /**
     * Synthesize (or fetch from the store) every weight tensor of the
     * graph now, instead of lazily on first run(). An engine calls
     * this when materializing an execution path so the first frame
     * after a configuration switch pays no synthesis stall.
     */
    void warmupWeights();

    /**
     * Configure measured conv-plan autotuning. When enabled,
     * warmupWeights() asks the process-wide ConvPlanCache for the
     * tuned plan of every conv layer's shape (measuring unseen shapes
     * once) and keeps each layer's winner; run() then executes those
     * plans instead of the static Auto heuristic. Disabled executors
     * behave exactly as before.
     */
    void setConvAutotune(const ConvAutotuneOptions &options)
    {
        autotune_ = options;
    }

    const ConvAutotuneOptions &convAutotune() const { return autotune_; }

    /** Run the graph; @p inputs maps graph-input name to tensor. The
     *  run takes ownership of the tensors: pass an rvalue to avoid a
     *  copy. */
    std::map<std::string, Tensor>
    run(std::map<std::string, Tensor> inputs);

    /** Single-input single-output convenience wrapper. */
    Tensor runSimple(const Tensor &input);

    /** Activation-memory accounting of the most recent run(). */
    struct RunStats
    {
        size_t peakLiveTensors = 0;
        size_t peakLiveBytes = 0;  ///< fp32 activation bytes.
        size_t totalBytes = 0;     ///< Sum of all layer outputs.
        /** Bytes not allocated because an annotated layer stole its
         *  first input's buffer (sum over in-place reuses). */
        size_t stealReuseBytes = 0;
    };

    /**
     * Stats from the last run. The executor frees each activation
     * after its final consumer executes, so peakLiveBytes is far
     * below totalBytes on deep graphs.
     */
    const RunStats &lastRunStats() const { return stats_; }

    /**
     * Certified static peak-activation bound for this graph, computed
     * at construction by the independent liveness analyzer
     * (analysis::certifiedPeakBytes). Sound for every execution mode:
     * in-place steals only reduce the runtime peak and int8 mode
     * disables them, so lastRunStats().peakLiveBytes never exceeds
     * this (debug builds assert it after every run).
     */
    size_t certifiedPeakBytes() const { return certifiedPeakBytes_; }

    /**
     * Hook invoked after each non-input layer executes, with mutable
     * access to its output — the fault-injection point. Runs before
     * the health check so injected corruption is observable.
     */
    using PostLayerHook = std::function<void(const Layer &, Tensor &)>;

    void setPostLayerHook(PostLayerHook hook)
    {
        postHook_ = std::move(hook);
    }

    /** Enable/configure per-layer numeric-health checks. */
    void setHealthChecks(const HealthCheckConfig &config)
    {
        health_ = config;
    }

    const HealthCheckConfig &healthChecks() const { return health_; }

    /** Health outcome of the most recent run(). */
    const HealthReport &lastHealthReport() const { return healthReport_; }

    /**
     * Mutate this executor's copy of the named layer's weight tensor
     * (synthesizing it first if needed) — the persistent-fault
     * injection point. Copy-on-write: the shared store tensor is
     * cloned into executor-local storage before mutation, so weight
     * damage never leaks to other executors sharing the store. A
     * Linear weight reaches @p fn in its [out, in] form and a Conv2d
     * weight in KCRS, each packed again afterwards, so @p fn sees the
     * documented layout (tensor/ops.hh) whatever the store holds.
     * Returns false when the layer does not exist or carries no
     * weights.
     */
    bool mutateWeights(const std::string &layer_name,
                       const std::function<void(Tensor &)> &fn);

  private:
    /** Fetch (and cache) the shared weight views for a layer. */
    const SharedLayerWeights &weightsFor(const Layer &layer);

    /** The store's weights for @p layer under its registered full
     *  dims (uncached). */
    SharedLayerWeights fetch(const Layer &layer) const;

    /**
     * Precomputed per-channel scale/shift of a conv layer's fused
     * BatchNorm epilogue (graph/passes/ fusion). The constants are
     * computed with exactly batchNorm()'s per-channel expressions
     * from the original BN layer's store tensors, so applying them is
     * bit-identical to running the unfused BatchNorm layer.
     */
    struct ConvEpilogue
    {
        std::vector<float> scale;
        std::vector<float> shift;
        bool affine = false; ///< False when only an activation fused.
    };

    /** Build (and cache) the epilogue constants for a fused conv. */
    const ConvEpilogue &epilogueFor(const Layer &layer);

    Tensor execute(const Layer &layer, const std::vector<Tensor *> &ins);

    /**
     * Execute an elementwise layer directly on @p x (the moved-in
     * first input) — the in-place buffer-reuse path taken when the
     * pass framework annotated the layer and run() verified this
     * layer is the buffer's final consumer.
     */
    void executeInPlace(const Layer &layer, Tensor &x,
                        const std::vector<Tensor *> &ins);

    /** Append @p tensor's health to healthReport_. */
    void checkHealth(const Layer &layer, const Tensor &tensor);

    /** Tune the plan of every conv layer (warmup helper). */
    void tuneConvPlans();

    const Graph &graph_;
    uint64_t seed_;
    WeightStore *store_;
    bool int8_ = false;
    ConvAutotuneOptions autotune_;
    RunStats stats_;
    /** Static bound from the liveness analyzer (see accessor). */
    size_t certifiedPeakBytes_ = 0;
    HealthCheckConfig health_;
    HealthReport healthReport_;
    PostLayerHook postHook_;
    std::map<std::string, std::pair<int64_t, int64_t>> fullDims_;

    /** What the executor keeps for one layer across runs. */
    struct LayerState
    {
        /** The store's views (or a mutated copy); null until fetched. */
        SharedLayerWeights weights;
        std::optional<ConvEpilogue> epilogue;
        /** Autotuned conv plan; unset runs the static Auto heuristic. */
        std::optional<Conv2dPlan> convPlan;
    };

    /** Indexed by layer id, sized at construction. */
    std::vector<LayerState> layers_;
};

} // namespace vitdyn

#endif // VITDYN_GRAPH_EXECUTOR_HH
