/**
 * @file
 * The dynamic real-time (DRT) inference engine of Section IV /
 * Figure 8.
 *
 * Given a per-inference resource utilization target, the engine looks
 * up the Pareto-optimal execution path that maximizes accuracy within
 * the target (the 'D' block), runs the corresponding pre-built model
 * graph with the shared pretrained weights, and returns the output
 * image together with the LUT's accuracy estimate.
 *
 * The engine maximizes accuracy under a resource constraint — the
 * inverse of most prior efficient-inference work, which minimizes
 * resources under an accuracy constraint. No retraining is involved:
 * all execution paths reuse one set of synthesized "pretrained"
 * weights (pruned layers read a slice of the full weight tensors, see
 * Executor::setFullDims).
 *
 * Graceful degradation: the paper's resilience to *architectural*
 * reduction extends here to *runtime* faults. With resilience enabled
 * the engine health-checks every inference, quarantines an execution
 * path whose output is numerically corrupt (NaN/Inf/blow-up), retries
 * on the next-best healthy Pareto entry, and returns the quarantined
 * path to service after a probation window. A long-running server
 * therefore survives transient activation corruption and persistent
 * per-path weight damage at a bounded accuracy cost, instead of
 * aborting.
 */

#ifndef VITDYN_ENGINE_ENGINE_HH
#define VITDYN_ENGINE_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/lut_check.hh"
#include "engine/lut.hh"
#include "engine/path_cache.hh"
#include "fault/fault.hh"
#include "resilience/sweep.hh"
#include "util/deadline.hh"
#include "util/status.hh"

namespace vitdyn
{

class RequestContext; // obs/request_context.hh

/** Outcome of one dynamic inference. */
struct DrtResult
{
    Tensor output;              ///< Segmentation logits (upsampled).
    std::string configLabel;    ///< Which execution path ran.
    double accuracyEstimate = 0;///< Normalized mIoU from the LUT.
    double resourceCost = 0;    ///< Modeled cost of the chosen path.
    bool budgetMet = false;     ///< False when even the cheapest path
                                ///< exceeded the budget (best effort).

    // --- graceful-degradation outcome ---
    bool degraded = false;      ///< A path other than the budget-optimal
                                ///< first choice ran (quarantine/retry).
    bool healthy = true;        ///< Output passed the health checks (or
                                ///< checks were disabled).
    int retries = 0;            ///< Extra executions this inference.
    size_t quarantinedPaths = 0;///< Paths in quarantine afterwards.
};

/** Degradation policy of the engine (see DESIGN.md fault model). */
struct EngineResilienceConfig
{
    /** Master switch for quarantine + retry (health checks follow
     *  the nested config independently, for observability). */
    bool enabled = false;

    /** Per-layer numeric checks applied to every path's executor. */
    HealthCheckConfig health;

    /** Bounded retries per inference after an unhealthy execution. */
    int maxRetries = 3;

    /** Inferences a quarantined path sits out before probation ends. */
    int probationFrames = 32;
};

/**
 * DrtEngine options: the shared path-cache policy (capacity, weight
 * store, conv autotune) plus prewarm and the load-time lint gate.
 */
struct DrtEngineOptions : PathCacheOptions
{
    /**
     * Materialize every Pareto-frontier path (and synthesize its
     * weights through the store) at engine construction, so the first
     * switch to any config pays nothing. With a bounded cache only
     * the `executorCacheCapacity` cheapest-first entries stay.
     */
    bool prewarm = true;

    /**
     * The load-time lint gate's cost oracle and memory budget. The
     * gate runs checkLutRow (analysis/lut_check.hh) once per LUT row;
     * a row with any Error finding — a bad field, an infeasible
     * config, a lint error, a stale cost against the oracle, a
     * certified peak over the budget — is permanently vetoed: never
     * selected, never prewarmed, counted on the lint.* metrics. The
     * engine keeps serving on the remaining rows (construction fails
     * only when nothing survives) and serves each of them from the
     * graph the check built.
     */
    LutCheckOptions lint;
};

/** DRT inference engine over one pretrained model and one LUT. */
class DrtEngine
{
  public:
    /**
     * Prepare an execution path for every LUT entry so the only
     * per-inference overhead beyond model execution is the lookup.
     * Paths materialize through a keep-warm cache (see
     * DrtEngineOptions): weights come from the shared WeightStore, so
     * even a cold materialization synthesizes nothing that any prior
     * executor of this family already forced.
     *
     * @param family      which builder the configs apply to.
     * @param seg_base    SegFormer base config (used when family is
     *                    Segformer).
     * @param swin_base   Swin base config (used when family is Swin).
     * @param lut         Pareto LUT from the resilience sweep.
     * @param seed        weight-synthesis seed shared by all paths.
     * @param options     cache/prewarm policy.
     */
    DrtEngine(ModelFamily family, const SegformerConfig &seg_base,
              const SwinConfig &swin_base, AccuracyResourceLut lut,
              uint64_t seed = 1, DrtEngineOptions options = {});

    // Path-cache and executor hooks refer back to this engine.
    DrtEngine(const DrtEngine &) = delete;
    DrtEngine &operator=(const DrtEngine &) = delete;

    /**
     * Validating factory for long-running deployments: returns a
     * recoverable error (instead of aborting) when the LUT is empty
     * or every row fails the lint gate. Like the constructor, it
     * vetoes a malformed row and serves the rest.
     */
    static Result<std::unique_ptr<DrtEngine>>
    create(ModelFamily family, const SegformerConfig &seg_base,
           const SwinConfig &swin_base, AccuracyResourceLut lut,
           uint64_t seed = 1, DrtEngineOptions options = {});

    /**
     * Select the execution path for @p resource_budget (in the LUT's
     * native unit). Falls back to the cheapest path when nothing fits.
     */
    const LutEntry &select(double resource_budget, bool *met) const;

    /**
     * Run one dynamic inference (self-healing when enabled). Never
     * fails: when every servable path is in probation it still runs
     * the best-effort path (the cheapest non-vetoed one) and reports
     * it through DrtResult::healthy. Emits a per-frame "drt.infer"
     * span (budget, chosen path, retries, health) nesting the
     * per-layer executor spans, and feeds the process-wide metrics
     * registry: drt.frames, drt.retries, drt.budget_misses,
     * drt.unhealthy_frames, drt.degraded_frames, drt.quarantine_entries
     * counters plus the drt.frame_latency_ms histogram (p50/p95/p99).
     */
    DrtResult infer(const Tensor &image, double resource_budget);

    /**
     * Serving variant of infer(): takes an optional wall-clock
     * deadline and reports failure as a typed recoverable Status
     * instead of best-effort output. Distinct codes let the caller
     * dispatch:
     *  - StatusCode::DeadlineExceeded — the deadline passed before
     *    the image ran (or between quarantine retries); nothing more
     *    is executed for it;
     *  - StatusCode::Quarantined — every path that could serve the
     *    request is out of rotation (lint veto or health probation).
     *    The turned-away request still counts as a frame that the
     *    quarantined paths sat out, so probation always ends.
     * On success the DrtResult is exactly what infer() would have
     * produced, including the degraded/retries reroute accounting.
     */
    Result<DrtResult> tryInfer(const Tensor &image,
                               double resource_budget,
                               Deadline deadline = {});

    /**
     * One dynamic-batch dispatch: every image runs on the single
     * execution path selected for @p resource_budget (the serve/
     * scheduler groups compatible requests up front), warm in the
     * shared path cache. Per-image outcomes: a mid-batch health
     * failure quarantines the path and reroutes the remaining images
     * to the next healthy config (bounded by the resilience
     * maxRetries budget across the batch);
     * an image whose entry in @p deadlines (parallel to @p images;
     * empty = no deadlines) expires before it runs gets
     * StatusCode::DeadlineExceeded and never executes.
     *
     * @p contexts (parallel to @p images; empty = unattributed, null
     * entries allowed) are request-observability contexts: image i
     * executes inside a RequestScope over contexts[i], so its layer
     * spans carry the request id and its engine/kernel/pool time
     * lands in that request's LatencyBreakdown.
     */
    std::vector<Result<DrtResult>>
    tryInferBatch(const std::vector<Tensor> &images,
                  double resource_budget,
                  const std::vector<Deadline> &deadlines = {},
                  const std::vector<RequestContext *> &contexts = {});

    /**
     * True when no path is currently servable: every non-vetoed
     * config is in health probation (or everything is vetoed), so
     * tryInfer/tryInferBatch answer StatusCode::Quarantined.
     */
    bool allServableQuarantined() const;

    /** Install the degradation policy; re-applies the per-executor
     *  configuration (health checks, injector hook) to every resident
     *  path. */
    void setResilience(const EngineResilienceConfig &config);

    const EngineResilienceConfig &resilience() const
    {
        return resilience_;
    }

    /**
     * Attach a fault injector (not owned; nullptr detaches). Every
     * path's per-layer activations flow through it — the hook for
     * fault campaigns.
     */
    void setFaultInjector(FaultInjector *injector);

    /** True while the path is out of rotation: lint-vetoed at load
     *  time (permanent) or health-quarantined (probation running). */
    bool isQuarantined(size_t path_index) const;

    /** Number of currently quarantined (incl. vetoed) paths. */
    size_t numQuarantined() const;

    /** True when the config failed the load-time lint gate. */
    bool isVetoed(size_t path_index) const;

    /** Number of lint-vetoed configs. */
    size_t numVetoed() const;

    const AccuracyResourceLut &lut() const { return lut_; }

    /**
     * Certified static peak-activation bound of the path's pruned
     * graph (analysis::certifiedPeakBytes), computed by the load-time
     * lint gate over the graph the path serves. 0 when the config is
     * infeasible (no graph; the row is vetoed).
     */
    size_t certifiedPeakBytes(size_t path_index) const;

    /** Per-config certified bounds, parallel to lut().entries() —
     *  the vector the admission controller consumes. */
    const std::vector<size_t> &certifiedPeakBytes() const
    {
        return certifiedPeakBytes_;
    }

    /** Graph of a prepared path (for inspection/tests; materializes
     *  the path if it is not currently cached). */
    const Graph &pathGraph(size_t index) const;

    /** Executor of a prepared path (for fault campaigns/tests;
     *  materializes the path if it is not currently cached). */
    Executor &pathExecutor(size_t index);

    size_t numPaths() const { return lut_.entries().size(); }

    /** Number of paths currently materialized (graph + executor). */
    size_t numMaterializedPaths() const { return paths_.size(); }

  private:
    /** The load-time lint verdicts for every LUT entry (engine.cc). */
    struct LintGate;

    /**
     * Run checkLutRow over every entry of @p lut: one verdict, graph
     * and certified peak bound per config, and an error when the LUT
     * is empty or no config survives.
     */
    static LintGate lintGate(ModelFamily family,
                             const SegformerConfig &seg_base,
                             const SwinConfig &swin_base,
                             const AccuracyResourceLut &lut,
                             const LutCheckOptions &options);

    /** Both public entry points construct through this, with the gate
     *  already run; it aborts when the LUT is empty or every config
     *  was vetoed. */
    DrtEngine(LintGate gate, AccuracyResourceLut &&lut, uint64_t seed,
              const DrtEngineOptions &options);

    /** The materialized path for LUT entry @p index (see PathCache). */
    std::shared_ptr<MaterializedPath> acquirePath(size_t index) const;

    /**
     * The one per-image inference loop behind infer, tryInfer and
     * tryInferBatch. An image whose deadline @p deadline expired never
     * runs (DeadlineExceeded). Every other image advances the
     * probation clock, then runs on the best healthy path for the
     * budget; an unhealthy output quarantines its path and retries on
     * the next-best one while @p attempts (the dispatch's shared
     * reroute count) stays below maxRetries. When nothing servable is
     * left, a serving caller gets StatusCode::Quarantined; with
     * @p best_effort (infer) the loop keeps running lookupHealthyIndex's
     * pick instead. The only place that feeds the drt.* metrics and
     * emits the per-frame "drt.infer" span.
     */
    Result<DrtResult> serveImage(const Tensor &image,
                                 double resource_budget,
                                 Deadline deadline, RequestContext *ctx,
                                 int &attempts, bool best_effort);

    /** Index of the best entry within budget, lookup() semantics. */
    size_t lookupIndex(double resource_budget, bool *met) const;

    /**
     * lookupIndex over non-quarantined paths only; falls back to the
     * cheapest healthy path, then to the plain lookup when everything
     * is quarantined.
     */
    size_t lookupHealthyIndex(double resource_budget, bool *met) const;

    /** Execute one prepared path (applies injector via the hook). On
     *  an unhealthy output, @p health_summary gets the report. */
    DrtResult runPath(size_t index, const Tensor &image,
                      std::string *health_summary);

    /** Take path @p index out of rotation for the probation window. */
    void quarantine(size_t index);

    /** (Re)attach health config + injector hook to an executor. */
    void configureExecutor(Executor &executor) const;

    AccuracyResourceLut lut_;
    Graph fullGraph_; ///< Unpruned reference for shared weight dims.
    /** The graph the lint gate built for each row, parallel to
     *  lut_.entries(); every materialization of a path shares it.
     *  Null for vetoed rows. */
    std::vector<std::shared_ptr<const Graph>> rowGraphs_;
    /** Materialized paths keyed by LUT index. */
    mutable PathCache paths_;
    /** Quarantine deadlines, parallel to lut_.entries() — kept apart
     *  from the path cache so probation survives eviction. */
    std::vector<uint64_t> quarantinedUntil_;
    /** Permanent lint vetoes, parallel to lut_.entries(): set once at
     *  construction, never selected or prewarmed afterwards. */
    std::vector<bool> configVetoed_;
    /** Certified peak-activation bounds, parallel to lut_.entries();
     *  0 for an infeasible (vetoed) config. */
    std::vector<size_t> certifiedPeakBytes_;
    EngineResilienceConfig resilience_;
    FaultInjector *injector_ = nullptr;
    /** Probation clock: one tick per image that is run or turned
     *  away as Quarantined. */
    uint64_t frame_ = 0;
};

} // namespace vitdyn

#endif // VITDYN_ENGINE_ENGINE_HH
