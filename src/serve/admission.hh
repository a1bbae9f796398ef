/**
 * @file
 * Admission control with graceful degradation along the LUT frontier.
 *
 * The controller is a pure decision function over a snapshot of live
 * health signals (serve queue depth/backlog, kernel-pool saturation,
 * engine quarantine counts) — no locks, no engine access — so the
 * submit path stays cheap and the policy is unit-testable in
 * isolation. Policy, in order:
 *
 *  1. hard backpressure: queue at capacity → typed rejection with a
 *     retry-after hint (quarantine never rejects here: the engine
 *     answers StatusCode::Quarantined itself, and every request it
 *     turns away advances its probation clock);
 *  2. graceful degradation: scale the requested budget down by the
 *     measured congestion pressure (weighted per priority class:
 *     Batch bends first, Critical last) and by what the deadline can
 *     still afford after the predicted queue wait — then walk the
 *     LUT frontier to the best config that fits;
 *  3. deadline feasibility: when even the cheapest config cannot
 *     finish before the deadline, reject now (StatusCode::Rejected,
 *     retry-after ≈ backlog drain time) instead of wasting queue
 *     space on a guaranteed miss;
 *  4. memory feasibility: with an activation-memory budget set, only
 *     configs whose *certified* static peak bound (the engine's
 *     load-time liveness analysis, not a guess) fits what in-flight
 *     work leaves free are eligible — memory pressure degrades to a
 *     smaller config first and rejects with retry-after when nothing
 *     fits.
 *
 * LUT costs are in the LUT's native (modeled) unit; `costScale`
 * converts them to wall milliseconds and is calibrated online by the
 * scheduler from actual dispatch times.
 */

#ifndef VITDYN_SERVE_ADMISSION_HH
#define VITDYN_SERVE_ADMISSION_HH

#include <array>
#include <cstdint>
#include <vector>

#include "engine/lut.hh"
#include "serve/serve.hh"
#include "util/deadline.hh"
#include "util/status.hh"

namespace vitdyn
{

/** Point-in-time health snapshot the decision is made against. */
struct HealthSignals
{
    size_t queueDepth = 0;      ///< Serve queue occupancy.
    double backlogCost = 0.0;   ///< Queued work, LUT cost units.
    double inflightCost = 0.0;  ///< Work executing right now.
    double poolQueueDepth = 0.0;///< Kernel-pool shards waiting.
    int poolThreads = 1;        ///< Kernel-pool concurrency.
    size_t quarantinedPaths = 0;///< Vetoed + probation paths.
    size_t totalPaths = 1;      ///< LUT configs overall.
    double costScale = 1.0;     ///< Wall ms per LUT cost unit (EWMA).
    /** Certified peak bytes of the work executing right now (the
     *  dispatched config's static bound; 0 = idle). */
    size_t inflightPeakBytes = 0;
};

/** Tuning knobs; the defaults serve the soak bench well. */
struct AdmissionOptions
{
    /** Hard queue cap; at or above it every submit is rejected. */
    size_t queueCapacity = 4096;

    /** Congestion weights (dimensionless pressures, see decide()). */
    double queuePressureWeight = 2.0;
    double poolPressureWeight = 0.5;
    double quarantinePressureWeight = 1.0;

    /** Per-class multiplier on congestion pressure: Batch degrades
     *  first, Critical holds its budget the longest. */
    std::array<double, kServeClasses> classPressure = {0.25, 1.0, 2.0};

    /** Margin on predicted cost when checking deadline feasibility
     *  (>1 leaves headroom for estimation error). */
    double deadlineSafety = 1.2;

    /** Floor for the retry-after backpressure hint. */
    double minRetryAfterMs = 1.0;

    /**
     * Activation-memory budget for admitted work, in bytes. When > 0
     * (and the controller was built with per-config certified peak
     * bounds), a config is only eligible while its bound fits
     * `memoryBudgetBytes - signals.inflightPeakBytes`. 0 disables
     * the memory policy.
     */
    size_t memoryBudgetBytes = 0;
};

/** What admission decided for one request. */
struct AdmissionDecision
{
    /** OK = admitted (possibly downgraded); otherwise the typed
     *  rejection to hand straight back to the tenant. */
    Status status;

    size_t configIndex = 0;     ///< Admitted LUT config.
    double effectiveBudget = 0; ///< Budget after degradation.
    double estimatedCost = 0;   ///< LUT cost of the admitted config.

    /** The congestion/deadline scaling bought a cheaper config than
     *  the requested budget would have on an idle system. */
    bool downgraded = false;

    double retryAfterMs = 0.0;  ///< Hint accompanying a rejection.
};

/** Pure admission policy over one LUT; see file comment. */
class AdmissionController
{
  public:
    /**
     * @p lut must outlive the controller (the engine's LUT does).
     * @p config_peak_bytes — certified peak-activation bounds
     * parallel to lut.entries() (DrtEngine::certifiedPeakBytes());
     * empty disables the memory policy, a 0 entry means "no bound,
     * always fits" (an infeasible config the engine vetoes).
     */
    explicit AdmissionController(
        const AccuracyResourceLut &lut, AdmissionOptions options = {},
        std::vector<size_t> config_peak_bytes = {});

    /**
     * Decide admission for a request of @p cls with @p
     * requested_budget and optional @p deadline, given @p signals
     * sampled at @p now. Thread-safe (const, no state).
     */
    AdmissionDecision decide(double requested_budget, ServeClass cls,
                             Deadline deadline, Deadline now,
                             const HealthSignals &signals) const;

    const AdmissionOptions &options() const { return options_; }

  private:
    /**
     * Index of the best memory-eligible frontier entry affordable at
     * @p budget (DrtEngine::lookupIndex semantics: the cheapest
     * eligible entry is the floor). @p memory_available caps the
     * certified peak bound; entries().size() is returned when no
     * entry fits it at all.
     */
    size_t indexForBudget(double budget, size_t memory_available,
                          bool *met) const;

    /** Does config @p index's certified bound fit @p available? */
    bool memoryFits(size_t index, size_t available) const;

    const AccuracyResourceLut &lut_;
    AdmissionOptions options_;
    /** Certified bounds parallel to lut_.entries(); may be empty. */
    std::vector<size_t> configPeakBytes_;
};

} // namespace vitdyn

#endif // VITDYN_SERVE_ADMISSION_HH
