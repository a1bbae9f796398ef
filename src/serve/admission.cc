#include "serve/admission.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace vitdyn
{

AdmissionController::AdmissionController(
    const AccuracyResourceLut &lut, AdmissionOptions options,
    std::vector<size_t> config_peak_bytes)
    : lut_(lut), options_(options),
      configPeakBytes_(std::move(config_peak_bytes))
{
    vitdyn_assert(!lut_.empty(),
                  "AdmissionController needs a non-empty LUT");
    vitdyn_assert(options_.queueCapacity > 0,
                  "queueCapacity must be >= 1");
    vitdyn_assert(options_.deadlineSafety >= 1.0,
                  "deadlineSafety must be >= 1");
    vitdyn_assert(configPeakBytes_.empty() ||
                      configPeakBytes_.size() == lut_.entries().size(),
                  "config_peak_bytes must parallel the LUT entries");
}

bool
AdmissionController::memoryFits(size_t index, size_t available) const
{
    if (index >= configPeakBytes_.size())
        return true; // no bounds supplied: memory policy disabled
    const size_t peak = configPeakBytes_[index];
    return peak == 0 || peak <= available; // 0 = no bound, always fits
}

size_t
AdmissionController::indexForBudget(double budget,
                                    size_t memory_available,
                                    bool *met) const
{
    const std::vector<LutEntry> &entries = lut_.entries();
    size_t best = entries.size();
    size_t floor_fit = entries.size(); // cheapest eligible entry
    for (size_t i = 0; i < entries.size(); ++i) {
        if (!memoryFits(i, memory_available))
            continue;
        if (floor_fit == entries.size())
            floor_fit = i;
        if (entries[i].resourceCost > budget)
            break; // ascending cost: nothing later fits either
        if (best == entries.size() ||
            entries[i].accuracyEstimate >
                entries[best].accuracyEstimate)
            best = i;
    }
    if (best < entries.size()) {
        if (met)
            *met = true;
        return best;
    }
    if (met)
        *met = false;
    return floor_fit; // entries.size() when nothing fits memory
}

AdmissionDecision
AdmissionController::decide(double requested_budget, ServeClass cls,
                            Deadline deadline, Deadline now,
                            const HealthSignals &signals) const
{
    AdmissionDecision decision;

    // Predicted wall-clock wait before this request would dispatch:
    // everything queued plus everything mid-flight, at the measured
    // wall-ms-per-cost-unit rate.
    const double wait_ms =
        (signals.backlogCost + signals.inflightCost) *
        signals.costScale;
    const double retry_after =
        std::max(options_.minRetryAfterMs, wait_ms);

    // 1. Hard backpressure.
    if (signals.queueDepth >= options_.queueCapacity) {
        decision.status = Status::error(
            StatusCode::Rejected, "serve queue at capacity");
        decision.retryAfterMs = retry_after;
        return decision;
    }
    // Quarantine is not a reject reason here: the signal is a
    // snapshot only a dispatch refreshes, and the engine both owns
    // the verdict (StatusCode::Quarantined) and needs the request to
    // advance its probation clock.

    // 2. Graceful degradation: congestion pressure scales the budget
    // down so heavier load slides requests toward cheaper frontier
    // entries before anything is rejected.
    const double queue_pressure =
        static_cast<double>(signals.queueDepth) /
        static_cast<double>(options_.queueCapacity);
    const double pool_pressure =
        signals.poolQueueDepth /
        std::max(1, signals.poolThreads);
    const double quarantine_pressure =
        signals.totalPaths > 0
            ? static_cast<double>(signals.quarantinedPaths) /
                  static_cast<double>(signals.totalPaths)
            : 0.0;
    const double pressure =
        (options_.queuePressureWeight * queue_pressure +
         options_.poolPressureWeight * pool_pressure +
         options_.quarantinePressureWeight * quarantine_pressure) *
        options_.classPressure[static_cast<size_t>(cls)];

    double effective = requested_budget / (1.0 + pressure);

    // 3. Deadline feasibility: after the predicted wait, how much
    // model can the remaining time still afford?
    if (deadlineSet(deadline)) {
        const double remaining_ms = msUntil(deadline, now);
        const double affordable =
            (remaining_ms - wait_ms) /
            (std::max(signals.costScale, 1e-9) *
             options_.deadlineSafety);
        if (affordable < lut_.cheapest().resourceCost) {
            decision.status = Status::error(
                StatusCode::Rejected,
                "deadline infeasible even on the cheapest config");
            decision.retryAfterMs = retry_after;
            return decision;
        }
        effective = std::min(effective, affordable);
    }

    // 4. Memory feasibility: certified peak bounds minus what the
    // in-flight config already holds. Only active when the options
    // set a budget and the controller was built with bounds.
    size_t memory_available = std::numeric_limits<size_t>::max();
    size_t idle_memory = std::numeric_limits<size_t>::max();
    if (options_.memoryBudgetBytes > 0 && !configPeakBytes_.empty()) {
        idle_memory = options_.memoryBudgetBytes;
        memory_available =
            options_.memoryBudgetBytes > signals.inflightPeakBytes
                ? options_.memoryBudgetBytes - signals.inflightPeakBytes
                : 0;
    }

    bool met = false;
    decision.configIndex = indexForBudget(effective, memory_available,
                                          &met);
    if (decision.configIndex >= lut_.entries().size()) {
        decision.status = Status::error(
            StatusCode::Rejected,
            "no config's certified peak memory fits the activation "
            "budget");
        decision.retryAfterMs = retry_after;
        return decision;
    }
    const LutEntry &chosen = lut_.entries()[decision.configIndex];
    decision.effectiveBudget = effective;
    decision.estimatedCost = chosen.resourceCost;

    // Downgraded relative to what the raw budget buys on an idle
    // system (full memory budget, no congestion) — the "walked down
    // the frontier" marker, for cost and memory pressure alike.
    bool ideal_met = false;
    const size_t ideal =
        indexForBudget(requested_budget, idle_memory, &ideal_met);
    decision.downgraded =
        ideal < lut_.entries().size() &&
        lut_.entries()[ideal].accuracyEstimate >
            chosen.accuracyEstimate;

    decision.status = Status::ok();
    return decision;
}

} // namespace vitdyn
