/**
 * @file
 * LUT cross-checking: catches stale or corrupt accuracy/resource rows
 * before a serving engine trusts them.
 *
 * A LUT is built offline and loaded from operator-supplied files, so
 * its rows can drift out of sync with the code that builds graphs
 * (builder changes, prune-rule changes, hand edits). checkLutRow is
 * the one row check: it rebuilds the row's pruned graph and
 * cross-checks
 *
 *  - the row's fields: label, cost, normalized cost and accuracy
 *    estimate, and its place in the ascending cost order,
 *  - feasibility: the config passes validatePrune and its graph lints
 *    clean of errors (lut.config / graph-level findings),
 *  - the certified peak-activation bound against an optional memory
 *    budget (lut.memory-budget, Error),
 *  - exact resource cost, when the caller supplies the same GraphCostFn
 *    the LUT was generated with (lut.stale-cost, Error severity — this
 *    is the stale-row detector), and
 *  - normalized-cost vs recomputed-FLOP-ratio drift at a loose
 *    tolerance (lut.flop-drift, Warning — native cost units are not
 *    FLOPs, so only gross drift is flagged without a cost function).
 *
 * checkLut runs it over every row; the DrtEngine load gate runs it
 * once per row and serves each surviving row from the graph it built.
 */

#ifndef VITDYN_ANALYSIS_LUT_CHECK_HH
#define VITDYN_ANALYSIS_LUT_CHECK_HH

#include <memory>

#include "analysis/lint.hh"
#include "engine/lut.hh"
#include "resilience/sweep.hh"

namespace vitdyn
{

/** The optional exact-cost oracle and memory budget. */
struct LutCheckOptions
{
    /**
     * The cost function the LUT was generated with. When set, each
     * row's resourceCost is recomputed from its rebuilt graph and a
     * relative mismatch beyond 5% is an Error ("lut.stale-cost").
     * When empty, only the loose FLOP-ratio Warning applies.
     */
    GraphCostFn cost;

    /**
     * When > 0, a row whose certified static peak-activation bound
     * (analysis::certifiedPeakBytes) exceeds the budget is an Error
     * ("lut.memory-budget") — the engine turns it into a load-time
     * config veto, so its peak activation memory is provably below
     * the budget.
     */
    size_t memoryBudgetBytes = 0;
};

/** The verdict of one LUT row (see checkLutRow). */
struct LutRowCheck
{
    /** The row's findings; any Error vetoes the row. */
    LintReport report;
    /** The rebuilt graph; null when the config is infeasible. */
    std::shared_ptr<const Graph> graph;
    /** analysis::certifiedPeakBytes of graph; 0 when it is null. */
    size_t certifiedPeakBytes = 0;
};

/**
 * Check row @p index of @p lut against its graph rebuilt from
 * @p family's base config (see file comment). @p full_flops is the
 * unpruned graph's FLOP count for the drift check. Diagnostics carry
 * the row's config label in their message.
 */
LutRowCheck checkLutRow(const AccuracyResourceLut &lut, size_t index,
                        ModelFamily family,
                        const SegformerConfig &seg_base,
                        const SwinConfig &swin_base, double full_flops,
                        const LutCheckOptions &options = {});

/** checkLutRow over every row of @p lut, in one report. */
LintReport checkLut(const AccuracyResourceLut &lut, ModelFamily family,
                    const SegformerConfig &seg_base,
                    const SwinConfig &swin_base,
                    const LutCheckOptions &options = {});

} // namespace vitdyn

#endif // VITDYN_ANALYSIS_LUT_CHECK_HH
