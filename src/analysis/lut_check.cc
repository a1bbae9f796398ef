#include "analysis/lut_check.hh"

#include <cmath>
#include <sstream>

#include "analysis/liveness.hh"

namespace vitdyn
{

namespace
{

/** Relative resourceCost mismatch the cost oracle tolerates. */
constexpr double kCostRelTolerance = 0.05;

/** Loose bound for |normalizedCost - flopRatio| / flopRatio. */
constexpr double kFlopRelTolerance = 0.25;

std::string
rowLabel(const LutEntry &entry, size_t index)
{
    std::ostringstream oss;
    oss << "row " << index << " ('" << entry.config.label << "')";
    return oss.str();
}

} // namespace

LutRowCheck
checkLutRow(const AccuracyResourceLut &lut, size_t index,
            ModelFamily family, const SegformerConfig &seg_base,
            const SwinConfig &swin_base, double full_flops,
            const LutCheckOptions &options)
{
    LutRowCheck check;
    LintReport &report = check.report;
    const std::vector<LutEntry> &entries = lut.entries();
    const LutEntry &entry = entries.at(index);
    const std::string row = rowLabel(entry, index);

    if (entry.config.label.empty())
        report.addGraph(Severity::Error, "lut.label",
                        "row " + std::to_string(index) +
                            " has an empty config label");
    if (!std::isfinite(entry.resourceCost) || entry.resourceCost <= 0.0)
        report.addGraph(Severity::Error, "lut.cost",
                        row + " has invalid resource cost " +
                            std::to_string(entry.resourceCost));
    if (!std::isfinite(entry.normalizedCost) ||
        entry.normalizedCost <= 0.0)
        report.addGraph(Severity::Error, "lut.normalized-cost",
                        row + " has invalid normalized cost " +
                            std::to_string(entry.normalizedCost));
    if (!std::isfinite(entry.accuracyEstimate) ||
        entry.accuracyEstimate < 0.0 || entry.accuracyEstimate > 1.5)
        report.addGraph(Severity::Warning, "lut.accuracy",
                        row + " accuracy estimate " +
                            std::to_string(entry.accuracyEstimate) +
                            " outside [0, 1.5]");
    if (index > 0 && entries[index - 1].resourceCost > entry.resourceCost)
        report.addGraph(Severity::Error, "lut.order",
                        row + " breaks the ascending cost order");

    // Rebuild the row's graph; an infeasible config means the LUT no
    // longer matches the builder/prune code it was swept from.
    Result<Graph> built =
        tryApplyPrune(family, seg_base, swin_base, entry.config);
    if (!built) {
        report.addGraph(Severity::Error, "lut.config",
                        row + ": " + built.status().message());
        return check;
    }
    check.graph = std::make_shared<const Graph>(built.take());
    const Graph &graph = *check.graph;

    report.mergeWithContext(lintGraph(graph), row);

    check.certifiedPeakBytes = analysis::certifiedPeakBytes(graph);
    if (options.memoryBudgetBytes > 0 &&
        check.certifiedPeakBytes > options.memoryBudgetBytes)
        report.addGraph(Severity::Error, "lut.memory-budget",
                        row + " certified peak " +
                            std::to_string(check.certifiedPeakBytes) +
                            " bytes exceeds the memory budget of " +
                            std::to_string(options.memoryBudgetBytes) +
                            " bytes");

    if (options.cost) {
        const double recomputed = options.cost(graph);
        const double denom =
            entry.resourceCost > 0.0 ? entry.resourceCost : 1.0;
        const double rel = std::abs(recomputed - entry.resourceCost) / denom;
        if (!std::isfinite(recomputed) || rel > kCostRelTolerance)
            report.addGraph(Severity::Error, "lut.stale-cost",
                            row + " stores cost " +
                                std::to_string(entry.resourceCost) +
                                " but the rebuilt graph costs " +
                                std::to_string(recomputed) +
                                " (stale row?)");
    }

    if (full_flops > 0.0 && entry.normalizedCost > 0.0) {
        const double ratio =
            static_cast<double>(graph.totalFlops()) / full_flops;
        if (ratio > 0.0) {
            const double drift =
                std::abs(entry.normalizedCost - ratio) / ratio;
            if (drift > kFlopRelTolerance)
                report.addGraph(Severity::Warning, "lut.flop-drift",
                                row + " normalized cost " +
                                    std::to_string(entry.normalizedCost) +
                                    " vs recomputed FLOP ratio " +
                                    std::to_string(ratio));
        }
    }
    return check;
}

LintReport
checkLut(const AccuracyResourceLut &lut, ModelFamily family,
         const SegformerConfig &seg_base, const SwinConfig &swin_base,
         const LutCheckOptions &options)
{
    LintReport report;
    if (lut.empty()) {
        report.addGraph(Severity::Error, "lut.empty",
                        "LUT has no entries");
        return report;
    }

    // Baseline FLOPs for the normalized-cost drift check.
    const Graph full = family == ModelFamily::Segformer
                           ? buildSegformer(seg_base)
                           : buildSwin(swin_base);
    const double full_flops = static_cast<double>(full.totalFlops());
    for (size_t i = 0; i < lut.entries().size(); ++i)
        report.merge(checkLutRow(lut, i, family, seg_base, swin_base,
                                 full_flops, options)
                         .report);
    return report;
}

} // namespace vitdyn
