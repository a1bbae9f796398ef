/**
 * @file
 * Model switching vs dynamic pruning (Section III's comparison and
 * footnote 1): for small savings, pruning the big pretrained model
 * wins because it keeps the large model's accuracy; past a crossover
 * (~25% savings for SegFormer-ADE, ~20% for Swin-Base, per the
 * paper), switching to a smaller *retrained* variant dominates. This
 * engine builds one combined Pareto LUT over both families and
 * reports the crossover.
 */

#ifndef VITDYN_ENGINE_MODEL_SWITCHING_HH
#define VITDYN_ENGINE_MODEL_SWITCHING_HH

#include <memory>
#include <string>
#include <vector>

#include "engine/lut.hh"
#include "engine/path_cache.hh"
#include "resilience/sweep.hh"

namespace vitdyn
{

/** One trained model variant (e.g. SegFormer-B0/B1/B2). */
struct TrainedVariant
{
    std::string name;
    /** Accuracy relative to the largest variant of the family. */
    double normalizedMiou = 1.0;
    SegformerConfig segConfig;
    SwinConfig swinConfig;
};

/** Combined trained-variant + pruned-path selection. */
class ModelSwitchingEngine
{
  public:
    /**
     * @param family      model family of all variants/candidates.
     * @param variants    trained variants, largest (reference) first;
     *                    pruning candidates apply to variants[0].
     * @param candidates  pruned execution paths of the reference.
     * @param accuracy    accuracy model for the pruned paths.
     * @param cost        resource cost (same unit for everything).
     * @param seed        weight-synthesis seed of acquired executors.
     * @param options     acquireExecutor's path-cache policy.
     */
    ModelSwitchingEngine(ModelFamily family,
                         std::vector<TrainedVariant> variants,
                         const std::vector<PruneConfig> &candidates,
                         const AccuracyModel &accuracy,
                         const GraphCostFn &cost, uint64_t seed = 1,
                         PathCacheOptions options = {});

    // The path cache's builder refers back to this engine.
    ModelSwitchingEngine(const ModelSwitchingEngine &) = delete;
    ModelSwitchingEngine &operator=(const ModelSwitchingEngine &) = delete;

    /** What the combined frontier selects for a budget. */
    struct Choice
    {
        bool isTrainedVariant = false;
        std::string name;      ///< Variant name or prune label.
        double cost = 0.0;
        double normalizedCost = 1.0;
        double accuracy = 0.0;
        bool budgetMet = false;
    };

    Choice select(double budget) const;

    /**
     * Normalized cost below which every frontier entry is a trained
     * variant — i.e. the crossover where the paper recommends
     * switching models instead of pruning further.
     */
    double switchoverNormalizedCost() const;

    /** Build the graph for a selected choice. */
    Graph buildChoice(const Choice &choice) const;

    /**
     * Executor for a selected choice, served from the shared
     * PathCache keyed by the choice's position in the variants
     * followed by the candidates — the switch hot path. A cache hit
     * returns the resident executor (conv workspaces intact, zero
     * weight work); a miss builds the graph, warms its weights
     * through the shared WeightStore, and evicts the
     * least-recently-used entry beyond the capacity. Shared
     * ownership: an evicted entry stays valid for holders. Pruned
     * choices register the reference variant's full dims so they
     * slice the same stored weights.
     */
    std::shared_ptr<MaterializedPath>
    acquireExecutor(const Choice &choice) const;

    const AccuracyResourceLut &lut() const { return lut_; }

  private:
    static constexpr const char *kTrainedPrefix = "trained:";

    /** Cache key of @p choice: its index in variants_, or
     *  variants_.size() + its index in candidates_. */
    size_t choiceKey(const Choice &choice) const;

    /** Graph of cache key @p key (see choiceKey). */
    Graph buildKey(size_t key) const;

    ModelFamily family_;
    std::vector<TrainedVariant> variants_;
    std::vector<PruneConfig> candidates_;
    AccuracyResourceLut lut_;
    /** Reference (largest variant) graph whose full dims the pruned
     *  paths slice their weights from. */
    Graph referenceFull_;
    mutable PathCache cache_;
};

/** SegFormer B0/B1/B2 trained variants for a dataset preset. */
std::vector<TrainedVariant>
segformerTrainedVariants(bool cityscapes = false);

/** Swin Tiny/Small/Base trained variants (ADE20K). */
std::vector<TrainedVariant> swinTrainedVariants();

} // namespace vitdyn

#endif // VITDYN_ENGINE_MODEL_SWITCHING_HH
