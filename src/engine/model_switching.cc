#include "engine/model_switching.hh"

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace vitdyn
{

ModelSwitchingEngine::ModelSwitchingEngine(
    ModelFamily family, std::vector<TrainedVariant> variants,
    const std::vector<PruneConfig> &candidates,
    const AccuracyModel &accuracy, const GraphCostFn &cost, uint64_t seed,
    PathCacheOptions options)
    : family_(family), variants_(std::move(variants)),
      candidates_(candidates),
      cache_(std::move(options), seed, [this](size_t key) {
          // Pruned paths slice the reference variant's full weights —
          // the paper's shared-weight property. Trained variants are
          // their own full models.
          const bool trained = key < variants_.size();
          return PathSource{
              trained ? kTrainedPrefix + variants_[key].name
                      : candidates_[key - variants_.size()].label,
              std::make_shared<const Graph>(buildKey(key)),
              trained ? nullptr : &referenceFull_};
      })
{
    vitdyn_assert(!variants_.empty(),
                  "need at least the reference variant");

    // Lint gate: a candidate that cannot build against the reference
    // variant is dropped up front — the sweep below would otherwise
    // abort the process on the first bad config.
    {
        static Counter &dropped = MetricsRegistry::instance().counter(
            "lint.dropped_candidates");
        std::vector<PruneConfig> kept;
        kept.reserve(candidates_.size());
        for (const PruneConfig &candidate : candidates_) {
            Status valid =
                validatePrune(family_, variants_[0].segConfig,
                              variants_[0].swinConfig, candidate);
            if (valid) {
                kept.push_back(candidate);
                continue;
            }
            dropped.add();
            warn("model-switching candidate '", candidate.label,
                 "' dropped by lint: ", valid.message());
        }
        candidates_ = std::move(kept);
    }

    // Pruned execution paths of the reference (largest) variant.
    std::vector<TradeoffPoint> points =
        family_ == ModelFamily::Segformer
            ? sweepSegformer(variants_[0].segConfig, candidates_,
                             accuracy, cost)
            : sweepSwin(variants_[0].swinConfig, candidates_, accuracy,
                        cost);

    // Trained variants as additional points; their accuracy comes
    // from the published numbers, not the pruning accuracy model.
    referenceFull_ = buildKey(0);
    const double ref_cost = cost(referenceFull_);
    for (size_t i = 0; i < variants_.size(); ++i) {
        TradeoffPoint p;
        p.config.label = kTrainedPrefix + variants_[i].name;
        p.absoluteUtil = i == 0 ? ref_cost : cost(buildKey(i));
        p.normalizedUtil = p.absoluteUtil / ref_cost;
        p.normalizedMiou = variants_[i].normalizedMiou;
        points.push_back(std::move(p));
    }

    lut_ = AccuracyResourceLut(points, "cost");
}

ModelSwitchingEngine::Choice
ModelSwitchingEngine::select(double budget) const
{
    bool met = false;
    const LutEntry *entry = &lut_.lookupOrCheapest(budget, &met);

    Choice choice;
    const std::string &label = entry->config.label;
    choice.isTrainedVariant = label.rfind(kTrainedPrefix, 0) == 0;
    choice.name = choice.isTrainedVariant
                      ? label.substr(std::string(kTrainedPrefix).size())
                      : label;
    choice.cost = entry->resourceCost;
    choice.normalizedCost = entry->normalizedCost;
    choice.accuracy = entry->accuracyEstimate;
    choice.budgetMet = met;
    return choice;
}

double
ModelSwitchingEngine::switchoverNormalizedCost() const
{
    // Cheapest frontier entry that is still a *pruned* path: below
    // its normalized cost, only trained variants remain competitive.
    double switchover = 0.0;
    bool found = false;
    for (const LutEntry &entry : lut_.entries()) {
        if (entry.config.label.rfind(kTrainedPrefix, 0) == 0)
            continue;
        if (!found || entry.normalizedCost < switchover) {
            switchover = entry.normalizedCost;
            found = true;
        }
    }
    return found ? switchover : 1.0;
}

size_t
ModelSwitchingEngine::choiceKey(const Choice &choice) const
{
    if (choice.isTrainedVariant) {
        for (size_t i = 0; i < variants_.size(); ++i)
            if (variants_[i].name == choice.name)
                return i;
        vitdyn_fatal("unknown trained variant '", choice.name, "'");
    }
    for (size_t i = 0; i < candidates_.size(); ++i)
        if (candidates_[i].label == choice.name)
            return variants_.size() + i;
    vitdyn_fatal("unknown pruned path '", choice.name, "'");
}

Graph
ModelSwitchingEngine::buildKey(size_t key) const
{
    const bool seg = family_ == ModelFamily::Segformer;
    if (key < variants_.size())
        return seg ? buildSegformer(variants_[key].segConfig)
                   : buildSwin(variants_[key].swinConfig);
    const PruneConfig &candidate = candidates_[key - variants_.size()];
    return seg ? applySegformerPrune(variants_[0].segConfig, candidate)
               : applySwinPrune(variants_[0].swinConfig, candidate);
}

Graph
ModelSwitchingEngine::buildChoice(const Choice &choice) const
{
    return buildKey(choiceKey(choice));
}

std::shared_ptr<MaterializedPath>
ModelSwitchingEngine::acquireExecutor(const Choice &choice) const
{
    return cache_.acquire(choiceKey(choice));
}

std::vector<TrainedVariant>
segformerTrainedVariants(bool cityscapes)
{
    // Published mIoU — ADE20K: B0 0.376, B1 0.421, B2 0.4651;
    // Cityscapes: B0 0.762, B1 0.786, B2 0.8098.
    const double b2 = cityscapes ? 0.8098 : 0.4651;
    SegformerConfig base = cityscapes ? segformerB2CityscapesConfig()
                                      : segformerB2Config();
    SegformerConfig b1 = segformerB1Config();
    SegformerConfig b0 = segformerB0Config();
    b1.imageH = b0.imageH = base.imageH;
    b1.imageW = b0.imageW = base.imageW;
    b1.numClasses = b0.numClasses = base.numClasses;

    std::vector<TrainedVariant> out(3);
    out[0].name = base.name;
    out[0].normalizedMiou = 1.0;
    out[0].segConfig = base;
    out[1].name = b1.name;
    out[1].normalizedMiou = (cityscapes ? 0.786 : 0.421) / b2;
    out[1].segConfig = b1;
    out[2].name = b0.name;
    out[2].normalizedMiou = (cityscapes ? 0.762 : 0.376) / b2;
    out[2].segConfig = b0;
    return out;
}

std::vector<TrainedVariant>
swinTrainedVariants()
{
    // Published UPerNet mIoU: Tiny 0.4451, Small 0.476, Base 0.4819.
    std::vector<TrainedVariant> out(3);
    out[0].name = "swin_base";
    out[0].normalizedMiou = 1.0;
    out[0].swinConfig = swinBaseConfig();
    out[1].name = "swin_small";
    out[1].normalizedMiou = 0.476 / 0.4819;
    out[1].swinConfig = swinSmallConfig();
    out[2].name = "swin_tiny";
    out[2].normalizedMiou = 0.4451 / 0.4819;
    out[2].swinConfig = swinTinyConfig();
    return out;
}

} // namespace vitdyn
