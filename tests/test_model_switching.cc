/** @file Tests of model switching vs dynamic pruning (Section III's
 * trained-model comparison) and LUT serialization. */

#include <gtest/gtest.h>

#include "engine/model_switching.hh"
#include "profile/gpu_model.hh"

#include <cstdio>

namespace vitdyn
{
namespace
{

class SwitchingFixture : public testing::Test
{
  protected:
    SwitchingFixture()
        : acc_(PrunedModelKind::SegformerB2Ade),
          engine_(ModelFamily::Segformer, segformerTrainedVariants(),
                  segformerAdePruneCatalog(), acc_,
                  [this](const Graph &g) {
                      return gpu_.graphTimeMs(g);
                  })
    {
    }

    GpuLatencyModel gpu_;
    AccuracyModel acc_;
    ModelSwitchingEngine engine_;
};

TEST_F(SwitchingFixture, FrontierContainsBothFamilies)
{
    bool has_trained = false;
    bool has_pruned = false;
    for (const LutEntry &e : engine_.lut().entries()) {
        if (e.config.label.rfind("trained:", 0) == 0)
            has_trained = true;
        else
            has_pruned = true;
    }
    EXPECT_TRUE(has_trained);
    EXPECT_TRUE(has_pruned);
}

TEST_F(SwitchingFixture, GenerousBudgetPicksFullModel)
{
    auto choice = engine_.select(1e9);
    EXPECT_NEAR(choice.accuracy, 1.0, 1e-9);
    EXPECT_TRUE(choice.budgetMet);
}

TEST_F(SwitchingFixture, TinyBudgetPicksTrainedVariant)
{
    // At very low budgets only the retrained small models survive —
    // the paper's "switch between sets of trained models" regime.
    Graph b0 = buildSegformer([] {
        SegformerConfig c = segformerB0Config();
        return c;
    }());
    const double b0_time = gpu_.graphTimeMs(b0);
    auto choice = engine_.select(b0_time * 1.05);
    EXPECT_TRUE(choice.isTrainedVariant);
    EXPECT_EQ(choice.name, "segformer_b0");
}

TEST_F(SwitchingFixture, SwitchoverInPublishedRange)
{
    // Paper: pruning is competitive up to ~25% savings; for 50%
    // savings one should switch models. So the cheapest pruned path
    // on the combined frontier sits somewhere in (0.5, 0.95).
    const double switchover = engine_.switchoverNormalizedCost();
    EXPECT_GT(switchover, 0.5);
    EXPECT_LT(switchover, 0.95);
}

TEST_F(SwitchingFixture, SelectionAccuracyMonotoneInBudget)
{
    double prev = -1.0;
    for (double budget : {5.0, 15.0, 25.0, 40.0, 55.0, 70.0}) {
        auto choice = engine_.select(budget);
        EXPECT_GE(choice.accuracy, prev) << budget;
        prev = choice.accuracy;
    }
}

TEST_F(SwitchingFixture, BuildChoiceProducesConsistentGraph)
{
    auto big = engine_.select(1e9);
    Graph g_big = engine_.buildChoice(big);
    auto small = engine_.select(0.0); // falls back to cheapest
    Graph g_small = engine_.buildChoice(small);
    EXPECT_GT(g_big.totalFlops(), g_small.totalFlops());
}

TEST(SwitchingSwin, BaseToTinyCrossover)
{
    // Fig 7: switching Swin-Base -> Swin-Tiny wins beyond ~20%
    // savings, and Swin-Small is never clearly better than pruned
    // Base. With trained variants added, a low budget must select
    // swin_tiny (not swin_small).
    GpuLatencyModel gpu;
    AccuracyModel acc(PrunedModelKind::SwinBaseAde);
    ModelSwitchingEngine engine(
        ModelFamily::Swin, swinTrainedVariants(),
        swinBasePruneCatalog(), acc,
        [&](const Graph &g) { return gpu.graphTimeMs(g); });

    Graph tiny = buildSwin(swinTinyConfig());
    auto choice = engine.select(gpu.graphTimeMs(tiny) * 1.02);
    EXPECT_TRUE(choice.isTrainedVariant);
    EXPECT_EQ(choice.name, "swin_tiny");
}

TEST(SwitchingVariants, PublishedAccuracies)
{
    auto seg = segformerTrainedVariants();
    ASSERT_EQ(seg.size(), 3u);
    EXPECT_DOUBLE_EQ(seg[0].normalizedMiou, 1.0);
    EXPECT_NEAR(seg[1].normalizedMiou, 0.421 / 0.4651, 1e-9);
    EXPECT_NEAR(seg[2].normalizedMiou, 0.376 / 0.4651, 1e-9);

    auto city = segformerTrainedVariants(true);
    EXPECT_GT(city[2].normalizedMiou, seg[2].normalizedMiou)
        << "Cityscapes variants are closer together (more redundancy)";

    auto swin = swinTrainedVariants();
    EXPECT_NEAR(swin[2].normalizedMiou, 0.4451 / 0.4819, 1e-9);
}

TEST(LutSerialization, RoundTrip)
{
    std::vector<TradeoffPoint> pts(2);
    pts[0].config = {"full", {3, 4, 6, 3}, 3072, 0, 0, 1.0, 1.0};
    pts[0].normalizedUtil = 1.0;
    pts[0].absoluteUtil = 58.0;
    pts[0].normalizedMiou = 1.0;
    pts[1].config = {"g", {2, 3, 4, 3}, 512, 736, 32, 0.66, 0.63};
    pts[1].normalizedUtil = 0.62;
    pts[1].absoluteUtil = 36.0;
    pts[1].normalizedMiou = 0.63;

    AccuracyResourceLut lut(pts, "ms");
    Result<AccuracyResourceLut> parsed =
        AccuracyResourceLut::fromCsv(lut.toCsv());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().message();
    AccuracyResourceLut loaded = parsed.take();

    ASSERT_EQ(loaded.entries().size(), lut.entries().size());
    EXPECT_EQ(loaded.resourceUnit(), "ms");
    for (size_t i = 0; i < lut.entries().size(); ++i) {
        const LutEntry &a = lut.entries()[i];
        const LutEntry &b = loaded.entries()[i];
        EXPECT_EQ(a.config.label, b.config.label);
        EXPECT_EQ(a.config.depths, b.config.depths);
        EXPECT_EQ(a.config.fuseInChannels, b.config.fuseInChannels);
        EXPECT_EQ(a.config.predInChannels, b.config.predInChannels);
        EXPECT_DOUBLE_EQ(a.resourceCost, b.resourceCost);
        EXPECT_DOUBLE_EQ(a.accuracyEstimate, b.accuracyEstimate);
    }
    // Lookups behave identically.
    EXPECT_EQ(loaded.lookup(40.0)->config.label, "g");
    EXPECT_EQ(loaded.lookup(60.0)->config.label, "full");
}

TEST(LutSerialization, FileRoundTrip)
{
    std::vector<TradeoffPoint> pts(1);
    pts[0].config.label = "only";
    pts[0].config.depths = {1, 1, 1, 1};
    pts[0].absoluteUtil = 7.5;
    pts[0].normalizedUtil = 1.0;
    pts[0].normalizedMiou = 0.9;
    AccuracyResourceLut lut(pts, "cycles");

    const std::string path = "/tmp/vitdyn_lut_test.csv";
    ASSERT_TRUE(lut.save(path).isOk());
    Result<AccuracyResourceLut> loaded = AccuracyResourceLut::load(path);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().message();
    ASSERT_EQ(loaded.value().entries().size(), 1u);
    EXPECT_DOUBLE_EQ(loaded.value().entries()[0].resourceCost, 7.5);
    std::remove(path.c_str());
}

TEST(LutSerialization, RejectsGarbage)
{
    // Serving deployments load operator-supplied LUT files: a bad
    // file must surface as a recoverable error, not a process abort.
    Result<AccuracyResourceLut> r =
        AccuracyResourceLut::fromCsv("not a lut");
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.status().message().find("missing unit header"),
              std::string::npos);
}

TEST(LutSerialization, LoadMissingFileIsRecoverable)
{
    Result<AccuracyResourceLut> r =
        AccuracyResourceLut::load("/nonexistent/vitdyn_lut.csv");
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.status().message().find("cannot open"),
              std::string::npos);
}

} // namespace
} // namespace vitdyn
