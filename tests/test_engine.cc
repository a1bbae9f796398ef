/** @file Tests of the DRT inference engine (Fig 8): LUT semantics and
 * dynamic path selection under resource budgets. */

#include <gtest/gtest.h>

#include "engine/engine.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

/** A small SegFormer so engine tests execute real tensors quickly. */
SegformerConfig
tinyBase()
{
    SegformerConfig cfg;
    cfg.name = "segformer_tiny_test";
    cfg.imageH = cfg.imageW = 64;
    cfg.numClasses = 6;
    cfg.embedDims = {8, 16, 24, 32};
    cfg.depths = {2, 2, 2, 2};
    cfg.numHeads = {1, 2, 3, 4};
    cfg.decoderDim = 32;
    return cfg;
}

/** Three hand-made LUT points: full / mid / small. */
std::vector<TradeoffPoint>
tinyPoints()
{
    std::vector<TradeoffPoint> pts(3);
    pts[0].config = {"full", {2, 2, 2, 2}, 0, 0, 0, 1.0, 1.0};
    pts[0].normalizedUtil = 1.0;
    pts[0].absoluteUtil = 100.0;
    pts[0].normalizedMiou = 1.0;
    pts[1].config = {"mid", {2, 2, 2, 2}, 64, 0, 0, 0.8, 0.9};
    pts[1].normalizedUtil = 0.8;
    pts[1].absoluteUtil = 80.0;
    pts[1].normalizedMiou = 0.9;
    pts[2].config = {"small", {1, 1, 1, 1}, 48, 0, 0, 0.6, 0.7};
    pts[2].normalizedUtil = 0.6;
    pts[2].absoluteUtil = 60.0;
    pts[2].normalizedMiou = 0.7;
    return pts;
}

TEST(Lut, KeepsParetoSortedByCost)
{
    auto pts = tinyPoints();
    // Add a dominated point: more cost, less accuracy than "mid".
    TradeoffPoint bad;
    bad.config.label = "bad";
    bad.config.depths = {2, 2, 2, 2};
    bad.normalizedUtil = 0.9;
    bad.absoluteUtil = 90.0;
    bad.normalizedMiou = 0.85;
    pts.push_back(bad);

    AccuracyResourceLut lut(pts, "ms");
    ASSERT_EQ(lut.entries().size(), 3u);
    for (size_t i = 1; i < lut.entries().size(); ++i)
        EXPECT_LT(lut.entries()[i - 1].resourceCost,
                  lut.entries()[i].resourceCost);
}

TEST(Lut, LookupMaximizesAccuracyWithinBudget)
{
    AccuracyResourceLut lut(tinyPoints(), "ms");
    const LutEntry *e = lut.lookup(85.0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->config.label, "mid");
    e = lut.lookup(1000.0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->config.label, "full");
    e = lut.lookup(60.0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->config.label, "small");
}

TEST(Lut, LookupFailsBelowCheapest)
{
    AccuracyResourceLut lut(tinyPoints(), "ms");
    EXPECT_EQ(lut.lookup(59.9), nullptr);
    EXPECT_EQ(lut.cheapest().config.label, "small");
    EXPECT_EQ(lut.best().config.label, "full");
}

class EngineFixture : public testing::Test
{
  protected:
    EngineFixture()
        : engine_(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                  AccuracyResourceLut(tinyPoints(), "ms"), 17)
    {
    }

    DrtEngine engine_;
};

TEST_F(EngineFixture, PathsPreparedForEveryEntry)
{
    EXPECT_EQ(engine_.numPaths(), 3u);
    // Paths get cheaper in the LUT's cost order.
    EXPECT_LT(engine_.pathGraph(0).totalFlops(),
              engine_.pathGraph(2).totalFlops());
}

TEST_F(EngineFixture, SelectRespectsBudget)
{
    bool met = false;
    EXPECT_EQ(engine_.select(100.0, &met).config.label, "full");
    EXPECT_TRUE(met);
    EXPECT_EQ(engine_.select(70.0, &met).config.label, "small");
    EXPECT_TRUE(met);
}

TEST_F(EngineFixture, SelectFallsBackToCheapest)
{
    bool met = true;
    EXPECT_EQ(engine_.select(10.0, &met).config.label, "small");
    EXPECT_FALSE(met);
}

TEST_F(EngineFixture, InferRunsChosenPath)
{
    Rng rng(1);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);

    DrtResult full = engine_.infer(image, 1000.0);
    EXPECT_EQ(full.configLabel, "full");
    EXPECT_TRUE(full.budgetMet);
    EXPECT_EQ(full.output.shape(), (Shape{1, 6, 64, 64}));
    EXPECT_DOUBLE_EQ(full.accuracyEstimate, 1.0);

    DrtResult small = engine_.infer(image, 60.0);
    EXPECT_EQ(small.configLabel, "small");
    EXPECT_EQ(small.output.shape(), (Shape{1, 6, 64, 64}));
    EXPECT_LT(small.accuracyEstimate, full.accuracyEstimate);
}

TEST_F(EngineFixture, PrunedOutputDeviatesButCorrelates)
{
    // Different execution paths share weights: outputs differ but not
    // wildly (the paper's resilience premise).
    Rng rng(2);
    Tensor image = Tensor::randn({1, 3, 64, 64}, rng);
    Tensor full = engine_.infer(image, 1000.0).output;
    Tensor mid = engine_.infer(image, 85.0).output;
    EXPECT_FALSE(full.allClose(mid, 1e-6f));

    // Correlation proxy: the mean absolute difference stays below the
    // full output's scale.
    double diff = 0.0;
    for (int64_t i = 0; i < full.numel(); ++i)
        diff += std::abs(full[i] - mid[i]);
    diff /= full.numel();
    EXPECT_LT(diff, full.maxAbs());
}

class EngineBudgetSweep : public testing::TestWithParam<double> {};

TEST_P(EngineBudgetSweep, CostNeverExceedsBudgetWhenMet)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    bool met = false;
    const LutEntry &e = engine.select(GetParam(), &met);
    if (met) {
        EXPECT_LE(e.resourceCost, GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, EngineBudgetSweep,
                         testing::Values(10.0, 59.0, 60.0, 75.0, 80.0,
                                         99.0, 100.0, 500.0));

TEST(Engine, EmptyLutFatal)
{
    EXPECT_DEATH(DrtEngine(ModelFamily::Segformer, tinyBase(),
                           SwinConfig{},
                           AccuracyResourceLut({}, "ms"), 1),
                 "non-empty LUT");
}

TEST(Engine, CreateReportsEmptyLutRecoverably)
{
    // The serving entry point must survive a bad LUT without dying.
    auto r = DrtEngine::create(ModelFamily::Segformer, tinyBase(),
                               SwinConfig{},
                               AccuracyResourceLut({}, "ms"), 1);
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.status().message().find("no entries"),
              std::string::npos);
}

TEST(Engine, CreateBuildsWorkingEngine)
{
    auto r = DrtEngine::create(ModelFamily::Segformer, tinyBase(),
                               SwinConfig{},
                               AccuracyResourceLut(tinyPoints(), "ms"),
                               17);
    ASSERT_TRUE(r.isOk()) << r.status().message();
    EXPECT_EQ(r.value()->numPaths(), 3u);
}

TEST(LutCsv, MalformedInputsAreRecoverableErrors)
{
    const std::string good = AccuracyResourceLut(tinyPoints(), "ms")
                                 .toCsv();

    // Each malformation must produce an error, never an abort.
    const std::pair<std::string, std::string> cases[] = {
        {"", "missing unit header"},
        {"unit,ms\n", "missing column header"},
        {"garbage\nmore garbage\n", "missing unit header"},
        // Lost fields vs unparseable cell produce distinct messages,
        // so an operator knows whether the file was cut or hand-edited.
        {"unit,ms\nlabel,d0,d1,d2,d3,fuse,pred,dl0,cost,norm_cost,"
         "accuracy\nA,1,2,3\n",
         "truncated row"},
        {"unit,ms\nlabel,d0,d1,d2,d3,fuse,pred,dl0,cost,norm_cost,"
         "accuracy\nA,x,2,2,2,0,0,0,10,1,1\n",
         "malformed number 'x'"},
        // Full-consumption parsing: trailing garbage on a numeric
        // cell is malformed, not silently accepted as its prefix.
        {"unit,ms\nlabel,d0,d1,d2,d3,fuse,pred,dl0,cost,norm_cost,"
         "accuracy\nA,3x,2,2,2,0,0,0,10,1,1\n",
         "malformed number '3x'"},
        {"unit,ms\nlabel,d0,d1,d2,d3,fuse,pred,dl0,cost,norm_cost,"
         "accuracy\nA,2,2,2,2,0,0,0,nan,1,1\n",
         "non-finite or negative"},
        {"unit,ms\nlabel,d0,d1,d2,d3,fuse,pred,dl0,cost,norm_cost,"
         "accuracy\nA,2,2,2,2,0,0,0,-5,1,1\n",
         "non-finite or negative"},
        // Truncating a valid CSV mid-row must fail cleanly too.
        {good.substr(0, good.size() - 20), "truncated row"},
    };
    for (const auto &[csv, expected] : cases) {
        Result<AccuracyResourceLut> r = AccuracyResourceLut::fromCsv(csv);
        ASSERT_FALSE(r.isOk()) << "accepted: " << csv;
        EXPECT_NE(r.status().message().find(expected), std::string::npos)
            << "message '" << r.status().message()
            << "' does not mention '" << expected << "'";
    }
}

TEST(LutCsv, RoundTripFuzz)
{
    // Random LUTs survive serialize -> parse -> serialize unchanged,
    // and mutilated serializations never abort the parser.
    Rng rng(2024);
    for (int iter = 0; iter < 50; ++iter) {
        const int n = static_cast<int>(rng.uniformInt(1, 6));
        std::vector<TradeoffPoint> pts(n);
        for (int i = 0; i < n; ++i) {
            pts[i].config.label = "cfg" + std::to_string(i);
            for (int d = 0; d < 4; ++d)
                pts[i].config.depths[d] = rng.uniformInt(1, 4);
            pts[i].config.fuseInChannels = rng.uniformInt(0, 512);
            pts[i].absoluteUtil = rng.uniform(1.0, 100.0);
            // Strictly increasing accuracy with cost keeps every
            // point on the Pareto frontier regardless of cost order.
            pts[i].normalizedUtil = pts[i].absoluteUtil / 100.0;
            pts[i].normalizedMiou = pts[i].absoluteUtil / 100.0;
        }
        AccuracyResourceLut lut(pts, "ms");
        Result<AccuracyResourceLut> loaded =
            AccuracyResourceLut::fromCsv(lut.toCsv());
        ASSERT_TRUE(loaded.isOk()) << loaded.status().message();
        EXPECT_EQ(loaded.value().toCsv(), lut.toCsv());

        // Chop the text at a random point: must error or parse, never
        // crash; a successful parse can only have fewer entries.
        const std::string csv = lut.toCsv();
        const size_t cut = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(csv.size())));
        Result<AccuracyResourceLut> chopped =
            AccuracyResourceLut::fromCsv(csv.substr(0, cut));
        if (chopped.isOk()) {
            EXPECT_LE(chopped.value().entries().size(),
                      lut.entries().size());
        }
    }
}

} // namespace
} // namespace vitdyn
