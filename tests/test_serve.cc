/** @file Tests of the multi-tenant serving front end: queue ordering
 * (priority + EDF + expiry), admission downgrade-then-reject policy,
 * deadline-aware engine entry points, the end-to-end scheduler
 * (concurrent submission, quarantine reroute, shutdown) including
 * the exactly-one-terminal-outcome invariant, and the per-request
 * observability pipeline (latency breakdowns, flight dumps). */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "fault/fault.hh"
#include "obs/flight_recorder.hh"
#include "obs/span.hh"
#include "serve/admission.hh"
#include "serve/request_queue.hh"
#include "serve/scheduler.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace vitdyn
{
namespace
{

/** A small SegFormer so serving tests execute real tensors quickly. */
SegformerConfig
tinyBase()
{
    SegformerConfig cfg;
    cfg.name = "segformer_serve_test";
    cfg.imageH = cfg.imageW = 64;
    cfg.numClasses = 6;
    cfg.embedDims = {8, 16, 24, 32};
    cfg.depths = {2, 2, 2, 2};
    cfg.numHeads = {1, 2, 3, 4};
    cfg.decoderDim = 32;
    return cfg;
}

/**
 * Three LUT points where only "full" keeps two blocks per stage —
 * fault patterns on ".block1." therefore hit only the full path.
 */
std::vector<TradeoffPoint>
tinyPoints()
{
    std::vector<TradeoffPoint> pts(3);
    pts[0].config = {"full", {2, 2, 2, 2}, 0, 0, 0, 1.0, 1.0};
    pts[0].normalizedUtil = 1.0;
    pts[0].absoluteUtil = 100.0;
    pts[0].normalizedMiou = 1.0;
    pts[1].config = {"mid", {1, 1, 1, 1}, 96, 0, 0, 0.7, 0.9};
    pts[1].normalizedUtil = 0.7;
    pts[1].absoluteUtil = 70.0;
    pts[1].normalizedMiou = 0.9;
    pts[2].config = {"small", {1, 1, 1, 1}, 64, 0, 0, 0.55, 0.8};
    pts[2].normalizedUtil = 0.55;
    pts[2].absoluteUtil = 55.0;
    pts[2].normalizedMiou = 0.8;
    return pts;
}

EngineResilienceConfig
testResilience()
{
    EngineResilienceConfig cfg;
    cfg.enabled = true;
    cfg.health.enabled = true;
    cfg.health.exhaustive = true;
    cfg.maxRetries = 2;
    cfg.probationFrames = 5;
    return cfg;
}

Tensor
testImage(uint64_t seed = 1)
{
    Rng rng(seed);
    return Tensor::randn({1, 3, 64, 64}, rng);
}

QueuedRequest
makeQueued(uint64_t id, ServeClass cls, Deadline deadline,
           size_t config_index, double cost = 1.0)
{
    QueuedRequest q;
    q.id = id;
    q.priority = cls;
    q.deadline = deadline;
    q.configIndex = config_index;
    q.estimatedCost = cost;
    return q;
}

// --- RequestQueue ordering ----------------------------------------

TEST(RequestQueue, NoPriorityInversion)
{
    RequestQueue queue(16);
    const Deadline now = std::chrono::steady_clock::now();
    // The Batch request has the earliest deadline, Critical the
    // latest: strict priority must still serve Critical first.
    ASSERT_TRUE(queue.push(makeQueued(1, ServeClass::Batch,
                                      deadlineAfterMs(100, now), 0)));
    ASSERT_TRUE(queue.push(makeQueued(2, ServeClass::Interactive,
                                      deadlineAfterMs(200, now), 0)));
    ASSERT_TRUE(queue.push(makeQueued(3, ServeClass::Critical,
                                      deadlineAfterMs(300, now), 0)));

    auto pop = queue.pop(1);
    ASSERT_TRUE(pop.has_value());
    ASSERT_EQ(pop->batch.size(), 1u);
    EXPECT_EQ(pop->batch[0].id, 3u);
    EXPECT_TRUE(pop->expired.empty());

    pop = queue.pop(1);
    ASSERT_TRUE(pop.has_value());
    EXPECT_EQ(pop->batch[0].id, 2u);
    pop = queue.pop(1);
    ASSERT_TRUE(pop.has_value());
    EXPECT_EQ(pop->batch[0].id, 1u);
}

TEST(RequestQueue, EarliestDeadlineFirstWithinClass)
{
    RequestQueue queue(16);
    const Deadline now = std::chrono::steady_clock::now();
    ASSERT_TRUE(queue.push(makeQueued(1, ServeClass::Interactive,
                                      deadlineAfterMs(500, now), 0)));
    ASSERT_TRUE(queue.push(makeQueued(2, ServeClass::Interactive,
                                      deadlineAfterMs(100, now), 0)));
    // No deadline = most patient: sorts after every dated request.
    ASSERT_TRUE(
        queue.push(makeQueued(3, ServeClass::Interactive, {}, 0)));

    auto pop = queue.pop(1);
    ASSERT_TRUE(pop.has_value());
    EXPECT_EQ(pop->batch[0].id, 2u);
    pop = queue.pop(1);
    ASSERT_TRUE(pop.has_value());
    EXPECT_EQ(pop->batch[0].id, 1u);
    pop = queue.pop(1);
    ASSERT_TRUE(pop.has_value());
    EXPECT_EQ(pop->batch[0].id, 3u);
}

TEST(RequestQueue, ExpiredRequestsAreReturnedSeparatelyNeverRun)
{
    RequestQueue queue(16);
    const Deadline now = std::chrono::steady_clock::now();
    ASSERT_TRUE(queue.push(makeQueued(
        1, ServeClass::Interactive, now - std::chrono::milliseconds(5),
        0)));
    ASSERT_TRUE(queue.push(makeQueued(2, ServeClass::Interactive,
                                      deadlineAfterMs(60'000, now),
                                      0)));

    auto pop = queue.pop(4);
    ASSERT_TRUE(pop.has_value());
    ASSERT_EQ(pop->expired.size(), 1u);
    EXPECT_EQ(pop->expired[0].id, 1u);
    ASSERT_EQ(pop->batch.size(), 1u);
    EXPECT_EQ(pop->batch[0].id, 2u);
    EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueue, DynamicBatchGathersOnlySameConfig)
{
    RequestQueue queue(16);
    ASSERT_TRUE(queue.push(makeQueued(1, ServeClass::Interactive, {},
                                      7, 2.0)));
    ASSERT_TRUE(queue.push(makeQueued(2, ServeClass::Interactive, {},
                                      5, 2.0)));
    ASSERT_TRUE(queue.push(makeQueued(3, ServeClass::Interactive, {},
                                      7, 2.0)));
    ASSERT_TRUE(
        queue.push(makeQueued(4, ServeClass::Batch, {}, 7, 2.0)));

    auto pop = queue.pop(8);
    ASSERT_TRUE(pop.has_value());
    // Head is id 1 (config 7); followers are every other config-7
    // request across classes, but never the config-5 one.
    ASSERT_EQ(pop->batch.size(), 3u);
    for (const QueuedRequest &r : pop->batch)
        EXPECT_EQ(r.configIndex, 7u);
    EXPECT_EQ(queue.depth(), 1u);
    EXPECT_DOUBLE_EQ(queue.backlogCost(), 2.0);
}

TEST(RequestQueue, CapacityCloseAndDrain)
{
    RequestQueue queue(2);
    EXPECT_TRUE(
        queue.push(makeQueued(1, ServeClass::Interactive, {}, 0)));
    EXPECT_TRUE(
        queue.push(makeQueued(2, ServeClass::Interactive, {}, 0)));
    EXPECT_FALSE(
        queue.push(makeQueued(3, ServeClass::Interactive, {}, 0)));

    queue.close();
    EXPECT_FALSE(
        queue.push(makeQueued(4, ServeClass::Interactive, {}, 0)));
    // A closed queue still drains what it accepted.
    auto pop = queue.pop(1);
    ASSERT_TRUE(pop.has_value());
    EXPECT_EQ(pop->batch[0].id, 1u);
    pop = queue.pop(1);
    ASSERT_TRUE(pop.has_value());
    EXPECT_EQ(pop->batch[0].id, 2u);
    EXPECT_FALSE(queue.pop(1).has_value());
}

// --- AdmissionController ------------------------------------------

HealthSignals
idleSignals()
{
    HealthSignals s;
    s.poolThreads = 4;
    s.totalPaths = 3;
    s.costScale = 1.0;
    return s;
}

TEST(Admission, AdmitsFullBudgetWhenIdle)
{
    AccuracyResourceLut lut(tinyPoints(), "ms");
    AdmissionController admission(lut);
    const Deadline now = std::chrono::steady_clock::now();

    AdmissionDecision d = admission.decide(
        1000.0, ServeClass::Interactive, {}, now, idleSignals());
    ASSERT_TRUE(d.status.isOk());
    EXPECT_FALSE(d.downgraded);
    EXPECT_EQ(lut.entries()[d.configIndex].config.label, "full");
}

TEST(Admission, DowngradesAlongFrontierBeforeRejecting)
{
    AccuracyResourceLut lut(tinyPoints(), "ms");
    AdmissionController admission(lut);
    const Deadline now = std::chrono::steady_clock::now();
    const Deadline deadline = deadlineAfterMs(300.0, now);

    // Ramp the backlog: the admitted config must walk down the
    // frontier (monotonically non-increasing accuracy), pass through
    // at least one downgraded-but-admitted state, and only then turn
    // into rejections — which must persist as load keeps rising.
    double last_accuracy = 2.0;
    bool saw_downgrade = false;
    bool saw_reject = false;
    for (double backlog = 0.0; backlog <= 400.0; backlog += 10.0) {
        HealthSignals s = idleSignals();
        s.backlogCost = backlog;
        AdmissionDecision d =
            admission.decide(1000.0, ServeClass::Interactive,
                             deadline, now, s);
        if (d.status.isOk()) {
            EXPECT_FALSE(saw_reject)
                << "admitted after a rejection at backlog "
                << backlog;
            const double accuracy =
                lut.entries()[d.configIndex].accuracyEstimate;
            EXPECT_LE(accuracy, last_accuracy);
            last_accuracy = accuracy;
            saw_downgrade = saw_downgrade || d.downgraded;
        } else {
            EXPECT_EQ(d.status.code(), StatusCode::Rejected);
            EXPECT_GT(d.retryAfterMs, 0.0);
            saw_reject = true;
        }
    }
    EXPECT_TRUE(saw_downgrade);
    EXPECT_TRUE(saw_reject);
}

TEST(Admission, CriticalClassDegradesLast)
{
    AccuracyResourceLut lut(tinyPoints(), "ms");
    AdmissionController admission(lut);
    const Deadline now = std::chrono::steady_clock::now();

    HealthSignals s = idleSignals();
    s.queueDepth = admission.options().queueCapacity / 2;

    auto accuracy_for = [&](ServeClass cls) {
        AdmissionDecision d =
            admission.decide(150.0, cls, {}, now, s);
        EXPECT_TRUE(d.status.isOk());
        return lut.entries()[d.configIndex].accuracyEstimate;
    };
    const double critical = accuracy_for(ServeClass::Critical);
    const double interactive = accuracy_for(ServeClass::Interactive);
    const double batch = accuracy_for(ServeClass::Batch);
    EXPECT_GT(critical, interactive);
    EXPECT_GT(interactive, batch);
}

TEST(Admission, MemoryBudgetWalksFrontierThenRejects)
{
    AccuracyResourceLut lut(tinyPoints(), "ms");
    // Certified peak bounds parallel to the sorted entries.
    std::vector<size_t> peaks(lut.entries().size(), 0);
    for (size_t i = 0; i < lut.entries().size(); ++i) {
        const std::string &label = lut.entries()[i].config.label;
        peaks[i] = label == "full" ? 300 : label == "mid" ? 200 : 100;
    }
    AdmissionOptions options;
    options.memoryBudgetBytes = 250;
    AdmissionController admission(lut, options, peaks);
    const Deadline now = std::chrono::steady_clock::now();

    // Idle: "full" (certified 300) can never fit the 250-byte budget
    // — "mid" is the memory ceiling. That is the idle ideal, not a
    // degradation, so the downgrade marker stays off.
    HealthSignals s = idleSignals();
    AdmissionDecision d =
        admission.decide(1000.0, ServeClass::Interactive, {}, now, s);
    ASSERT_TRUE(d.status.isOk());
    EXPECT_EQ(lut.entries()[d.configIndex].config.label, "mid");
    EXPECT_FALSE(d.downgraded);

    // In-flight work holding 150: only "small" still fits the
    // remaining 100, and that *is* a memory-pressure downgrade.
    s.inflightPeakBytes = 150;
    d = admission.decide(1000.0, ServeClass::Interactive, {}, now, s);
    ASSERT_TRUE(d.status.isOk());
    EXPECT_EQ(lut.entries()[d.configIndex].config.label, "small");
    EXPECT_TRUE(d.downgraded);

    // 240 in flight: no config fits the remaining 10 — typed
    // rejection with a retry hint, never an over-budget admission.
    s.inflightPeakBytes = 240;
    d = admission.decide(1000.0, ServeClass::Interactive, {}, now, s);
    ASSERT_FALSE(d.status.isOk());
    EXPECT_EQ(d.status.code(), StatusCode::Rejected);
    EXPECT_GE(d.retryAfterMs, admission.options().minRetryAfterMs);
}

TEST(Admission, MemoryPolicyOffWithoutBoundsOrBudget)
{
    AccuracyResourceLut lut(tinyPoints(), "ms");
    const Deadline now = std::chrono::steady_clock::now();
    HealthSignals s = idleSignals();
    s.inflightPeakBytes = 1000; // Ignored in both configurations.

    // A budget without certified bounds cannot veto anything.
    AdmissionOptions with_budget;
    with_budget.memoryBudgetBytes = 1;
    AdmissionController no_bounds(lut, with_budget);
    AdmissionDecision d =
        no_bounds.decide(1000.0, ServeClass::Interactive, {}, now, s);
    ASSERT_TRUE(d.status.isOk());
    EXPECT_EQ(lut.entries()[d.configIndex].config.label, "full");

    // Bounds without a budget: the policy is equally inert.
    AdmissionController no_budget(lut, {}, {300, 200, 100});
    d = no_budget.decide(1000.0, ServeClass::Interactive, {}, now, s);
    ASSERT_TRUE(d.status.isOk());
    EXPECT_EQ(lut.entries()[d.configIndex].config.label, "full");
}

// --- Deadline-aware engine entry points ---------------------------

class ServeEngineFixture : public testing::Test
{
  protected:
    ServeEngineFixture()
        : engine_(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                  AccuracyResourceLut(tinyPoints(), "ms"), 17)
    {
    }

    DrtEngine engine_;
};

TEST_F(ServeEngineFixture, TryInferExpiredDeadlineNeverRuns)
{
    const Deadline past = std::chrono::steady_clock::now() -
                          std::chrono::milliseconds(1);
    Result<DrtResult> r = engine_.tryInfer(testImage(), 1000.0, past);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::DeadlineExceeded);
}

TEST_F(ServeEngineFixture, TryInferMatchesInferOnSuccess)
{
    Result<DrtResult> r = engine_.tryInfer(
        testImage(), 1000.0, deadlineAfterMs(60'000.0));
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r.value().configLabel, "full");
    EXPECT_TRUE(r.value().budgetMet);
    EXPECT_FALSE(r.value().degraded);
}

TEST_F(ServeEngineFixture, TryInferBatchHonorsPerImageDeadlines)
{
    const Deadline past = std::chrono::steady_clock::now() -
                          std::chrono::milliseconds(1);
    const std::vector<Tensor> images = {testImage(1), testImage(2),
                                        testImage(3)};
    const std::vector<Deadline> deadlines = {
        deadlineAfterMs(60'000.0), past, deadlineAfterMs(60'000.0)};
    auto results = engine_.tryInferBatch(images, 1000.0, deadlines);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].isOk());
    ASSERT_FALSE(results[1].isOk());
    EXPECT_EQ(results[1].status().code(),
              StatusCode::DeadlineExceeded);
    EXPECT_TRUE(results[2].isOk());
}

TEST(ServeEngine, BatchReroutesAroundQuarantineMidFlight)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    engine.setResilience(testResilience());
    // Fault only the full path (second block of stage 1); the pruned
    // paths have depth 1 everywhere.
    FaultPlan plan;
    plan.seed = 99;
    plan.specs.push_back(
        {FaultKind::NaNPoison, ".block1.", 1.0, 8, 0.0});
    FaultInjector injector(plan);
    engine.setFaultInjector(&injector);

    const std::vector<Tensor> images = {testImage(1), testImage(2),
                                        testImage(3)};
    auto results = engine.tryInferBatch(images, 1000.0);
    ASSERT_EQ(results.size(), 3u);
    for (auto &r : results) {
        ASSERT_TRUE(r.isOk());
        EXPECT_TRUE(r.value().healthy);
        EXPECT_EQ(r.value().configLabel, "mid");
        EXPECT_TRUE(r.value().degraded);
    }
    // The first image paid the reroute; followers rode the new path.
    EXPECT_EQ(results[0].value().retries, 1);
    EXPECT_EQ(results[1].value().retries, 0);
    EXPECT_TRUE(engine.isQuarantined(engine.numPaths() - 1));
}

/** A plan that NaN-poisons every layer of every path. */
FaultPlan
poisonEverything()
{
    FaultPlan plan;
    plan.seed = 7;
    plan.specs.push_back({FaultKind::NaNPoison, "*", 1.0, 8, 0.0});
    return plan;
}

TEST(ServeEngine, ExhaustedPathsAreTypedQuarantineError)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    engine.setResilience(testResilience());
    FaultInjector injector(poisonEverything());
    engine.setFaultInjector(&injector);

    const std::vector<Tensor> images = {testImage(1), testImage(2)};
    auto results = engine.tryInferBatch(images, 1000.0);
    ASSERT_EQ(results.size(), 2u);
    // Image 0 burns the retry budget across every path and delivers
    // best effort; image 1 finds nothing servable left.
    ASSERT_TRUE(results[0].isOk());
    EXPECT_FALSE(results[0].value().healthy);
    ASSERT_FALSE(results[1].isOk());
    EXPECT_EQ(results[1].status().code(), StatusCode::Quarantined);
    EXPECT_TRUE(engine.allServableQuarantined());
}

TEST(ServeEngine, ProbationEndsWhenEveryPathIsQuarantined)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    const EngineResilienceConfig resilience = testResilience();
    engine.setResilience(resilience);
    FaultInjector injector(poisonEverything());
    engine.setFaultInjector(&injector);

    // One request's retries quarantine every path; then the fault
    // clears. Requests turned away as Quarantined are frames the
    // paths sit out, so the probation window must run out.
    engine.tryInferBatch({testImage(1)}, 1000.0);
    ASSERT_TRUE(engine.allServableQuarantined());
    engine.setFaultInjector(nullptr);

    bool served = false;
    for (int i = 0; i < resilience.probationFrames + 1 && !served; ++i) {
        auto results = engine.tryInferBatch({testImage(2)}, 1000.0);
        ASSERT_EQ(results.size(), 1u);
        if (results[0].isOk()) {
            EXPECT_TRUE(results[0].value().healthy);
            served = true;
        } else {
            EXPECT_EQ(results[0].status().code(),
                      StatusCode::Quarantined);
        }
    }
    EXPECT_TRUE(served) << "probation never ended";
}

// --- End-to-end scheduler -----------------------------------------

/** Terminal outcomes must partition the submitted set exactly. */
void
expectExactlyOneOutcomeEach(const ServeScheduler::Stats &stats)
{
    EXPECT_EQ(stats.completed + stats.rejected + stats.expired +
                  stats.cancelled,
              stats.submitted);
}

TEST(ServeScheduler, ConcurrentSubmissionsAllComplete)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    ServeSchedulerOptions options;
    options.admission.queueCapacity = 64;
    options.maxBatch = 4;
    options.initialCostScale = 1e-6; // don't predict infeasibility
    ServeScheduler scheduler(engine, options);

    constexpr int kThreads = 3;
    constexpr int kPerThread = 6;
    std::vector<std::future<ServeResponse>> futures(
        kThreads * kPerThread);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                ServeRequest request;
                request.image = testImage(
                    static_cast<uint64_t>(t * kPerThread + i + 1));
                request.budget = 1000.0;
                request.priority =
                    static_cast<ServeClass>((t + i) % 3);
                request.deadline = deadlineAfterMs(60'000.0);
                futures[static_cast<size_t>(t * kPerThread + i)] =
                    scheduler.submit(std::move(request));
            }
        });
    }
    for (std::thread &t : submitters)
        t.join();

    for (auto &future : futures) {
        ServeResponse response = future.get();
        EXPECT_TRUE(response.status.isOk())
            << response.status.message();
        EXPECT_GE(response.batchSize, 1u);
    }
    scheduler.shutdown(true);

    const ServeScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.completed, stats.submitted);
    expectExactlyOneOutcomeEach(stats);
}

TEST(ServeScheduler, AdmissionQueueCapacityBoundsTheQueue)
{
    // options.admission.queueCapacity is the one queue cap: it both
    // rejects submits and sizes the request queue.
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    std::promise<void> latch;
    std::shared_future<void> opened = latch.get_future().share();
    std::promise<void> entered;
    std::atomic<bool> signalled{false};
    for (size_t i = 0; i < engine.numPaths(); ++i)
        engine.pathExecutor(i).setPostLayerHook(
            [&entered, &signalled, opened](const Layer &, Tensor &) {
                if (!signalled.exchange(true))
                    entered.set_value();
                opened.wait();
            });

    ServeSchedulerOptions options;
    options.maxBatch = 1;
    options.initialCostScale = 1e-9;
    options.admission.queueCapacity = 2;
    ServeScheduler scheduler(engine, options);
    auto submit = [&scheduler](uint64_t seed) {
        ServeRequest request;
        request.image = testImage(seed);
        request.budget = 1000.0;
        request.priority = ServeClass::Interactive;
        return scheduler.submit(std::move(request));
    };

    std::vector<std::future<ServeResponse>> admitted;
    admitted.push_back(submit(1));
    // The dispatcher now holds request 1 and the queue is empty.
    entered.get_future().wait();
    admitted.push_back(submit(2));
    admitted.push_back(submit(3));
    std::future<ServeResponse> over = submit(4);
    // A rejection is answered inside submit(); check before the
    // dispatcher is released, so a queued request cannot pass.
    const bool answered = over.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready;
    latch.set_value();

    ASSERT_TRUE(answered) << "the 4th request was queued past capacity";
    EXPECT_EQ(over.get().status.code(), StatusCode::Rejected);
    for (auto &response : admitted)
        EXPECT_TRUE(response.get().status.isOk());
    scheduler.shutdown(true);
    EXPECT_EQ(scheduler.stats().rejected, 1u);
    expectExactlyOneOutcomeEach(scheduler.stats());
}

/** What runExpiryBehindFillers observed. */
struct ExpiryRun
{
    ServeResponse doomed;
    std::vector<ServeResponse> fillers;
    ServeScheduler::Stats stats;
};

/**
 * Five Critical fillers and one Batch request with a 200 ms deadline,
 * which admission sees as feasible. A post-layer hook holds the
 * dispatcher inside the fillers' path until that deadline has passed,
 * so the Batch request expires in the queue at any host speed.
 */
ExpiryRun
runExpiryBehindFillers(DrtEngine &engine)
{
    std::promise<void> latch;
    std::shared_future<void> opened = latch.get_future().share();
    engine.pathExecutor(engine.numPaths() - 1)
        .setPostLayerHook(
            [opened](const Layer &, Tensor &) { opened.wait(); });

    ServeSchedulerOptions options;
    options.maxBatch = 1;
    options.initialCostScale = 1e-9; // admission predicts ~0 wait
    ServeScheduler scheduler(engine, options);

    std::vector<std::future<ServeResponse>> fillers;
    for (int i = 0; i < 5; ++i) {
        ServeRequest request;
        request.image = testImage(static_cast<uint64_t>(i + 1));
        request.budget = 1000.0;
        request.priority = ServeClass::Critical;
        fillers.push_back(scheduler.submit(std::move(request)));
    }
    ServeRequest dated;
    dated.image = testImage(99);
    dated.budget = 1000.0;
    dated.priority = ServeClass::Batch;
    dated.deadline = deadlineAfterMs(200.0);
    const Deadline deadline = dated.deadline;
    std::future<ServeResponse> doomed =
        scheduler.submit(std::move(dated));

    std::this_thread::sleep_until(deadline +
                                  std::chrono::milliseconds(1));
    latch.set_value();

    ExpiryRun run;
    run.doomed = doomed.get();
    for (auto &filler : fillers)
        run.fillers.push_back(filler.get());
    scheduler.shutdown(true);
    run.stats = scheduler.stats();
    return run;
}

TEST(ServeScheduler, QueueExpiredDeadlineIsTypedAndNeverRuns)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    // Critical fillers occupy the dispatcher; the dated Batch-class
    // request must wait behind them (strict priority) and expire.
    const ExpiryRun run = runExpiryBehindFillers(engine);

    ASSERT_FALSE(run.doomed.status.isOk());
    EXPECT_EQ(run.doomed.status.code(), StatusCode::DeadlineExceeded);
    for (const ServeResponse &filler : run.fillers)
        EXPECT_TRUE(filler.status.isOk());
    expectExactlyOneOutcomeEach(run.stats);
    EXPECT_GE(run.stats.expired, 1u);
}

TEST(ServeScheduler, ProbationEndsWhenEveryPathIsQuarantined)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    const EngineResilienceConfig resilience = testResilience();
    engine.setResilience(resilience);
    FaultInjector injector(poisonEverything());
    engine.setFaultInjector(&injector);

    ServeSchedulerOptions options;
    options.maxBatch = 1;
    options.initialCostScale = 1e-6;
    ServeScheduler scheduler(engine, options);
    auto serveOne = [&scheduler](uint64_t seed) {
        ServeRequest request;
        request.image = testImage(seed);
        request.budget = 1000.0;
        request.priority = ServeClass::Interactive;
        return scheduler.submit(std::move(request)).get();
    };

    // The first dispatch quarantines every path. Its response is
    // delivered after the dispatcher's last engine access, and the
    // dispatcher then idles on the empty queue, so the fault can be
    // cleared from here.
    serveOne(1);
    engine.setFaultInjector(nullptr);

    bool served = false;
    for (int i = 0; i < resilience.probationFrames + 1 && !served; ++i) {
        const ServeResponse response = serveOne(2);
        if (response.status.isOk()) {
            EXPECT_TRUE(response.result.healthy);
            served = true;
        } else {
            EXPECT_EQ(response.status.code(), StatusCode::Quarantined);
        }
    }
    EXPECT_TRUE(served) << "probation never ended";
    scheduler.shutdown(true);
    EXPECT_GE(scheduler.stats().quarantineRejects, 1u);
    expectExactlyOneOutcomeEach(scheduler.stats());
}

TEST(ServeScheduler, QuarantineRerouteLosesNoResponse)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    engine.setResilience(testResilience());
    FaultPlan plan;
    plan.seed = 99;
    plan.specs.push_back(
        {FaultKind::NaNPoison, ".block1.", 1.0, 8, 0.0});
    FaultInjector injector(plan);
    engine.setFaultInjector(&injector);

    ServeSchedulerOptions options;
    options.maxBatch = 4;
    options.initialCostScale = 1e-6;
    ServeScheduler scheduler(engine, options);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 8; ++i) {
        ServeRequest request;
        request.image = testImage(static_cast<uint64_t>(i + 1));
        request.budget = 1000.0;
        request.priority = ServeClass::Interactive;
        futures.push_back(scheduler.submit(std::move(request)));
    }

    size_t rerouted = 0;
    for (auto &future : futures) {
        ServeResponse response = future.get();
        ASSERT_TRUE(response.status.isOk())
            << response.status.message();
        EXPECT_TRUE(response.result.healthy);
        if (response.rerouted) {
            ++rerouted;
            EXPECT_NE(response.result.configLabel, "full");
        }
    }
    EXPECT_GE(rerouted, 1u);
    scheduler.shutdown(true);

    const ServeScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_GE(stats.rerouted, 1u);
    expectExactlyOneOutcomeEach(stats);
}

TEST(ServeScheduler, ShutdownWithoutDrainCancelsPending)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    ServeSchedulerOptions options;
    options.maxBatch = 1;
    options.initialCostScale = 1e-6;
    ServeScheduler scheduler(engine, options);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 6; ++i) {
        ServeRequest request;
        request.image = testImage(static_cast<uint64_t>(i + 1));
        request.budget = 1000.0;
        futures.push_back(scheduler.submit(std::move(request)));
    }
    scheduler.shutdown(false);

    size_t completed = 0, cancelled = 0;
    for (auto &future : futures) {
        ServeResponse response = future.get();
        if (response.status.isOk()) {
            ++completed;
        } else {
            EXPECT_EQ(response.status.code(), StatusCode::Cancelled);
            ++cancelled;
        }
    }
    EXPECT_EQ(completed + cancelled, 6u);
    const ServeScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.cancelled, cancelled);
    expectExactlyOneOutcomeEach(stats);

    // Submission after shutdown gets a typed Cancelled outcome.
    ServeRequest late;
    late.image = testImage(42);
    late.budget = 1000.0;
    EXPECT_EQ(scheduler.submit(std::move(late)).get().status.code(),
              StatusCode::Cancelled);
}

TEST(ServeScheduler, CompletedRequestCarriesLatencyBreakdown)
{
    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    ServeSchedulerOptions options;
    options.maxBatch = 2;
    options.initialCostScale = 1e-6;
    ServeScheduler scheduler(engine, options);

    ServeRequest request;
    request.image = testImage(1);
    request.budget = 1000.0;
    request.priority = ServeClass::Interactive;
    const ServeResponse response =
        scheduler.submit(std::move(request)).get();
    scheduler.shutdown(true);

    ASSERT_TRUE(response.status.isOk()) << response.status.message();
    const LatencyBreakdown &b = response.breakdown;
    // Engine time was measured, kernel time attributed inside it,
    // and the per-category split sums to the kernel total.
    EXPECT_GT(b.engineMs, 0.0);
    EXPECT_GT(b.kernelMs, 0.0);
    EXPECT_LE(b.kernelMs, b.engineMs);
    double stage_sum = 0.0;
    for (double ms : b.stageMs)
        stage_sum += ms;
    EXPECT_NEAR(stage_sum, b.kernelMs, 1e-6);
    EXPECT_GE(b.queueMs, 0.0);
    EXPECT_GE(b.admissionMs, 0.0);
    EXPECT_FALSE(b.deadlineMiss);
    // A tensor workload is kernel-dominated once it leaves the queue;
    // dominantStage names either queue time or a kernel category.
    EXPECT_FALSE(b.dominantStage().empty());
}

#ifndef VITDYN_TRACING_DISABLED
TEST(ServeScheduler, DeadlineMissWritesFlightDumpWithSpanChain)
{
    const std::string dir =
        testing::TempDir() + "vitdyn_serve_flight";
    mkdir(dir.c_str(), 0755);
    FlightRecorder &recorder = FlightRecorder::instance();
    Tracer::instance().clear();
    FlightRecorderOptions fr;
    fr.directory = dir;
    fr.minIntervalMs = 0.0;
    recorder.arm(fr);

    DrtEngine engine(ModelFamily::Segformer, tinyBase(), SwinConfig{},
                     AccuracyResourceLut(tinyPoints(), "ms"), 17);
    // Same shape as QueueExpiredDeadlineIsTypedAndNeverRuns: fillers
    // occupy the dispatcher while a dated request expires behind
    // them, which must fire the DeadlineMiss flight trigger.
    const ServeResponse doomed = runExpiryBehindFillers(engine).doomed;
    recorder.disarm();
    Tracer::instance().clear();

    EXPECT_EQ(doomed.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_TRUE(doomed.breakdown.deadlineMiss);
    EXPECT_GT(doomed.breakdown.queueMs, 0.0);

    ASSERT_GE(recorder.triggers(), 1u);
    const std::vector<std::string> paths = recorder.dumpPaths();
    ASSERT_GE(paths.size(), 1u);
    EXPECT_NE(paths[0].find("deadline_miss"), std::string::npos);

    Result<JsonValue> parsed = parseJsonFile(paths[0]);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().message();
    const JsonValue *header = parsed.value().find("flightRecorder");
    ASSERT_NE(header, nullptr);
    EXPECT_EQ(header->stringOr("trigger", ""), "deadline_miss");
    const double req_id = header->numberOr("request", 0.0);
    EXPECT_GT(req_id, 0.0);
    EXPECT_NE(header->stringOr("detail", "").find("deadline"),
              std::string::npos);

    // The dump carries the missed request's span chain — at minimum
    // the scheduler's terminal serve.request summary, every event
    // tagged with the triggering request's id.
    const JsonValue *spans = parsed.value().find("spans");
    ASSERT_NE(spans, nullptr);
    const JsonValue *events = spans->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GE(events->array().size(), 1u);
    bool saw_summary = false;
    for (const JsonValue &ev : events->array()) {
        const JsonValue *args = ev.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_DOUBLE_EQ(args->numberOr("req", 0.0), req_id);
        if (ev.stringOr("name", "") == "serve.request") {
            saw_summary = true;
            EXPECT_EQ(args->stringOr("outcome", ""), "expired");
            EXPECT_GT(args->numberOr("queue_ms", 0.0), 0.0);
        }
    }
    EXPECT_TRUE(saw_summary);
    // The embedded metrics snapshot recorded the miss for the class.
    const JsonValue *metrics = parsed.value().find("metrics");
    ASSERT_NE(metrics, nullptr);
    const JsonValue *counters = metrics->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GE(counters->numberOr("serve.batch.deadline_miss", 0.0),
              1.0);
}
#endif // VITDYN_TRACING_DISABLED

} // namespace
} // namespace vitdyn
