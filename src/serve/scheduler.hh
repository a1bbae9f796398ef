/**
 * @file
 * The multi-tenant serving front end: an asynchronous request
 * scheduler over one DrtEngine.
 *
 * Concurrency model: any number of tenant threads call submit();
 * each submit runs admission inline (pure function over atomic
 * health signals — no engine access, no queue lock beyond the push)
 * and returns a std::future for the request's single terminal
 * outcome. One dispatcher thread owns the engine — DrtEngine is not
 * internally synchronized, and serializing it costs nothing because
 * the kernels underneath already fan out on the process-wide
 * ThreadPool — and drains the queue in priority/EDF order, grouping
 * compatible same-config requests into one dynamic-batch dispatch
 * through the WeightStore-backed executor LRU. Quarantine reroutes
 * happen inside DrtEngine::tryInferBatch, which also answers
 * StatusCode::Quarantined when no path is servable (counted in
 * Stats::quarantineRejects); the dispatcher republishes the engine's
 * quarantine count so admission's quarantine pressure stays fresh
 * without touching the engine.
 *
 * Closed resilience loop: pool.queue_depth / pool.task_wait_ms
 * (PR 3) and engine quarantine/veto counts (PRs 1/5) feed admission;
 * the LUT frontier (the paper's 'A' block) is the degradation
 * ladder; the WeightStore LRU (PR 4) makes config diversity cheap
 * enough that dynamic batching across tenants stays warm.
 *
 * Metrics: serve.submitted/admitted/downgraded/rejected/expired/
 * completed/rerouted/cancelled counters, serve.queue_depth gauge,
 * serve.queue_wait_ms / serve.e2e_ms / serve.batch_size histograms,
 * plus per-class SLO accounting: serve.<class>.deadline_miss /
 * serve.<class>.downgrade counters and serve.<class>.latency_ms /
 * serve.<class>.queue_ms histograms whose observations carry the
 * request id as an exemplar (tail bucket -> traceable request).
 * Every terminal outcome also carries a LatencyBreakdown and emits a
 * "serve.request" summary trace event; deadline misses and
 * quarantine reroutes fire the anomaly FlightRecorder when armed.
 */

#ifndef VITDYN_SERVE_SCHEDULER_HH
#define VITDYN_SERVE_SCHEDULER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <thread>

#include "engine/engine.hh"
#include "serve/admission.hh"
#include "serve/request_queue.hh"
#include "serve/serve.hh"

namespace vitdyn
{

struct ServeSchedulerOptions
{
    /** Max requests fused into one engine dispatch. */
    size_t maxBatch = 8;

    /** Admission policy; its queueCapacity (the hard submit limit)
     *  also sizes the request queue. */
    AdmissionOptions admission;

    /** Wall ms per LUT cost unit before online calibration. */
    double initialCostScale = 1.0;
};

/** Async deadline/priority scheduler over one DrtEngine. */
class ServeScheduler
{
  public:
    /** @p engine must outlive the scheduler; the scheduler's
     *  dispatcher thread is the engine's only caller from
     *  construction until shutdown. */
    explicit ServeScheduler(DrtEngine &engine,
                            ServeSchedulerOptions options = {});

    /** shutdown(true): queued work completes before teardown. */
    ~ServeScheduler();

    ServeScheduler(const ServeScheduler &) = delete;
    ServeScheduler &operator=(const ServeScheduler &) = delete;

    /**
     * Submit one request; thread-safe. The returned future resolves
     * to exactly one terminal ServeResponse — possibly immediately
     * (admission rejection). Never blocks on the engine.
     */
    std::future<ServeResponse> submit(ServeRequest request);

    /**
     * Stop accepting new requests; idempotent. @p drain = true runs
     * everything already queued to completion, false cancels it
     * (StatusCode::Cancelled). Joins the dispatcher.
     */
    void shutdown(bool drain = true);

    /** Aggregate outcome counts since construction. */
    struct Stats
    {
        uint64_t submitted = 0;
        uint64_t admitted = 0;
        uint64_t downgraded = 0; ///< Admits below requested budget.
        uint64_t rejected = 0;   ///< Admission/backpressure sheds.
        uint64_t expired = 0;    ///< Deadline passed in queue/flight.
        uint64_t completed = 0;  ///< OK responses delivered.
        uint64_t rerouted = 0;   ///< Completed off the admitted
                                 ///< config (quarantine mid-flight).
        uint64_t cancelled = 0;  ///< Shutdown before dispatch.
        uint64_t quarantineRejects = 0; ///< Engine: no healthy path.
        /** Completions that landed after their deadline, per class
         *  (misses = expired-in-queue ones count here too). */
        std::array<uint64_t, kServeClasses> deadlineMisses{};
        /** Requests carrying a deadline, per class (miss-rate
         *  denominator). */
        std::array<uint64_t, kServeClasses> deadlineTotal{};
    };

    Stats stats() const;

    size_t queueDepth() const { return queue_.depth(); }

    /** Current wall-ms-per-LUT-cost calibration (EWMA). */
    double costScale() const
    {
        return costScale_.load(std::memory_order_relaxed);
    }

  private:
    void dispatchLoop();
    /** Snapshot of the health signals as seen by a request of
     *  @p cls — the backlog only counts same-or-higher classes,
     *  matching strict-priority dispatch order. */
    HealthSignals gatherSignals(ServeClass cls) const;
    void deliver(QueuedRequest &request, ServeResponse &&response);

    DrtEngine &engine_;
    ServeSchedulerOptions options_;
    AdmissionController admission_;
    RequestQueue queue_;
    std::atomic<uint64_t> nextId_{1};
    std::atomic<double> costScale_;
    std::atomic<double> inflightCost_{0.0};
    /** Certified peak bytes of the dispatched config while a batch is
     *  in flight (single dispatcher: one config at a time). */
    std::atomic<size_t> inflightPeakBytes_{0};
    /** Engine quarantine count, republished by the dispatcher after
     *  every batch so submit() never touches the engine. */
    std::atomic<uint64_t> quarantinedPaths_{0};
    std::atomic<bool> shutdown_{false};

    // Stats counters (relaxed; stats() assembles a snapshot).
    std::atomic<uint64_t> submitted_{0}, admitted_{0}, downgraded_{0},
        rejected_{0}, expired_{0}, completed_{0}, rerouted_{0},
        cancelled_{0}, quarantineRejects_{0};
    std::array<std::atomic<uint64_t>, kServeClasses> deadlineMisses_{};
    std::array<std::atomic<uint64_t>, kServeClasses> deadlineTotal_{};

    std::thread dispatcher_;
};

} // namespace vitdyn

#endif // VITDYN_SERVE_SCHEDULER_HH
