/**
 * @file
 * Shared pieces of the DRT benchmark: clocks, sample statistics, the
 * metric report, the two model setups (SegFormer-B2 with the Table II
 * catalog, and the 64x64 soak model), the seed-independent image bank
 * with its golden output checksums, and the post-layer hook recorder
 * that times layers from outside the library.
 *
 * The benchmark only calls the library's public API; it never changes
 * the program it measures.
 */

#ifndef DRTBENCH_COMMON_HH
#define DRTBENCH_COMMON_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "graph/weight_store.hh"

namespace drtbench
{

using namespace vitdyn;

/** steady_clock nanoseconds. */
int64_t nowNs();

/** Process CPU time (all threads) in nanoseconds. */
int64_t cpuNs();

/** Nearest-rank quantile of @p values (copied, then sorted). */
double quantile(std::vector<double> values, double q);

double mean(const std::vector<double> &values);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< Sample count or base, for the human table.
};

/** What one workload run hands back to main(). */
struct RunReport
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra human-readable tables (per-layer breakdowns). */
    std::vector<std::string> tables;

    void add(std::string name, double value, std::string unit,
             std::string note = "");
};

/** Command line of one run. */
struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string goldenPath;
    std::string rev = "unknown"; ///< Source revision, from run.py.
};

/** "n=<count>", the sample-count note of the human table. */
std::string countNote(size_t n);

/**
 * Instrumentation of one traced frame. Traced runs cycle hooked,
 * untraced, hooked, tracer-on, so instrumented and uninstrumented
 * frames interleave and host drift cancels out of their comparison.
 */
enum Mode { kHook = 0, kPlain = 1, kHook2 = 2, kTracer = 3 };

/** Frame times of a traced run per instrumentation mode and config. */
class ModeTimes
{
  public:
    explicit ModeTimes(size_t paths) : paths_(paths), ms_(4 * paths) {}

    void add(int mode, size_t config, double ms);

    /** Summed per-config medians of @p mode frames over those of
     *  untraced frames, minus one; configs weigh equally. */
    double overhead(int mode) const;

    /** engine.cost_ratio.{cheapest,full,spread}: median untraced ms
     *  per LUT cost unit, over the configs that ran. */
    void reportCostRatios(const AccuracyResourceLut &lut,
                          RunReport &report) const;

  private:
    const std::vector<double> &of(int mode, size_t config) const
    {
        return ms_[static_cast<size_t>(mode) * paths_ + config];
    }

    size_t paths_;
    std::vector<std::vector<double>> ms_;
};

/** Pool concurrency for every timed run (caller included). */
constexpr int kPoolThreads = 3;

/** Which of the two models a workload runs. */
enum class ModelId { B2, Soak };

const char *modelName(ModelId model);

SegformerConfig modelConfig(ModelId model);

/** Sweep the model's candidates into its Pareto LUT (GPU-model ms). */
AccuracyResourceLut buildLut(ModelId model);

/** An engine with the weight store it reads. Members are destroyed
 *  in reverse order, so the engine goes before its store. */
struct EngineBox
{
    std::unique_ptr<WeightStore> store;
    std::unique_ptr<DrtEngine> engine;
    AccuracyResourceLut lut;
};

/**
 * The timed setup: LUT sweep plus engine creation with a fresh weight
 * store (so every repetition pays synthesis), conv autotuning off (the
 * documented determinism setting). Fills @p sweep_ms and
 * @p create_ms.
 */
std::unique_ptr<EngineBox> setupEngine(ModelId model, size_t cache_cap,
                                       double *sweep_ms,
                                       double *create_ms);

/** Time of linting every LUT config's graph, as the engine's load
 *  gate does (prune rebuild + lint + certified peak). */
double lintMs(ModelId model, const AccuracyResourceLut &lut);

/** Images the workloads draw from; independent of the run seed. */
std::vector<Tensor> imageBank(ModelId model);

/** FNV-1a over the float bit patterns of @p t. */
uint64_t checksum(const Tensor &t);

/**
 * Committed golden checksums: (model, config label, bank index) ->
 * checksum. Missing entries are failures, never skips.
 */
class Goldens
{
  public:
    bool load(const std::string &path, std::string *error);
    /** True when @p output is the golden output of config/image. */
    bool matches(ModelId model, const std::string &config, size_t image,
                 const Tensor &output) const;
    void set(ModelId model, const std::string &config, size_t image,
             uint64_t sum);
    std::string toText() const;

  private:
    std::map<std::string, uint64_t> sums_;
};

/**
 * Mean LUT accuracy over @p attempted requests, failures counting 0,
 * summed per config in LUT order: equal config mixes give bit-equal
 * results whatever the number of requests.
 */
double deliveredAccuracy(const std::vector<uint64_t> &ok_by_config,
                         uint64_t attempted, const AccuracyResourceLut &lut);

/** Budget that makes the engine pick LUT entry @p index. */
double budgetFor(const AccuracyResourceLut &lut, size_t index, double u);

/**
 * Per-layer interval recorder behind Executor::setPostLayerHook.
 *
 * The hook runs after each non-input layer. Each call after a frame's
 * first closes the interval since the previous call of the same frame
 * and charges it to the layer just run, so the intervals tile the
 * executor's run from the first hook to the last. Time before the
 * first hook (the engine's pre-run work plus the first layer, which no
 * hook can separate from it) and after the last is engine overhead.
 * Everything is preallocated: the hook itself never allocates, so it
 * does not disturb the alloc counters.
 */
class LayerRecorder
{
  public:
    explicit LayerRecorder(const AccuracyResourceLut &lut,
                           const SegformerConfig &base);

    /** Hook for path @p index (captures one pointer: no allocation). */
    Executor::PostLayerHook hook(size_t index);

    /** First and last hook time of one frame or request; 0 if none. */
    struct Span
    {
        int64_t firstHookNs = 0;
        int64_t lastHookNs = 0;

        int64_t coveredNs() const { return lastHookNs - firstHookNs; }
    };

    /** Closed loop: start a new frame. */
    void beginFrame() { frame_ = Span{}; }
    /** Closed loop: the frame just run. */
    const Span &frame() const { return frame_; }

    /**
     * Open loop: the hook keys frames by RequestContext id. Requests
     * with ids at or beyond @p capacity are not recorded, and neither
     * are those recordMask() leaves 0 (their hook only reads the
     * clock, like a recorded one).
     */
    void enableRequestMode(size_t capacity);
    std::vector<uint8_t> &recordMask() { return recordMask_; }
    const std::vector<Span> &requests() const { return requests_; }

    /** Per-path per-layer summed ns and sample counts. */
    struct LayerAcc
    {
        int64_t ns = 0;
        uint64_t n = 0;
    };
    const std::vector<std::vector<LayerAcc>> &layers() const
    {
        return layers_;
    }
    /** The recorder's own copy of each path's graph (static facts). */
    const std::vector<Graph> &graphs() const { return graphs_; }

  private:
    struct HookCtx
    {
        LayerRecorder *self;
        size_t path;
    };
    void onLayer(size_t path, const Layer &layer);

    std::vector<Graph> graphs_;
    std::vector<std::vector<LayerAcc>> layers_;
    std::vector<std::unique_ptr<HookCtx>> ctx_;
    Span frame_;
    bool requestMode_ = false;
    std::vector<Span> requests_;
    std::vector<uint8_t> recordMask_;
};

/** Allocation counters fed by the operator new replacement. */
struct AllocCounts
{
    uint64_t count = 0;
    uint64_t bytes = 0;
};
AllocCounts allocCounts();

/** Host conditions around a run (see host.cc). */
struct HostSample
{
    int64_t wallNs = 0;
    uint64_t stealTicks = 0;
    uint64_t totalTicks = 0;
    double canaryMs = 0.0;
};
HostSample sampleHost();
/** One-line JSON host record for the run, printed before the result. */
std::string hostRecord(const HostSample &before, const HostSample &after,
                       const RunArgs &args);

/** Peak resident set of the process, MiB. */
double peakRssMb();

/** Per-category / Conv2DFuse / attention tables and their metrics,
 *  from a recorder's accumulated intervals over @p frames frames. */
void layerReport(const LayerRecorder &rec, double frames,
                 RunReport &report);

RunReport runClosedLoop(const RunArgs &args, const Goldens &goldens);
RunReport runServeOpen(const RunArgs &args, const Goldens &goldens);

} // namespace drtbench

#endif // DRTBENCH_COMMON_HH
