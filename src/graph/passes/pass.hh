/**
 * @file
 * Lint-gated graph rewrite (pass) framework.
 *
 * A Pass is a semantics-preserving rewrite over Graph, in the style
 * of popart's pattern registry: conv+BN+activation fusion, constant
 * folding, dead-layer elimination, in-place buffer-reuse priorities.
 * PassManager chains passes into a pipeline and enforces the
 * framework contract around every one of them:
 *
 *  - lint-gated: analysis::lintGraph runs on the pipeline's input and
 *    after every rewriting pass. The shape-flow cross-check (an
 *    independent re-derivation of every stored shape) doubles as a
 *    free rewrite validator — a pass that miswires an edge or leaves
 *    a stale shape is caught before its graph can reach an executor.
 *
 *  - transactional: each pass runs on a scratch copy that replaces
 *    the real graph only if the pass succeeds AND the rewritten graph
 *    still lints clean. A failing pass leaves the graph untouched.
 *
 *  - bit-identical execution: rewrites may eliminate intermediate
 *    tensor materializations and memory passes, but must never change
 *    per-element arithmetic (see FusedEpilogue in graph/layer.hh and
 *    the in-place kernels in tensor/ops.hh). Graph FLOP/param totals
 *    are likewise invariants: fused layers absorb the accounting of
 *    the layers they replace.
 *
 * To add a pass: subclass Pass in a new .cc file under passes/,
 * return the rewrite count from run(), add a factory to passes.hh, and
 * register the factory in the name table in pass.cc. The fuzz property suite
 * (test_graph_fuzz) and the lint gate then cover it automatically
 * when it joins standardPipeline().
 */

#ifndef VITDYN_GRAPH_PASSES_PASS_HH
#define VITDYN_GRAPH_PASSES_PASS_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "graph/graph.hh"
#include "util/status.hh"

namespace vitdyn
{

/** Shared configuration every pass in a pipeline sees. */
struct PassOptions
{
    /**
     * Lint configuration for the before/after gates. Suppressions
     * here serve double duty: any "graph.unreachable" suppression
     * also protects the matching layers from dead-layer elimination
     * (a sanctioned-dead layer must stay, not merely stay unreported).
     */
    LintOptions lint;

    /**
     * Layer-name substrings that dead-layer elimination (and the
     * normalize every rewriting pass ends with) must keep even when
     * unreachable — cost-only layers a proxy model carries by design.
     */
    std::vector<std::string> preserveLayers;
};

/** One named graph rewrite. */
class Pass
{
  public:
    explicit Pass(std::string name)
        : name_(std::move(name))
    {
    }

    virtual ~Pass() = default;

    const std::string &name() const { return name_; }

    /**
     * Apply the rewrite to @p graph, returning how many rewrites were
     * performed (0 = structural no-op; every pass must be idempotent,
     * i.e. a second run returns 0). The PassManager hands in a
     * scratch copy, so an error Status may leave @p graph in any
     * state — the caller discards it.
     */
    virtual Result<int> run(Graph &graph,
                            const PassOptions &options) const = 0;

  private:
    std::string name_;
};

/** Outcome of one pass within a pipeline run. */
struct PassStats
{
    std::string pass;
    int rewrites = 0;
    double ms = 0.0;
};

/** Outcome of a whole PassManager::run. */
struct PipelineReport
{
    std::vector<PassStats> passes;
    size_t layersBefore = 0;
    size_t layersAfter = 0;
    int64_t flopsBefore = 0;
    int64_t flopsAfter = 0;

    int totalRewrites() const
    {
        int total = 0;
        for (const PassStats &p : passes)
            total += p.rewrites;
        return total;
    }
};

/** Ordered pipeline of passes with the lint gate between them. */
class PassManager
{
  public:
    explicit PassManager(PassOptions options = {});

    /** Append a pass; returns *this for chaining. */
    PassManager &add(std::unique_ptr<Pass> pass);

    /**
     * Append a registered pass by name; error Status on an unknown
     * name (see registeredPassNames()).
     */
    Status addByName(const std::string &name);

    /**
     * Run the pipeline over @p graph. The input graph must lint clean
     * (errors only; warnings pass). Each pass runs transactionally:
     * on a pass error or a post-pass lint failure the returned Status
     * names the pass and @p graph keeps the last good state.
     */
    Result<PipelineReport> run(Graph &graph) const;

    size_t numPasses() const { return passes_.size(); }

    const PassOptions &options() const { return options_; }

    /**
     * The standard battery in its canonical order: fuse-conv-bn-act,
     * fold-constants, dead-layer-elim, inplace-priority.
     */
    static PassManager standardPipeline(PassOptions options = {});

  private:
    PassOptions options_;
    std::vector<std::unique_ptr<Pass>> passes_;
};

/** Construct a registered pass by name; nullptr when unknown. */
std::unique_ptr<Pass> makePass(const std::string &name);

/** Names accepted by makePass, in standard-pipeline order. */
std::vector<std::string> registeredPassNames();

/**
 * Graph::tryNormalize that additionally keeps unreachable layers the
 * options sanction (preserveLayers substrings and the layer-name
 * patterns of any "graph.unreachable" lint suppression). Passes call
 * this instead of tryNormalize directly so a fusion elsewhere in the
 * graph can never silently drop a proxy model's cost-only layers.
 */
Status normalizePreserving(Graph &graph, const PassOptions &options);

} // namespace vitdyn

#endif // VITDYN_GRAPH_PASSES_PASS_HH
