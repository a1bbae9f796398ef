#include "graph/graph.hh"

#include <sstream>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace vitdyn
{

namespace
{

/**
 * Infer every layer's output shape into a parallel vector without
 * writing the graph. Producers already visited in this run contribute
 * their freshly inferred shape; forward references (possible before a
 * normalize) fall back to the producer's stored shape — the same
 * propagation order the historical in-place update used. On error the
 * Status names the offending layer and @p layers is untouched.
 */
Result<std::vector<Shape>>
inferAllShapes(const std::vector<Layer> &layers)
{
    const int n = static_cast<int>(layers.size());
    std::vector<Shape> shapes(n);
    std::vector<bool> done(n, false);
    for (int pos = 0; pos < n; ++pos) {
        const Layer &layer = layers[pos];
        if (layer.kind == LayerKind::Input) {
            shapes[pos] = layer.outShape;
            done[pos] = true;
            continue;
        }
        std::vector<Shape> in_shapes;
        in_shapes.reserve(layer.inputs.size());
        for (int in_id : layer.inputs) {
            if (in_id < 0 || in_id >= n)
                return Status::error(detail::formatParts(
                    "layer '", layer.name, "' references id ", in_id,
                    " out of range"));
            in_shapes.push_back(done[in_id] ? shapes[in_id]
                                            : layers[in_id].outShape);
        }
        Result<Shape> out = tryInferShape(layer, in_shapes);
        if (!out)
            return out.status();
        shapes[pos] = out.take();
        done[pos] = true;
    }
    return shapes;
}

} // namespace

Graph::Graph(std::string name)
    : name_(std::move(name))
{
}

int
Graph::addInput(const std::string &name, Shape shape)
{
    // Executor::run binds (and moves) inputs by name.
    for (int id : inputs_)
        vitdyn_assert(layers_[id].name != name, "graph input '", name,
                      "' declared twice");
    Layer layer;
    layer.id = static_cast<int>(layers_.size());
    layer.name = name;
    layer.kind = LayerKind::Input;
    layer.outShape = std::move(shape);
    layers_.push_back(std::move(layer));
    inputs_.push_back(layers_.back().id);
    return layers_.back().id;
}

int
Graph::addLayer(Layer layer)
{
    vitdyn_assert(layer.kind != LayerKind::Input,
                  "use addInput for graph inputs");
    layer.id = static_cast<int>(layers_.size());

    std::vector<Shape> in_shapes;
    in_shapes.reserve(layer.inputs.size());
    for (int in_id : layer.inputs) {
        vitdyn_assert(in_id >= 0 && in_id < layer.id,
                      "layer '", layer.name, "' references id ", in_id,
                      " out of range (must precede id ", layer.id, ")");
        in_shapes.push_back(layers_[in_id].outShape);
    }
    layer.outShape = inferShape(layer, in_shapes);
    layers_.push_back(std::move(layer));
    return layers_.back().id;
}

int
Graph::addOutput(Layer layer)
{
    const int id = addLayer(std::move(layer));
    outputs_.push_back(id);
    return id;
}

void
Graph::markOutput(int id)
{
    vitdyn_assert(id >= 0 && id < static_cast<int>(layers_.size()),
                  "markOutput: bad id ", id);
    outputs_.push_back(id);
}

void
Graph::setOutputs(std::vector<int> outputs)
{
    for (int id : outputs)
        vitdyn_assert(id >= 0 && id < static_cast<int>(layers_.size()),
                      "setOutputs: bad id ", id);
    outputs_ = std::move(outputs);
}

int
Graph::appendUnordered(Layer layer)
{
    vitdyn_assert(layer.kind != LayerKind::Input,
                  "use addInput for graph inputs");
    layer.id = static_cast<int>(layers_.size());

    std::vector<Shape> in_shapes;
    in_shapes.reserve(layer.inputs.size());
    for (int in_id : layer.inputs) {
        vitdyn_assert(in_id >= 0 && in_id < layer.id,
                      "appendUnordered: unknown producer id ", in_id);
        in_shapes.push_back(layers_[in_id].outShape);
    }
    layer.outShape = inferShape(layer, in_shapes);
    layers_.push_back(std::move(layer));
    return layers_.back().id;
}

void
Graph::normalize(std::vector<int> *old_to_new)
{
    Status status = tryNormalize(old_to_new);
    if (!status)
        vitdyn_panic(status.message());
}

Status
Graph::tryNormalize(std::vector<int> *old_to_new_out)
{
    const int n = static_cast<int>(layers_.size());

    // Reachability: walk backwards from the outputs.
    std::vector<bool> live(n, false);
    std::vector<int> stack = outputs_;
    for (const Layer &layer : layers_)
        if (layer.kind == LayerKind::Input)
            stack.push_back(layer.id);
    while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        if (live[id])
            continue;
        live[id] = true;
        for (int in_id : layers_[id].inputs)
            stack.push_back(in_id);
    }

    // Kahn topological sort over the live subgraph.
    std::vector<int> indegree(n, 0);
    std::vector<std::vector<int>> consumers(n);
    for (const Layer &layer : layers_) {
        if (!live[layer.id])
            continue;
        for (int in_id : layer.inputs) {
            ++indegree[layer.id];
            consumers[in_id].push_back(layer.id);
        }
    }

    std::vector<int> order;
    order.reserve(n);
    // Seed with all live zero-indegree layers, in id order for stability.
    for (int id = 0; id < n; ++id)
        if (live[id] && indegree[id] == 0)
            order.push_back(id);
    for (size_t i = 0; i < order.size(); ++i) {
        for (int next : consumers[order[i]]) {
            if (--indegree[next] == 0)
                order.push_back(next);
        }
    }

    int live_count = 0;
    for (int id = 0; id < n; ++id)
        live_count += live[id] ? 1 : 0;
    if (static_cast<int>(order.size()) != live_count)
        return Status::error(detail::formatParts(
            "cycle detected in graph '", name_, "'"));

    std::vector<int> old_to_new(n, -1);
    for (size_t i = 0; i < order.size(); ++i)
        old_to_new[order[i]] = static_cast<int>(i);

    // Build the renumbered graph in scratch storage (copies, so a
    // failure below leaves *this byte-identical) and only swap it in
    // once shape inference has validated the whole result.
    std::vector<Layer> new_layers;
    new_layers.reserve(order.size());
    for (int old_id : order) {
        Layer layer = layers_[old_id];
        layer.id = old_to_new[old_id];
        for (int &in_id : layer.inputs)
            in_id = old_to_new[in_id];
        new_layers.push_back(std::move(layer));
    }

    Result<std::vector<Shape>> shapes = inferAllShapes(new_layers);
    if (!shapes)
        return shapes.status();
    for (size_t i = 0; i < new_layers.size(); ++i)
        new_layers[i].outShape = shapes.value()[i];

    // Commit point: everything below is noexcept bookkeeping.
    if (live_count < n) {
        static Counter &dropped = MetricsRegistry::instance().counter(
            "graph.dropped_layers");
        dropped.add(static_cast<uint64_t>(n - live_count));
        for (const Layer &layer : layers_)
            if (!live[layer.id])
                debug("graph '", name_, "': normalize dropped ",
                      "unreachable layer '", layer.name, "' (",
                      layerKindName(layer.kind), ")");
    }
    layers_ = std::move(new_layers);
    for (int &id : inputs_)
        id = old_to_new[id];
    for (int &id : outputs_)
        id = old_to_new[id];
    if (old_to_new_out)
        *old_to_new_out = std::move(old_to_new);
    return Status::ok();
}

const Layer &
Graph::layer(int id) const
{
    vitdyn_assert(id >= 0 && id < static_cast<int>(layers_.size()),
                  "layer id ", id, " out of range");
    return layers_[id];
}

Layer &
Graph::layer(int id)
{
    vitdyn_assert(id >= 0 && id < static_cast<int>(layers_.size()),
                  "layer id ", id, " out of range");
    return layers_[id];
}

int
Graph::findLayer(const std::string &name) const
{
    for (const Layer &layer : layers_)
        if (layer.name == name)
            return layer.id;
    return -1;
}

std::vector<int>
Graph::layersInStage(const std::string &prefix) const
{
    std::vector<int> out;
    for (const Layer &layer : layers_)
        if (layer.stage.rfind(prefix, 0) == 0)
            out.push_back(layer.id);
    return out;
}

std::vector<int>
Graph::consumersOf(int id) const
{
    std::vector<int> out;
    for (const Layer &layer : layers_)
        for (int in_id : layer.inputs)
            if (in_id == id) {
                out.push_back(layer.id);
                break;
            }
    return out;
}

int64_t
Graph::totalFlops() const
{
    int64_t total = 0;
    for (const Layer &layer : layers_)
        total += layer.flops();
    return total;
}

int64_t
Graph::totalMacs() const
{
    int64_t total = 0;
    for (const Layer &layer : layers_)
        total += layer.macs();
    return total;
}

int64_t
Graph::totalParams() const
{
    int64_t total = 0;
    for (const Layer &layer : layers_)
        total += layer.paramCount();
    return total;
}

void
Graph::recomputeShapes()
{
    Status status = tryRecomputeShapes();
    if (!status)
        vitdyn_panic(status.message());
}

Status
Graph::tryRecomputeShapes()
{
    // Infer into scratch storage first: an inconsistency anywhere
    // leaves every stored shape untouched (the error Status from
    // tryInferShape names the offending layer).
    Result<std::vector<Shape>> shapes = inferAllShapes(layers_);
    if (!shapes)
        return shapes.status();
    for (size_t i = 0; i < layers_.size(); ++i)
        layers_[i].outShape = shapes.value()[i];
    return Status::ok();
}

std::string
Graph::toString() const
{
    std::ostringstream oss;
    oss << "Graph '" << name_ << "': " << layers_.size() << " layers, "
        << totalFlops() / 1.0e9 << " GFLOPs, "
        << totalParams() / 1.0e6 << " M params\n";
    for (const Layer &layer : layers_) {
        oss << "  [" << layer.id << "] " << layer.name << " ("
            << layerKindName(layer.kind);
        if (layer.fused.bn)
            oss << "+BN";
        if (layer.fused.activation != LayerKind::Identity)
            oss << "+" << layerKindName(layer.fused.activation);
        oss << ") -> " << shapeToString(layer.outShape)
            << "  " << layer.flops() / 1.0e6 << " MFLOPs";
        if (layer.bypassed)
            oss << "  [bypassed]";
        if (layer.inplacePriority > 0)
            oss << "  [inplace p=" << layer.inplacePriority << "]";
        oss << "\n";
    }
    return oss.str();
}

} // namespace vitdyn
