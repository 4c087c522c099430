#include "gates/core/pipeline.hpp"

#include <algorithm>
#include <queue>

namespace gates::core {

Status PipelineSpec::validate() const {
  if (stages.empty()) return invalid_argument("pipeline has no stages");
  if (sources.empty()) return invalid_argument("pipeline has no sources");

  for (const auto& src : sources) {
    if (src.target_stage >= stages.size()) {
      return invalid_argument("source '" + src.name +
                              "' targets nonexistent stage index " +
                              std::to_string(src.target_stage));
    }
    if (src.rate_hz <= 0) {
      return invalid_argument("source '" + src.name + "' has non-positive rate");
    }
  }

  for (const auto& edge : edges) {
    if (edge.from_stage >= stages.size() || edge.to_stage >= stages.size()) {
      return invalid_argument("edge references nonexistent stage");
    }
    if (edge.from_stage == edge.to_stage) {
      return invalid_argument("self-loop on stage '" +
                              stages[edge.from_stage].name + "'");
    }
  }

  for (const auto& stage : stages) {
    if (stage.input_capacity == 0) {
      return invalid_argument("stage '" + stage.name + "' has zero input capacity");
    }
    if (!stage.factory && stage.processor_uri.empty()) {
      return invalid_argument("stage '" + stage.name +
                              "' has neither a factory nor a processor URI");
    }
    const Parallelism& par = stage.parallelism;
    if (par.replicas == 0) {
      return invalid_argument("stage '" + stage.name + "' has zero replicas");
    }
    if (par.mode == ParallelismMode::kSerial && par.replicas > 1) {
      return invalid_argument("stage '" + stage.name +
                              "' is serial but declares " +
                              std::to_string(par.replicas) + " replicas");
    }
    if (par.mode == ParallelismMode::kKeyed && !par.shard_fn) {
      return invalid_argument("stage '" + stage.name +
                              "' is keyed but has no shard function");
    }
    if (par.max_replicas != 0 && par.max_replicas < par.replicas) {
      return invalid_argument("stage '" + stage.name +
                              "' max_replicas below initial replicas");
    }
  }

  // Acyclicity via Kahn's algorithm over stage edges.
  std::vector<std::size_t> indegree(stages.size(), 0);
  for (const auto& edge : edges) ++indegree[edge.to_stage];
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    std::size_t s = ready.front();
    ready.pop();
    ++visited;
    for (const auto& edge : edges) {
      if (edge.from_stage == s && --indegree[edge.to_stage] == 0) {
        ready.push(edge.to_stage);
      }
    }
  }
  if (visited != stages.size()) {
    return invalid_argument("pipeline stage graph contains a cycle");
  }

  // Every stage must be reachable from some source.
  std::vector<bool> fed(stages.size(), false);
  std::queue<std::size_t> frontier;
  for (const auto& src : sources) {
    if (!fed[src.target_stage]) {
      fed[src.target_stage] = true;
      frontier.push(src.target_stage);
    }
  }
  while (!frontier.empty()) {
    std::size_t s = frontier.front();
    frontier.pop();
    for (const auto& edge : edges) {
      if (edge.from_stage == s && !fed[edge.to_stage]) {
        fed[edge.to_stage] = true;
        frontier.push(edge.to_stage);
      }
    }
  }
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (!fed[i]) {
      return invalid_argument("stage '" + stages[i].name +
                              "' is not reachable from any source");
    }
  }
  return Status::ok();
}

std::vector<std::size_t> PipelineSpec::topological_order() const {
  std::vector<std::size_t> indegree(stages.size(), 0);
  for (const auto& edge : edges) ++indegree[edge.to_stage];
  std::vector<std::size_t> order;
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  while (!ready.empty()) {
    std::size_t s = ready.front();
    ready.pop();
    order.push_back(s);
    for (const auto& edge : edges) {
      if (edge.from_stage == s && --indegree[edge.to_stage] == 0) {
        ready.push(edge.to_stage);
      }
    }
  }
  return order;
}

std::vector<EdgeSpec> PipelineSpec::edges_from(std::size_t stage) const {
  std::vector<EdgeSpec> out;
  for (const auto& edge : edges) {
    if (edge.from_stage == stage) out.push_back(edge);
  }
  return out;
}

std::size_t PipelineSpec::fan_in(std::size_t stage) const {
  std::size_t n = 0;
  for (const auto& src : sources) {
    if (src.target_stage == stage) ++n;
  }
  for (const auto& edge : edges) {
    if (edge.to_stage == stage) ++n;
  }
  return n;
}

}  // namespace gates::core
