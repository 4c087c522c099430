#include "gates/core/failover.hpp"

#include <algorithm>

namespace gates::core {

std::optional<ReplacementDecision> least_loaded_target(
    const PipelineSpec& spec, const HostModel& hosts,
    const std::vector<NodeId>& stage_nodes,
    const std::function<bool(NodeId)>& usable,
    const std::function<bool(std::size_t stage)>& live) {
  std::vector<NodeId> candidates;
  for (NodeId n = 0; n < hosts.cpu_factor.size(); ++n) candidates.push_back(n);
  candidates.insert(candidates.end(), stage_nodes.begin(), stage_nodes.end());
  for (const auto& src : spec.sources) candidates.push_back(src.location);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::optional<ReplacementDecision> best;
  std::size_t best_load = 0;
  for (const NodeId candidate : candidates) {
    if (candidate == kInvalidNode || !usable(candidate)) continue;
    std::size_t load = 0;
    for (std::size_t i = 0; i < stage_nodes.size(); ++i) {
      if (stage_nodes[i] == candidate && live(i)) ++load;
    }
    if (!best || load < best_load) {
      best = ReplacementDecision{candidate, ProcessorFactory{}};
      best_load = load;
    }
  }
  return best;
}

}  // namespace gates::core
