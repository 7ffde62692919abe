#include "src/hostmem/numa.h"

#include <string>

#include "src/base/check.h"

namespace siloz {

NumaNode::NumaNode(uint32_t id, NodeKind kind, uint32_t physical_socket, uint32_t first_group,
                   std::vector<PhysRange> ranges, bool has_cpus)
    : id_(id),
      kind_(kind),
      physical_socket_(physical_socket),
      first_group_(first_group),
      has_cpus_(has_cpus),
      ranges_(std::move(ranges)),
      allocator_(ranges_) {}

NumaNode& NodeRegistry::AddNode(NodeKind kind, uint32_t physical_socket, uint32_t first_group,
                                std::vector<PhysRange> ranges, bool has_cpus) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::make_unique<NumaNode>(id, kind, physical_socket, first_group,
                                              std::move(ranges), has_cpus));
  return *nodes_.back();
}

Result<NumaNode*> NodeRegistry::Get(uint32_t node_id) {
  if (node_id >= nodes_.size()) {
    return MakeError(ErrorCode::kNotFound, "no node " + std::to_string(node_id));
  }
  return nodes_[node_id].get();
}

std::vector<NumaNode*> NodeRegistry::NodesOfKind(NodeKind kind) {
  std::vector<NumaNode*> result;
  for (const auto& node : nodes_) {
    if (node->kind() == kind) {
      result.push_back(node.get());
    }
  }
  return result;
}

std::vector<NumaNode*> NodeRegistry::NodesOnSocket(uint32_t socket) {
  std::vector<NumaNode*> result;
  for (const auto& node : nodes_) {
    if (node->physical_socket() == socket) {
      result.push_back(node.get());
    }
  }
  return result;
}

std::vector<const NumaNode*> NodeRegistry::AllNodes() const {
  std::vector<const NumaNode*> result;
  result.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    result.push_back(node.get());
  }
  return result;
}

}  // namespace siloz
