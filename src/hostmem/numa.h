// Physical and logical NUMA nodes (§2.2, §5.2).
//
// Siloz abstracts each subarray group as a *logical NUMA node*: a
// memory-only node whose pool is the group's physical extents, tagged with
// the physical node (socket) it belongs to so physical-NUMA locality
// optimizations keep working. Host-reserved nodes additionally own the
// socket's cores. NodeRegistry is the kernel's NUMA topology; allocation
// goes through it, gated by control groups (cgroup.h).
#ifndef SILOZ_SRC_HOSTMEM_NUMA_H_
#define SILOZ_SRC_HOSTMEM_NUMA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/addr/subarray_group.h"
#include "src/base/result.h"
#include "src/hostmem/buddy.h"

namespace siloz {

enum class NodeKind : uint8_t {
  kHostReserved,   // usable by the host; owns the socket's cores
  kGuestReserved,  // memory-only; usable by exactly one VM (§5.1)
};

// One NUMA node. Logical nodes correspond to one or more subarray groups;
// on an unmodified baseline kernel there is a single node per socket
// covering all of its memory.
class NumaNode {
 public:
  NumaNode(uint32_t id, NodeKind kind, uint32_t physical_socket, uint32_t first_group,
           std::vector<PhysRange> ranges, bool has_cpus);

  uint32_t id() const { return id_; }
  NodeKind kind() const { return kind_; }
  uint32_t physical_socket() const { return physical_socket_; }
  // First subarray group backing this node (group ids are global).
  uint32_t first_group() const { return first_group_; }
  bool has_cpus() const { return has_cpus_; }
  const std::vector<PhysRange>& ranges() const { return ranges_; }

  BuddyAllocator& allocator() { return allocator_; }
  const BuddyAllocator& allocator() const { return allocator_; }

  // VM placement scans. Each walks the node's ranges in order, lowest
  // address first within a range, jumps from an obstruction straight to the
  // next free run (BuddyAllocator::NextFreeRun) and takes whole runs with
  // one TakeRange each, so its cost is linear in the free runs it passes.
  // `bytes` must be a multiple of the order's block size.

  // Allocates `bytes` as one contiguous run of `order` blocks inside one
  // range; returns its start.
  Result<uint64_t> AllocateContiguous(uint64_t bytes, uint32_t order);

  // Allocates `bytes` in `order` blocks as few maximal contiguous runs as
  // possible (guard-row offlining can fragment a group). All-or-nothing: a
  // shortfall or a failed take frees the runs already taken.
  Result<std::vector<PhysRange>> AllocateRuns(uint64_t bytes, uint32_t order);

 private:
  uint32_t id_;
  NodeKind kind_;
  uint32_t physical_socket_;
  uint32_t first_group_;
  bool has_cpus_;
  std::vector<PhysRange> ranges_;
  BuddyAllocator allocator_;
};

// The machine's NUMA topology plus per-node allocators.
class NodeRegistry {
 public:
  // Adds a node; ids must be dense and ascending.
  NumaNode& AddNode(NodeKind kind, uint32_t physical_socket, uint32_t first_group,
                    std::vector<PhysRange> ranges, bool has_cpus);

  Result<NumaNode*> Get(uint32_t node_id);
  size_t node_count() const { return nodes_.size(); }
  std::vector<NumaNode*> NodesOfKind(NodeKind kind);
  std::vector<NumaNode*> NodesOnSocket(uint32_t socket);
  // Read-only view of every node, for introspection (e.g. the static audit).
  std::vector<const NumaNode*> AllNodes() const;

 private:
  std::vector<std::unique_ptr<NumaNode>> nodes_;
};

}  // namespace siloz

#endif  // SILOZ_SRC_HOSTMEM_NUMA_H_
