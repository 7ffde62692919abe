// Serial closed-loop engine: the differential oracle for the sharded engine.
//
// Every channel of the machine is coupled through ONE MLP window: request
// i+1 cannot issue until the globally-oldest in-flight request retires,
// wherever it lives. That is not how the production engine (ShardServer,
// src/memctl/sharded_engine.h) models a controller — it gives every
// bank-group queue of every channel shard its own window — but the per-bank
// command subsequences are identical under that partition, so every
// invariant census (requests, reads/writes, row hits/misses, ACT/PRE, the
// per-bank-group counts) must match this loop exactly. And a single-channel
// stream served through one whole-shard queue is this loop, so there even
// the timing fields must match bit for bit. The differential tests pin both.
#ifndef SILOZ_TESTS_SUPPORT_SERIAL_ENGINE_H_
#define SILOZ_TESTS_SUPPORT_SERIAL_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>

#include "src/base/check.h"
#include "src/memctl/controller.h"
#include "src/memctl/engine.h"

namespace siloz {

// Replays a materialized trace through the controllers; requests route to
// controllers[address.socket].
inline EngineResult RunClosedLoop(std::span<const MemRequest> requests,
                                  std::span<MemoryController* const> controllers,
                                  const EngineConfig& config) {
  SILOZ_CHECK_GT(config.max_outstanding, 0u);
  // The oracle keeps its own window, so a fault in the production
  // CompletionWindow shows up as a difference rather than in both engines.
  std::multiset<double> window;
  double issue_cursor = 0.0;
  double last_completion = 0.0;

  for (const MemRequest& request : requests) {
    SILOZ_DCHECK(request.address.socket < controllers.size());
    if (window.size() >= config.max_outstanding) {
      // The core stalls until the oldest in-flight request retires; the new
      // request takes its slot.
      issue_cursor = std::max(issue_cursor, *window.begin());
      window.erase(window.begin());
    }
    const double completion = controllers[request.address.socket]->Serve(request, issue_cursor);
    window.insert(completion);
    last_completion = std::max(last_completion, completion);
    issue_cursor += config.compute_ns_per_access;
  }

  EngineResult result;
  result.elapsed_ns = last_completion;
  result.requests = requests.size();
  return result;
}

}  // namespace siloz

#endif  // SILOZ_TESTS_SUPPORT_SERIAL_ENGINE_H_
