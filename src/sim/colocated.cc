#include "src/sim/colocated.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "src/base/check.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"

namespace siloz {
namespace {

struct TenantState {
  const TenantSpec* spec = nullptr;
  std::vector<MemRequest> trace;
  size_t next = 0;
  uint64_t served = 0;
  // In-flight completion times (bounded by the workload's MLP).
  std::priority_queue<double, std::vector<double>, std::greater<>> in_flight;
  double issue_cursor = 0.0;
  double last_completion = 0.0;

  bool done() const { return !spec->background && next >= trace.size(); }
  // Time at which the tenant's next request can issue.
  double NextIssueTime() const {
    if (in_flight.size() >= spec->workload.mlp) {
      return std::max(issue_cursor, in_flight.top());
    }
    return issue_cursor;
  }
};

}  // namespace

Result<std::vector<TenantResult>> RunColocated(const RunnerConfig& config,
                                               const std::vector<TenantSpec>& tenants) {
  if (tenants.empty()) {
    return MakeError(ErrorCode::kInvalidArgument, "no tenants");
  }
  Machine machine(MachineConfigFor(config));

  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config.hypervisor);
  SILOZ_RETURN_IF_ERROR(hypervisor.Boot());

  std::vector<TenantState> states(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    VmConfig vm_config;
    vm_config.name = tenants[i].vm_name;
    vm_config.memory_bytes = tenants[i].memory_bytes;
    vm_config.socket = tenants[i].socket;
    Result<VmId> id = hypervisor.CreateVm(vm_config);
    SILOZ_RETURN_IF_ERROR(id);
    Result<Vm*> vm = hypervisor.GetVm(*id);
    SILOZ_RETURN_IF_ERROR(vm);
    states[i].spec = &tenants[i];
    states[i].trace = GenerateTrace(tenants[i].workload, machine.decoder(), (*vm)->regions(),
                                    tenants[i].socket, config.seed + i * 7919);
  }

  // Global issue order: always advance the tenant whose next request can
  // issue earliest, approximating truly concurrent tenants sharing the
  // memory system. Background tenants wrap their traces so a noisy
  // neighbour stays noisy until every foreground tenant finishes.
  const std::vector<MemoryController*> controllers = machine.controllers();
  while (true) {
    bool foreground_pending = false;
    for (const TenantState& state : states) {
      foreground_pending |= (!state.spec->background && !state.done());
    }
    if (!foreground_pending) {
      break;
    }
    TenantState* chosen = nullptr;
    for (TenantState& state : states) {
      if (state.done()) {
        continue;
      }
      if (chosen == nullptr || state.NextIssueTime() < chosen->NextIssueTime()) {
        chosen = &state;
      }
    }
    SILOZ_CHECK(chosen != nullptr);
    chosen->issue_cursor = chosen->NextIssueTime();
    if (chosen->in_flight.size() >= chosen->spec->workload.mlp) {
      chosen->in_flight.pop();
    }
    if (chosen->next >= chosen->trace.size()) {
      chosen->next = 0;  // background wrap
    }
    const MemRequest& request = chosen->trace[chosen->next++];
    ++chosen->served;
    const double completion =
        controllers[request.address.socket]->Serve(request, chosen->issue_cursor);
    chosen->in_flight.push(completion);
    chosen->last_completion = std::max(chosen->last_completion, completion);
    chosen->issue_cursor += chosen->spec->workload.compute_ns_per_access;
  }

  std::vector<TenantResult> results;
  for (const TenantState& state : states) {
    TenantResult result;
    result.vm_name = state.spec->vm_name;
    result.elapsed_ns = state.last_completion;
    result.requests = state.served;
    result.bandwidth_gibs = state.last_completion <= 0.0
                                ? 0.0
                                : static_cast<double>(state.served) * 64.0 /
                                      state.last_completion *
                                      (1e9 / (1024.0 * 1024.0 * 1024.0));
    results.push_back(result);
  }
  return results;
}

Result<std::vector<std::vector<TenantResult>>> RunColocatedSweep(
    const std::vector<ColocatedScenario>& scenarios, uint32_t threads,
    PoolPhaseMetrics* metrics) {
  using ScenarioResult = Result<std::vector<TenantResult>>;
  std::vector<ScenarioResult> runs(scenarios.size(), ScenarioResult(std::vector<TenantResult>{}));
  PhaseTimer timer("colocated");
  ProgressMeter progress("colocated", scenarios.size());
  const PoolMetrics pool = ParallelFor(threads, scenarios.size(), [&](uint64_t i) {
    // Each scenario boots a private machine + hypervisor inside RunColocated,
    // so tasks share no mutable state; results depend only on the scenario,
    // never on scheduling.
    runs[i] = RunColocated(scenarios[i].config, scenarios[i].tenants);
    progress.Tick();
  });
  if (metrics != nullptr) {
    *metrics = timer.Finish(pool);
  }

  std::vector<std::vector<TenantResult>> results;
  results.reserve(scenarios.size());
  for (ScenarioResult& run : runs) {
    SILOZ_RETURN_IF_ERROR(run);
    results.push_back(std::move(*run));
  }
  return results;
}

}  // namespace siloz
