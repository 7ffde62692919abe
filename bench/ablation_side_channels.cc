// Ablation A9 (§8.4, §9): what Siloz does NOT protect against — DRAM timing
// side channels — and what coarser logical-node isolation could do.
//
// DRAMA-style bank-conflict probing between two co-located Siloz tenants:
// their subarray groups share every bank (that is the point of groups), so
// the row-buffer-conflict channel persists. Under sub-NUMA clustering, VMs
// placed in different clusters share no banks, closing the channel — the
// §8.4 direction of using logical nodes for bank/rank/channel isolation.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/attack/drama.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"

namespace {

using namespace siloz;

// Probes attacker page vs victim page: do any of the victim's lines share a
// bank with the attacker's (and does timing reveal it)?
struct PairResult {
  uint32_t same_bank_pairs = 0;
  uint32_t detected_pairs = 0;
  double max_latency_ns = 0.0;
};

PairResult ProbePages(MemoryController& controller, const AddressDecoder& decoder,
                      uint64_t attacker_page, uint64_t victim_page) {
  PairResult result;
  for (uint64_t a_off = 0; a_off < 16 * kCacheLineBytes; a_off += kCacheLineBytes) {
    for (uint64_t v_off = 0; v_off < 16 * kCacheLineBytes; v_off += kCacheLineBytes) {
      const DramaProbe probe = ProbePair(controller, decoder, attacker_page + a_off,
                                         victim_page + v_off, DramaConfig{.rounds = 200});
      result.same_bank_pairs += probe.same_bank;
      result.detected_pairs += probe.conflict_detected;
      result.max_latency_ns = std::max(result.max_latency_ns, probe.mean_latency_ns);
    }
  }
  return result;
}

}  // namespace

int siloz::bench::SideChannels(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  const DramGeometry geometry;
  bench::PrintHeader("Ablation A9: DRAM timing side channels under Siloz (§8.4)", geometry);

  std::printf("%-34s | %10s | %9s | %12s\n", "placement", "bank-shared", "detected",
              "max lat (ns)");
  bench::PrintRule();

  // --- Siloz default: tenants in different subarray groups, same socket ---
  {
    SkylakeDecoder decoder(geometry);
    FlatPhysMemory memory;
    SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
    SILOZ_CHECK(hypervisor.Boot().ok());
    const VmId a = *hypervisor.CreateVm({.name = "attacker", .memory_bytes = 1536_MiB});
    const VmId v = *hypervisor.CreateVm({.name = "victim", .memory_bytes = 1536_MiB});
    MemoryController controller(geometry, 0);
    const PairResult result =
        ProbePages(controller, decoder, (*hypervisor.GetVm(a))->regions()[0].hpa,
                   (*hypervisor.GetVm(v))->regions()[0].hpa);
    std::printf("%-34s | %7u/256 | %5u/256 | %12.1f\n",
                "Siloz groups, same socket", result.same_bank_pairs, result.detected_pairs,
                result.max_latency_ns);
  }

  // --- SNC-2 with tenants in different clusters: no shared banks ---
  {
    SncDecoder decoder(geometry, 2);
    FlatPhysMemory memory;
    SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
    SILOZ_CHECK(hypervisor.Boot().ok());
    // Pick one guest group from each cluster of socket 0.
    const auto nodes = hypervisor.AvailableGuestNodes(0);
    uint64_t page_a = 0;
    uint64_t page_b = 0;
    for (uint32_t node_id : nodes) {
      NumaNode& node = **hypervisor.nodes().Get(node_id);
      const uint32_t cluster = hypervisor.group_map().ClusterOfGroup(node.first_group());
      if (cluster == 0 && page_a == 0) {
        page_a = node.ranges()[0].begin;
      }
      if (cluster == 1 && page_b == 0) {
        page_b = node.ranges()[0].begin;
      }
    }
    SILOZ_CHECK(page_a != 0 && page_b != 0);
    MemoryController controller(geometry, 0);
    const PairResult result = ProbePages(controller, decoder, page_a, page_b);
    std::printf("%-34s | %7u/256 | %5u/256 | %12.1f\n",
                "SNC-2, tenants in other clusters", result.same_bank_pairs,
                result.detected_pairs, result.max_latency_ns);
  }

  // --- Different sockets: fully disjoint memory systems ---
  {
    SkylakeDecoder decoder(geometry);
    // Cross-socket pairs never even reach the same controller; report the
    // structural fact.
    const MediaAddress a = *decoder.PhysToMedia(3_GiB);
    const MediaAddress b = *decoder.PhysToMedia(geometry.socket_bytes() + 3_GiB);
    std::printf("%-34s | %10s | %9s | %12s\n", "different sockets",
                a.socket != b.socket ? "0/256" : "?", "0/256", "n/a");
  }
  bench::PrintRule();
  std::printf("Siloz tenants share banks by design (bank-level parallelism), so the\n"
              "DRAMA channel persists — the §8.4/§9 limitation, reproduced. Cluster-\n"
              "or socket-disjoint placement closes it at a provisioning-granularity\n"
              "cost; combining such units with Siloz is the paper's future work.\n");
  return 0;
}
