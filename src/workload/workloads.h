// Workload models for the performance evaluation (§7.2-§7.3).
//
// The paper measures execution time (redis+YCSB A-F, Hadoop terasort, SPEC
// CPU 2017, PARSEC 3.0) and throughput (memcached, SysBench mySQL, Intel MLC
// variants). We model each as a parameterized memory-access-trace generator:
// what distinguishes the workloads for a *memory-placement* study is their
// row-buffer locality, read:write mix, memory-level parallelism, compute
// intensity, and footprint — not their instruction streams. Parameters are
// drawn from the workloads' published memory characterizations; the paper's
// claim under test (placement into subarray groups is performance-neutral)
// depends only on these axes.
#ifndef SILOZ_SRC_WORKLOAD_WORKLOADS_H_
#define SILOZ_SRC_WORKLOAD_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/check.h"
#include "src/base/result.h"
#include "src/base/units.h"
#include "src/memctl/controller.h"
#include "src/siloz/vm.h"

namespace siloz {

enum class MetricKind : uint8_t {
  kExecutionTime,  // Fig 4 / Fig 6: lower elapsed is better
  kThroughput,     // Fig 5 / Fig 7: higher bandwidth is better
};

struct WorkloadSpec {
  std::string name;
  MetricKind metric = MetricKind::kExecutionTime;
  // Probability the next access is the sequentially-next cache line (row
  // buffer friendliness); otherwise it jumps within the footprint.
  double sequential_locality = 0.5;
  // Skew of jump targets: 0 = uniform; 0 < theta < 1 = scrambled-Zipfian
  // (YCSB's request distribution uses theta ~ 0.99 over hot keys).
  double zipf_theta = 0.0;
  double read_fraction = 0.8;
  // Outstanding requests the workload sustains (threads x per-core MLP,
  // saturated for bandwidth probes).
  uint32_t mlp = 8;
  // Compute between consecutive accesses (0 = pure bandwidth probe).
  double compute_ns_per_access = 10.0;
  // Guest-physical working set (clamped to the VM's RAM).
  uint64_t footprint_bytes = 2ull << 30;
  // Accesses generated per trial.
  uint64_t accesses = 400'000;
};

// Fig 4 workload set: redis+YCSB A-F, terasort, SPEC CPU 2017 (speed),
// PARSEC 3.0 (suite aggregates).
const std::vector<WorkloadSpec>& ExecutionTimeWorkloads();

// Fig 5 workload set: memcached, SysBench mySQL, and the Intel MLC
// variants (reads, 3:1, 2:1, 1:1, stream).
const std::vector<WorkloadSpec>& ThroughputWorkloads();

// Individual-benchmark profiles behind the suite aggregates: a
// memory-characterized subset of SPEC CPU 2017 (speed) and PARSEC 3.0.
// Used by the extended Fig 4 breakdown and available by name everywhere.
const std::vector<WorkloadSpec>& SpecCpuWorkloads();
const std::vector<WorkloadSpec>& ParsecWorkloads();

Result<WorkloadSpec> FindWorkload(const std::string& name);

// Packed line-stream op: bit 31 = is_write, bits [0,31) = line index within
// the footprint (the generator checks footprints fit below the bit).
inline constexpr uint32_t kOpWriteBit = 0x80000000u;

// The request sequence of one trial: the guest walks its own GPA space;
// addresses translate through the region list (the static GPA->HPA layout
// its EPT encodes) and then the platform decoder. GenerateTrace materializes
// this stream (MaterializeAll); ForEachDecoded feeds the same stream,
// pre-decoded, straight into the serve engine, so a pure timing run never
// writes (and re-reads) a multi-megabyte trace.
class TraceStreamer {
 public:
  TraceStreamer(const WorkloadSpec& spec, const AddressDecoder& decoder,
                const std::vector<VmRegion>& regions, uint32_t source_socket,
                uint64_t seed);

  uint64_t size() const { return ops_->size(); }

  // Materialize the entire stream into out[0, size()) in one pass. Must be
  // the first consumption of the stream.
  void MaterializeAll(MemRequest* out);

  // Stream the trial as controller-resolved commands: invokes
  // emit(const DecodedCmd&, uint32_t socket) once per access, in trace
  // order, where the command equals DecodeMediaCmd over the matching
  // GenerateTrace request (workload_test pins the equivalence). This is the
  // sharded engine's fast path: it skips the MediaAddress round-trip
  // entirely — on the Skylake cursor's channel-carry step (the common case)
  // the flat indices advance by two adds instead of re-deriving seven
  // coordinates and re-multiplying them back together. Must be the first
  // consumption of the stream.
  template <typename Emit>
  void ForEachDecoded(Emit&& emit) {
    SILOZ_CHECK_EQ(index_, size_t{0});
    const std::vector<uint32_t>& ops = *ops_;
    const DramGeometry& geometry = decoder_->geometry();
    const uint32_t source_socket = source_socket_;
    const VmRegion* last_region = ram_.front();
    auto gpa_to_hpa = [&](uint64_t gpa) {
      if (gpa - last_region->gpa >= last_region->bytes) {
        auto it = std::upper_bound(ram_.begin(), ram_.end(), gpa,
                                   [](uint64_t value, const VmRegion* r) { return value < r->gpa; });
        SILOZ_CHECK(it != ram_.begin());
        last_region = *(it - 1);
        SILOZ_DCHECK(gpa < last_region->gpa + last_region->bytes);
      }
      return last_region->hpa + (gpa - last_region->gpa);
    };
    if (cursor_) {
      SkylakeDecoder::LineCursor cursor = *cursor_;
      // Channel-major strides of the flat indices (see DecodeMediaCmd): when
      // only the channel coordinate moves, the indices move by exactly these.
      const auto bank_stride = static_cast<uint16_t>(geometry.banks_per_channel());
      const auto rank_stride =
          static_cast<uint16_t>(geometry.dimms_per_channel * geometry.ranks_per_dimm);
      uint64_t next_hpa = ~uint64_t{0};
      DecodedCmd cmd;
      uint32_t socket = 0;
      auto resync = [&] {
        const MediaAddress& media = cursor.media();
        socket = media.socket;
        const uint8_t flags = cmd.flags;
        cmd = DecodeMediaCmd(geometry, media, flags);
      };
      for (size_t i = 0; i < ops.size(); ++i) {
        const uint32_t op = ops[i];
        const uint64_t gpa = static_cast<uint64_t>(op & ~kOpWriteBit) * kCacheLineBytes;
        const uint64_t hpa = gpa_to_hpa(gpa);
        if (hpa == next_hpa) [[likely]] {
          cursor.Advance();
          if (cursor.media().channel != 0) [[likely]] {
            // The channel carried without wrapping: every other coordinate
            // is unchanged, so the flat indices just step one channel over.
            ++cmd.channel;
            cmd.bank_index = static_cast<uint16_t>(cmd.bank_index + bank_stride);
            cmd.rank_index = static_cast<uint16_t>(cmd.rank_index + rank_stride);
          } else {
            resync();
          }
        } else if (hpa != next_hpa - kCacheLineBytes) {
          cursor.Reset(hpa);
          resync();
        }  // else: repeat of the previous line, cmd already resolved
        next_hpa = hpa + kCacheLineBytes;
        cmd.flags = static_cast<uint8_t>(((op & kOpWriteBit) != 0 ? kDecodedWrite : 0) |
                                         (source_socket != socket ? kDecodedRemote : 0));
        emit(static_cast<const DecodedCmd&>(cmd), socket);
      }
    } else {
      for (size_t i = 0; i < ops.size(); ++i) {
        const uint32_t op = ops[i];
        const uint64_t gpa = static_cast<uint64_t>(op & ~kOpWriteBit) * kCacheLineBytes;
        const MediaAddress media = *decoder_->PhysToMedia(gpa_to_hpa(gpa));
        const auto flags =
            static_cast<uint8_t>(((op & kOpWriteBit) != 0 ? kDecodedWrite : 0) |
                                 (source_socket != media.socket ? kDecodedRemote : 0));
        emit(DecodeMediaCmd(geometry, media, flags), media.socket);
      }
    }
    index_ = ops.size();
  }

 private:
  std::shared_ptr<const std::vector<uint32_t>> ops_;  // memoized line stream
  std::vector<const VmRegion*> ram_;                  // sorted by gpa
  const AddressDecoder* decoder_ = nullptr;
  std::optional<SkylakeDecoder::LineCursor> cursor_;  // set for SkylakeDecoder
  uint32_t source_socket_ = 0;
  size_t index_ = 0;
};

// Generates a request trace over the VM's unmediated regions (the
// materialized form of TraceStreamer; see above).
std::vector<MemRequest> GenerateTrace(const WorkloadSpec& spec, const AddressDecoder& decoder,
                                      const std::vector<VmRegion>& regions,
                                      uint32_t source_socket, uint64_t seed);

}  // namespace siloz

#endif  // SILOZ_SRC_WORKLOAD_WORKLOADS_H_
