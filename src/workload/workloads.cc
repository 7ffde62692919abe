#include "src/workload/workloads.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "src/base/check.h"
#include "src/base/fastdiv.h"
#include "src/base/mutex.h"
#include "src/base/rng.h"
#include "src/base/units.h"

namespace siloz {
namespace {

// Parameter sources: YCSB core workload definitions (read/update mixes,
// zipfian vs latest vs scan-heavy), published DRAM characterizations of
// redis/memcached/mySQL, STREAM/MLC access semantics, and the SPEC CPU 2017
// and PARSEC 3.0 memory studies. Values are representative, not calibrated —
// the experiments compare the same spec across kernels, so only the axes
// matter (see header comment).
std::vector<WorkloadSpec> MakeExecutionTimeWorkloads() {
  return {
      // YCSB A: 50/50 read/update, zipfian — update-heavy KV store.
      {.name = "redis-a", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.35, .zipf_theta = 0.9,
       .read_fraction = 0.50, .mlp = 8, .compute_ns_per_access = 14.0,
       .footprint_bytes = 3_GiB, .accesses = 400'000},
      // YCSB B: 95/5 read/update, zipfian.
      {.name = "redis-b", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.35, .zipf_theta = 0.9,
       .read_fraction = 0.95, .mlp = 8, .compute_ns_per_access = 14.0,
       .footprint_bytes = 3_GiB, .accesses = 400'000},
      // YCSB C: 100% reads, zipfian.
      {.name = "redis-c", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.35, .zipf_theta = 0.9,
       .read_fraction = 1.00, .mlp = 8, .compute_ns_per_access = 14.0,
       .footprint_bytes = 3_GiB, .accesses = 400'000},
      // YCSB D: 95/5 read/insert, latest distribution — better locality.
      {.name = "redis-d", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.55,
       .read_fraction = 0.95, .mlp = 8, .compute_ns_per_access = 14.0,
       .footprint_bytes = 3_GiB, .accesses = 400'000},
      // YCSB E: short range scans — sequential bursts.
      {.name = "redis-e", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.80,
       .read_fraction = 0.95, .mlp = 8, .compute_ns_per_access = 16.0,
       .footprint_bytes = 3_GiB, .accesses = 400'000},
      // YCSB F: read-modify-write, zipfian.
      {.name = "redis-f", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.35, .zipf_theta = 0.9,
       .read_fraction = 0.70, .mlp = 8, .compute_ns_per_access = 15.0,
       .footprint_bytes = 3_GiB, .accesses = 400'000},
      // Hadoop terasort: streaming sort, large sequential runs + merges.
      {.name = "terasort", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.85,
       .read_fraction = 0.60, .mlp = 16, .compute_ns_per_access = 8.0,
       .footprint_bytes = 6_GiB, .accesses = 600'000},
      // SPEC CPU 2017 speed (suite aggregate): mixed locality, compute-heavy.
      {.name = "spec17", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.60,
       .read_fraction = 0.75, .mlp = 6, .compute_ns_per_access = 22.0,
       .footprint_bytes = 4_GiB, .accesses = 500'000},
      // PARSEC 3.0 (suite aggregate, 32 threads): shared-memory parallel.
      {.name = "parsec", .metric = MetricKind::kExecutionTime, .sequential_locality = 0.55,
       .read_fraction = 0.70, .mlp = 24, .compute_ns_per_access = 12.0,
       .footprint_bytes = 4_GiB, .accesses = 500'000},
  };
}

std::vector<WorkloadSpec> MakeThroughputWorkloads() {
  return {
      // memcached: small random lookups, high fan-out.
      {.name = "memcached", .metric = MetricKind::kThroughput, .sequential_locality = 0.30, .zipf_theta = 0.9,
       .read_fraction = 0.90, .mlp = 32, .compute_ns_per_access = 6.0,
       .footprint_bytes = 4_GiB, .accesses = 500'000},
      // SysBench mySQL (OLTP): page-structured, mixed read/write.
      {.name = "mysql", .metric = MetricKind::kThroughput, .sequential_locality = 0.50,
       .read_fraction = 0.70, .mlp = 16, .compute_ns_per_access = 18.0,
       .footprint_bytes = 6_GiB, .accesses = 500'000},
      // Intel MLC: saturated bandwidth probes (no compute gap).
      {.name = "mlc-reads", .metric = MetricKind::kThroughput, .sequential_locality = 0.98,
       .read_fraction = 1.00, .mlp = 64, .compute_ns_per_access = 0.0,
       .footprint_bytes = 2_GiB, .accesses = 800'000},
      {.name = "mlc-3:1", .metric = MetricKind::kThroughput, .sequential_locality = 0.98,
       .read_fraction = 0.75, .mlp = 64, .compute_ns_per_access = 0.0,
       .footprint_bytes = 2_GiB, .accesses = 800'000},
      {.name = "mlc-2:1", .metric = MetricKind::kThroughput, .sequential_locality = 0.98,
       .read_fraction = 0.67, .mlp = 64, .compute_ns_per_access = 0.0,
       .footprint_bytes = 2_GiB, .accesses = 800'000},
      {.name = "mlc-1:1", .metric = MetricKind::kThroughput, .sequential_locality = 0.98,
       .read_fraction = 0.50, .mlp = 64, .compute_ns_per_access = 0.0,
       .footprint_bytes = 2_GiB, .accesses = 800'000},
      // STREAM-triad-like: pure sequential sweep.
      {.name = "mlc-stream", .metric = MetricKind::kThroughput, .sequential_locality = 1.00,
       .read_fraction = 0.67, .mlp = 64, .compute_ns_per_access = 0.0,
       .footprint_bytes = 2_GiB, .accesses = 800'000},
  };
}

std::vector<WorkloadSpec> MakeSpecCpuWorkloads() {
  // Memory behaviour from the SPEC CPU 2017 characterization literature:
  // mcf/lbm/gcc are memory-hungry with poor locality; deepsjeng/leela are
  // cache-resident; fotonik3d/cactuBSSN stream large arrays.
  return {
      {.name = "spec-gcc", .sequential_locality = 0.45, .read_fraction = 0.80, .mlp = 6,
       .compute_ns_per_access = 16.0, .footprint_bytes = 2_GiB, .accesses = 400'000},
      {.name = "spec-mcf", .sequential_locality = 0.20, .read_fraction = 0.85, .mlp = 8,
       .compute_ns_per_access = 9.0, .footprint_bytes = 4_GiB, .accesses = 400'000},
      {.name = "spec-lbm", .sequential_locality = 0.90, .read_fraction = 0.60, .mlp = 12,
       .compute_ns_per_access = 7.0, .footprint_bytes = 3_GiB, .accesses = 400'000},
      {.name = "spec-omnetpp", .sequential_locality = 0.25, .read_fraction = 0.80, .mlp = 4,
       .compute_ns_per_access = 18.0, .footprint_bytes = 2_GiB, .accesses = 400'000},
      {.name = "spec-xalancbmk", .sequential_locality = 0.40, .read_fraction = 0.85, .mlp = 5,
       .compute_ns_per_access = 15.0, .footprint_bytes = 1_GiB, .accesses = 400'000},
      {.name = "spec-deepsjeng", .sequential_locality = 0.65, .read_fraction = 0.80, .mlp = 4,
       .compute_ns_per_access = 30.0, .footprint_bytes = 512_MiB, .accesses = 400'000},
      {.name = "spec-fotonik3d", .sequential_locality = 0.92, .read_fraction = 0.70, .mlp = 16,
       .compute_ns_per_access = 6.0, .footprint_bytes = 4_GiB, .accesses = 400'000},
      {.name = "spec-cactuBSSN", .sequential_locality = 0.80, .read_fraction = 0.70, .mlp = 10,
       .compute_ns_per_access = 11.0, .footprint_bytes = 3_GiB, .accesses = 400'000},
  };
}

std::vector<WorkloadSpec> MakeParsecWorkloads() {
  // PARSEC 3.0 (32 threads, native inputs): canneal is the classic
  // random-access stressor; streamcluster/ferret stream; blackscholes is
  // compute-bound.
  return {
      {.name = "parsec-blackscholes", .sequential_locality = 0.85, .read_fraction = 0.75,
       .mlp = 24, .compute_ns_per_access = 25.0, .footprint_bytes = 1_GiB, .accesses = 400'000},
      {.name = "parsec-canneal", .sequential_locality = 0.10, .read_fraction = 0.80, .mlp = 16,
       .compute_ns_per_access = 8.0, .footprint_bytes = 4_GiB, .accesses = 400'000},
      {.name = "parsec-dedup", .sequential_locality = 0.55, .read_fraction = 0.70, .mlp = 20,
       .compute_ns_per_access = 10.0, .footprint_bytes = 3_GiB, .accesses = 400'000},
      {.name = "parsec-streamcluster", .sequential_locality = 0.88, .read_fraction = 0.85,
       .mlp = 28, .compute_ns_per_access = 7.0, .footprint_bytes = 2_GiB, .accesses = 400'000},
      {.name = "parsec-ferret", .sequential_locality = 0.60, .read_fraction = 0.85, .mlp = 24,
       .compute_ns_per_access = 12.0, .footprint_bytes = 2_GiB, .accesses = 400'000},
      {.name = "parsec-fluidanimate", .sequential_locality = 0.70, .read_fraction = 0.65,
       .mlp = 24, .compute_ns_per_access = 13.0, .footprint_bytes = 2_GiB, .accesses = 400'000},
  };
}

// ---------------------------------------------------------------------------
// Line-stream memoization.
//
// A trace factors into (a) the RNG-derived stream of (line index, is_write)
// ops — a function of the spec's mix parameters, the footprint, and the
// seed alone — and (b) the placement-dependent mapping of each line to a
// media address. Experiment grids run the same (workload, trial) under
// several hypervisor variants whose VMs have identical RAM totals, so (a) is
// recomputed with identical results once per variant; memoizing it halves
// the Zipfian/pow and RNG cost of a two-variant grid. Only (a) is cached:
// content is a pure function of the key, so hits and misses never change
// what GenerateTrace returns.
// ---------------------------------------------------------------------------

struct StreamKey {
  uint64_t accesses;
  uint64_t footprint_lines;
  uint64_t seed;
  double sequential_locality;
  double zipf_theta;
  double read_fraction;

  bool operator==(const StreamKey&) const = default;
};

// FIFO-bounded memo; ~64 entries covers one figure grid's (workload, trial)
// set (at most ~3 MiB per entry at the largest specs). Exact key equality —
// no hashing, a figure performs O(100) lookups total.
struct StreamCacheEntry {
  StreamKey key;
  std::shared_ptr<const std::vector<uint32_t>> ops;
};
Mutex stream_cache_mutex;
std::vector<StreamCacheEntry> stream_cache GUARDED_BY(stream_cache_mutex);
constexpr size_t kStreamCacheMaxEntries = 64;

// Draws the (line, is_write) stream for `key`. The draw order (locality
// Bernoulli, optional jump, write Bernoulli per access, after one initial
// jump) is the determinism contract shared with pre-memoization traces.
std::vector<uint32_t> GenerateLineOps(const StreamKey& key) {
  Rng rng(key.seed);
  std::optional<ZipfianSampler> zipf;
  if (key.zipf_theta > 0.0) {
    zipf.emplace(key.footprint_lines, key.zipf_theta);
  }
  const FastDivider footprint_div(key.footprint_lines);
  auto jump = [&]() -> uint64_t {
    if (!zipf.has_value()) {
      return rng.NextBelow(key.footprint_lines);
    }
    // Scrambled Zipfian (as in YCSB): the sampler's rank-ordered hot items
    // are hashed across the footprint so hotness is not physically clustered.
    const uint64_t rank = zipf->Next(rng);
    uint64_t h = (rank + 1) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 31;
    return footprint_div.Mod(h);
  };
  std::vector<uint32_t> ops;
  ops.reserve(key.accesses);
  uint64_t line = jump();
  for (uint64_t i = 0; i < key.accesses; ++i) {
    if (rng.NextBernoulli(key.sequential_locality)) {
      // line < footprint_lines always holds, so the modulo is a wrap test.
      ++line;
      if (line == key.footprint_lines) {
        line = 0;
      }
    } else {
      line = jump();
    }
    const bool is_write = !rng.NextBernoulli(key.read_fraction);
    ops.push_back(static_cast<uint32_t>(line) | (is_write ? kOpWriteBit : 0u));
  }
  return ops;
}

const StreamCacheEntry* FindCachedOps(const std::vector<StreamCacheEntry>& cache,
                                      const StreamKey& key) {
  for (const StreamCacheEntry& entry : cache) {
    if (entry.key == key) {
      return &entry;
    }
  }
  return nullptr;
}

std::shared_ptr<const std::vector<uint32_t>> CachedLineOps(const StreamKey& key) {
  {
    MutexLock lock(stream_cache_mutex);
    if (const StreamCacheEntry* entry = FindCachedOps(stream_cache, key)) {
      return entry->ops;
    }
  }
  // Generate outside the lock: concurrent misses on the same key do
  // redundant (identical) work instead of serializing the whole grid. Only
  // the first to finish stores its ops.
  auto ops = std::make_shared<const std::vector<uint32_t>>(GenerateLineOps(key));
  MutexLock lock(stream_cache_mutex);
  if (FindCachedOps(stream_cache, key) == nullptr) {
    if (stream_cache.size() >= kStreamCacheMaxEntries) {
      stream_cache.erase(stream_cache.begin());
    }
    stream_cache.push_back(StreamCacheEntry{key, ops});
  }
  return ops;
}

}  // namespace

const std::vector<WorkloadSpec>& SpecCpuWorkloads() {
  static const std::vector<WorkloadSpec>* workloads =
      new std::vector<WorkloadSpec>(MakeSpecCpuWorkloads());
  return *workloads;
}

const std::vector<WorkloadSpec>& ParsecWorkloads() {
  static const std::vector<WorkloadSpec>* workloads =
      new std::vector<WorkloadSpec>(MakeParsecWorkloads());
  return *workloads;
}

const std::vector<WorkloadSpec>& ExecutionTimeWorkloads() {
  static const std::vector<WorkloadSpec>* workloads =
      new std::vector<WorkloadSpec>(MakeExecutionTimeWorkloads());
  return *workloads;
}

const std::vector<WorkloadSpec>& ThroughputWorkloads() {
  static const std::vector<WorkloadSpec>* workloads =
      new std::vector<WorkloadSpec>(MakeThroughputWorkloads());
  return *workloads;
}

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const auto* set : {&ExecutionTimeWorkloads(), &ThroughputWorkloads(), &SpecCpuWorkloads(),
                          &ParsecWorkloads()}) {
    for (const WorkloadSpec& spec : *set) {
      if (spec.name == name) {
        return spec;
      }
    }
  }
  return MakeError(ErrorCode::kNotFound, "no workload '" + name + "'");
}

TraceStreamer::TraceStreamer(const WorkloadSpec& spec, const AddressDecoder& decoder,
                             const std::vector<VmRegion>& regions, uint32_t source_socket,
                             uint64_t seed) {
  // The guest's RAM is GPA-contiguous; build a sorted view of the unmediated
  // regions for GPA->HPA translation (what its EPT encodes).
  uint64_t ram_bytes = 0;
  for (const VmRegion& region : regions) {
    if (region.type == MemoryType::kGuestRam) {
      ram_.push_back(&region);
      ram_bytes += region.bytes;
    }
  }
  SILOZ_CHECK(!ram_.empty());
  std::sort(ram_.begin(), ram_.end(),
            [](const VmRegion* a, const VmRegion* b) { return a->gpa < b->gpa; });

  const uint64_t footprint =
      std::max<uint64_t>(kCacheLineBytes, std::min(spec.footprint_bytes, ram_bytes));
  const uint64_t footprint_lines = footprint / kCacheLineBytes;
  SILOZ_CHECK_LT(footprint_lines, uint64_t{kOpWriteBit});
  const StreamKey key{spec.accesses,  footprint_lines, seed,
                      spec.sequential_locality, spec.zipf_theta, spec.read_fraction};
  ops_ = CachedLineOps(key);

  decoder_ = &decoder;
  if (const auto* skylake = dynamic_cast<const SkylakeDecoder*>(&decoder)) {
    cursor_.emplace(*skylake, 0);
  }
  source_socket_ = source_socket;
}

void TraceStreamer::MaterializeAll(MemRequest* out) {
  SILOZ_CHECK_EQ(index_, size_t{0});
  const std::vector<uint32_t>& ops = *ops_;
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
    uint64_t next_hpa = ~uint64_t{0};
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint32_t op = ops[i];
      const uint64_t gpa = static_cast<uint64_t>(op & ~kOpWriteBit) * kCacheLineBytes;
      const uint64_t hpa = gpa_to_hpa(gpa);
      if (hpa == next_hpa) [[likely]] {
        cursor.Advance();
      } else if (hpa != next_hpa - kCacheLineBytes) {
        cursor.Reset(hpa);
      }  // else: repeat of the previous line, cursor already there
      next_hpa = hpa + kCacheLineBytes;
      MemRequest& request = out[i];
      request.address = cursor.media();
      request.is_write = (op & kOpWriteBit) != 0;
      request.source_socket = source_socket;
    }
  } else {
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint32_t op = ops[i];
      const uint64_t gpa = static_cast<uint64_t>(op & ~kOpWriteBit) * kCacheLineBytes;
      MemRequest& request = out[i];
      request.address = *decoder_->PhysToMedia(gpa_to_hpa(gpa));
      request.is_write = (op & kOpWriteBit) != 0;
      request.source_socket = source_socket;
    }
  }
  index_ = ops.size();
}

std::vector<MemRequest> GenerateTrace(const WorkloadSpec& spec, const AddressDecoder& decoder,
                                      const std::vector<VmRegion>& regions,
                                      uint32_t source_socket, uint64_t seed) {
  TraceStreamer stream(spec, decoder, regions, source_socket, seed);
  std::vector<MemRequest> trace(stream.size());
  stream.MaterializeAll(trace.data());
  return trace;
}

}  // namespace siloz
