#include "src/sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/addr/decoder.h"
#include "src/base/check.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/hostmem/numa.h"
#include "src/obs/metrics.h"
#include "src/siloz/conservation.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

constexpr uint64_t kNever = UINT64_MAX;

uint64_t SecondsToNs(double seconds) {
  return static_cast<uint64_t>(seconds * 1e9);
}

// Wall-clock sampling for the sched-domain latency histograms only.
// siloz-lint: allow(raw-nondeterminism): host time feeding fleet.*_ns
// histograms, which are sched-domain and outside the determinism contract.
int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One synthesized VM arrival. `seq` is the global trace index after the
// merge — the deterministic tie-breaker and interval key. Names, not VM ids,
// identify VMs everywhere: ids follow the socket-by-socket replay order, not
// simulated time.
struct Arrival {
  uint64_t time_ns = 0;
  uint64_t lifetime_ns = 0;
  uint64_t bytes = 0;
  uint32_t socket = 0;
  uint32_t stream = 0;
  uint64_t seq = 0;
  std::string name;
};

struct LiveVm {
  VmId id = 0;
  uint64_t admit_ns = 0;
  uint64_t depart_ns = 0;
  uint64_t bytes = 0;
  uint64_t nodes = 0;
  uint64_t seq = 0;
};

struct QueuedVm {
  size_t arrival_index;  // into the merged trace
  uint64_t enqueue_ns;
};

// Everything one socket's replay owns. A socket's admissions depend only on
// its own state and the hypervisor state of its own socket, so replaying the
// sockets one after another in id order is the whole schedule.
struct SocketState {
  std::vector<size_t> arrivals;  // indices into the merged trace, time-sorted
  size_t next_arrival = 0;
  // (depart_ns, seq) -> VM name. An ordered map doubles as the departure
  // heap (begin() is the earliest) while allowing exact-key removal when the
  // defrag pass migrates a VM to another socket.
  std::map<std::pair<uint64_t, uint64_t>, std::string> departures;
  std::map<std::string, LiveVm> live;  // name-keyed: deterministic iteration
  std::deque<QueuedVm> queue;
  FleetSocketStats stats;
  std::vector<std::pair<uint64_t, uint64_t>> intervals;  // (admit, depart)

  bool Idle() const {
    return next_arrival >= arrivals.size() && departures.empty() && queue.empty();
  }
};

// The whole replay: the merged trace, per-socket state, and the hypervisor.
struct FleetRun {
  const FleetConfig& config;
  SilozHypervisor& hv;
  std::vector<Arrival> trace;
  std::vector<SocketState> sockets;
  uint64_t timeout_ns = 0;
  obs::Histogram* alloc_hist = nullptr;
  obs::Histogram* teardown_hist = nullptr;
  obs::Histogram* migrate_hist = nullptr;

  FleetRun(const FleetConfig& config_in, SilozHypervisor& hv_in)
      : config(config_in), hv(hv_in) {}

  // Attempts one admission. Returns true on success, false on a capacity
  // failure (counted as an exhaustion event); any other failure is an error.
  Result<bool> TryAdmit(SocketState& st, const Arrival& arrival, uint64_t now_ns, bool from_queue) {
    VmConfig vm_config;
    vm_config.name = arrival.name;
    vm_config.memory_bytes = arrival.bytes;
    vm_config.socket = arrival.socket;
    // Large VMs back with 1 GiB pages (fewer EPT table pages — the pool is
    // the binding fleet resource); everything else keeps the §5.4 2 MiB
    // default.
    vm_config.backing = arrival.bytes >= (4ull << 30) ? PageSize::k1G : PageSize::k2M;
    const int64_t start = WallNs();
    Result<VmId> created = hv.CreateVm(vm_config);
    alloc_hist->Observe(static_cast<uint64_t>(WallNs() - start));
    if (!created.ok()) {
      if (created.error().code == ErrorCode::kNoMemory) {
        ++st.stats.exhaustion_events;
        return false;
      }
      return created.error();
    }
    Result<Vm*> vm = hv.GetVm(*created);
    SILOZ_RETURN_IF_ERROR(vm);
    LiveVm live;
    live.id = *created;
    live.admit_ns = now_ns;
    live.depart_ns = now_ns + arrival.lifetime_ns;
    live.bytes = arrival.bytes;
    live.nodes = (*vm)->guest_nodes().size();
    live.seq = arrival.seq;
    st.departures.emplace(std::make_pair(live.depart_ns, live.seq), arrival.name);
    st.live.emplace(arrival.name, live);
    ++st.stats.admitted;
    if (from_queue) {
      ++st.stats.queued_admits;
    }
    return true;
  }

  Status Depart(SocketState& st, uint64_t now_ns) {
    auto first = st.departures.begin();
    const std::string name = first->second;
    st.departures.erase(first);
    auto live_it = st.live.find(name);
    SILOZ_CHECK(live_it != st.live.end());
    const LiveVm vm = live_it->second;
    st.live.erase(live_it);
    const int64_t start = WallNs();
    Status destroyed = hv.DestroyVm(vm.id);
    if (destroyed.ok()) {
      destroyed = hv.ReleaseVmNodes(vm.id);
    }
    teardown_hist->Observe(static_cast<uint64_t>(WallNs() - start));
    SILOZ_RETURN_IF_ERROR(destroyed);
    st.intervals.emplace_back(vm.admit_ns, vm.depart_ns);
    // A departure is the moment queued arrivals can fit; drain in FIFO order
    // until the head no longer does.
    return DrainQueue(st, now_ns);
  }

  Status DrainQueue(SocketState& st, uint64_t now_ns) {
    while (!st.queue.empty()) {
      const QueuedVm& head = st.queue.front();
      if (now_ns - head.enqueue_ns > timeout_ns) {
        ++st.stats.abandoned;
        st.queue.pop_front();
        continue;
      }
      Result<bool> admitted = TryAdmit(st, trace[head.arrival_index], now_ns,
                                       /*from_queue=*/true);
      SILOZ_RETURN_IF_ERROR(admitted);
      if (!*admitted) {
        break;
      }
      st.queue.pop_front();
    }
    return Status::Ok();
  }

  void ExpireQueue(SocketState& st, uint64_t now_ns) {
    while (!st.queue.empty() && now_ns - st.queue.front().enqueue_ns > timeout_ns) {
      ++st.stats.abandoned;
      st.queue.pop_front();
    }
  }

  // Replays one socket serially up to (but excluding) `horizon_ns`.
  // Departures sort before arrivals at the same instant: the capacity a
  // departing VM frees is available to an arrival sharing its timestamp.
  Status ReplayTo(SocketState& st, uint64_t horizon_ns) {
    while (true) {
      const uint64_t next_arrival_ns = st.next_arrival < st.arrivals.size()
                                           ? trace[st.arrivals[st.next_arrival]].time_ns
                                           : kNever;
      const uint64_t next_depart_ns =
          st.departures.empty() ? kNever : st.departures.begin()->first.first;
      const uint64_t now_ns = std::min(next_arrival_ns, next_depart_ns);
      if (now_ns >= horizon_ns) {
        break;
      }
      if (next_depart_ns <= next_arrival_ns) {
        SILOZ_RETURN_IF_ERROR(Depart(st, now_ns));
        continue;
      }
      const size_t arrival_index = st.arrivals[st.next_arrival++];
      const Arrival& arrival = trace[arrival_index];
      // kQueue / kDefrag: strict FIFO — an arrival never jumps a non-empty
      // queue, even if it would fit.
      if (config.policy != AdmissionPolicy::kReject && !st.queue.empty()) {
        st.queue.push_back(QueuedVm{arrival_index, arrival.time_ns});
        continue;
      }
      Result<bool> admitted = TryAdmit(st, arrival, now_ns, /*from_queue=*/false);
      SILOZ_RETURN_IF_ERROR(admitted);
      if (*admitted) {
        continue;
      }
      if (config.policy == AdmissionPolicy::kReject) {
        ++st.stats.rejected;
      } else {
        st.queue.push_back(QueuedVm{arrival_index, arrival.time_ns});
      }
    }
    ExpireQueue(st, horizon_ns);
    return Status::Ok();
  }
};

// Reserved-but-unallocated bytes inside VM-owned guest nodes: capacity the
// operator cannot sell while the owning VM lives (§7 stranded memory).
uint64_t StrandedBytes(const SilozHypervisor& hv, uint32_t socket_count) {
  std::set<uint32_t> available;
  for (uint32_t socket = 0; socket < socket_count; ++socket) {
    for (uint32_t node : hv.AvailableGuestNodes(socket)) {
      available.insert(node);
    }
  }
  uint64_t stranded = 0;
  for (const NumaNode* node : hv.nodes().AllNodes()) {
    if (node->kind() == NodeKind::kGuestReserved && available.count(node->id()) == 0) {
      stranded += node->allocator().free_bytes();
    }
  }
  return stranded;
}

// One serial defrag pass (epoch boundary): for each socket with a blocked
// queue, migrate donors — the live VM holding the fewest nodes, name as the
// tie-break — to the peer socket with the most free nodes, then retry the
// queue head. Bounded per epoch so a hopeless backlog cannot stall the run.
Status DefragPass(FleetRun& run, uint64_t now_ns, FleetReport& report) {
  const uint64_t group_bytes = run.config.geometry.subarray_group_bytes();
  uint32_t budget = run.config.max_migrations_per_epoch;
  for (uint32_t s = 0; s < run.sockets.size() && budget > 0; ++s) {
    SocketState& st = run.sockets[s];
    while (!st.queue.empty() && budget > 0) {
      run.ExpireQueue(st, now_ns);
      if (st.queue.empty()) {
        break;
      }
      Result<bool> admitted = run.TryAdmit(st, run.trace[st.queue.front().arrival_index],
                                           now_ns, /*from_queue=*/true);
      SILOZ_RETURN_IF_ERROR(admitted);
      if (*admitted) {
        st.queue.pop_front();
        continue;
      }
      // Donor: fewest nodes first (cheapest copy, likeliest to fit), then
      // lexicographically-smallest name for determinism.
      const LiveVm* donor = nullptr;
      std::string donor_name;
      for (const auto& [name, vm] : st.live) {
        if (donor == nullptr || vm.nodes < donor->nodes) {
          donor = &vm;
          donor_name = name;
        }
      }
      if (donor == nullptr) {
        break;  // nothing to move; the queue must wait for departures
      }
      // Target: the peer socket with the most free guest nodes.
      uint32_t target = s;
      size_t target_free = 0;
      for (uint32_t t = 0; t < run.sockets.size(); ++t) {
        if (t == s) {
          continue;
        }
        const size_t free_nodes = run.hv.AvailableGuestNodes(t).size();
        if (free_nodes > target_free) {
          target_free = free_nodes;
          target = t;
        }
      }
      if (target == s || target_free * group_bytes < donor->bytes) {
        break;  // no peer can hold the donor
      }
      const LiveVm moved = *donor;
      const int64_t start = WallNs();
      const Status migrated = run.hv.MigrateVm(moved.id, target);
      run.migrate_hist->Observe(static_cast<uint64_t>(WallNs() - start));
      --budget;
      if (!migrated.ok()) {
        if (migrated.error().code == ErrorCode::kNoMemory) {
          ++report.failed_migrations;
          break;  // capacity race with the target; stop thrashing this epoch
        }
        return migrated.error();
      }
      ++report.migrations;
      report.recovered_bytes += moved.nodes * group_bytes;
      // Re-home the bookkeeping: the VM now lives (and will depart) on the
      // target socket's replay.
      Result<Vm*> vm = run.hv.GetVm(moved.id);
      SILOZ_RETURN_IF_ERROR(vm);
      LiveVm rehomed = moved;
      rehomed.nodes = (*vm)->guest_nodes().size();
      st.live.erase(donor_name);
      SILOZ_CHECK_EQ(
          st.departures.erase(std::make_pair(moved.depart_ns, moved.seq)), 1u);
      SocketState& dst = run.sockets[target];
      dst.live.emplace(donor_name, rehomed);
      dst.departures.emplace(std::make_pair(rehomed.depart_ns, rehomed.seq), donor_name);
    }
  }
  return Status::Ok();
}

}  // namespace

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kReject:
      return "reject";
    case AdmissionPolicy::kQueue:
      return "queue";
    case AdmissionPolicy::kDefrag:
      return "defrag";
  }
  return "unknown";
}

Result<AdmissionPolicy> ParseAdmissionPolicy(std::string_view name) {
  if (name == "reject") {
    return AdmissionPolicy::kReject;
  }
  if (name == "queue") {
    return AdmissionPolicy::kQueue;
  }
  if (name == "defrag") {
    return AdmissionPolicy::kDefrag;
  }
  return MakeError(ErrorCode::kInvalidArgument,
                   "unknown admission policy '" + std::string(name) +
                       "' (expected reject, queue, or defrag)");
}

DramGeometry FleetGeometry() {
  DramGeometry geometry;
  geometry.sockets = 8;
  geometry.channels_per_socket = 8;
  geometry.dimms_per_channel = 2;
  geometry.ranks_per_dimm = 2;
  geometry.banks_per_rank = 16;       // 512 banks/socket -> 4 MiB row groups
  geometry.row_bytes = 8 * kKiB;
  geometry.rows_per_bank = 262144;    // 1 TiB/socket
  geometry.rows_per_subarray = 512;   // 2 GiB subarray groups, 512 per socket
  return geometry;
}

std::string FleetReport::ModelText() const {
  std::ostringstream out;
  out << "fleet: " << trace_vms << " arrivals, " << admitted << " admitted (" << queued_admits
      << " after queueing), " << rejected << " rejected, " << abandoned << " abandoned\n"
      << "fleet: peak concurrency " << peak_concurrency << ", exhaustion events "
      << exhaustion_events << ", peak stranded bytes " << peak_stranded_bytes << "\n"
      << "fleet: " << migrations << " migrations (" << failed_migrations << " failed), "
      << recovered_bytes << " bytes recovered\n";
  for (size_t s = 0; s < sockets.size(); ++s) {
    const FleetSocketStats& st = sockets[s];
    out << "fleet: socket " << s << ": admitted " << st.admitted << " (queued "
        << st.queued_admits << "), rejected " << st.rejected << ", abandoned " << st.abandoned
        << ", exhaustion " << st.exhaustion_events << "\n";
  }
  out << "fleet: drain " << (drained_clean ? "clean" : ("LEAKED: " + drain_diff)) << "\n";
  return out.str();
}

std::string FleetReport::ModelJson() const {
  std::ostringstream out;
  out << "{\"trace_vms\":" << trace_vms << ",\"admitted\":" << admitted
      << ",\"queued_admits\":" << queued_admits << ",\"rejected\":" << rejected
      << ",\"abandoned\":" << abandoned << ",\"exhaustion_events\":" << exhaustion_events
      << ",\"migrations\":" << migrations << ",\"failed_migrations\":" << failed_migrations
      << ",\"recovered_bytes\":" << recovered_bytes
      << ",\"peak_concurrency\":" << peak_concurrency
      << ",\"peak_stranded_bytes\":" << peak_stranded_bytes
      << ",\"drained_clean\":" << (drained_clean ? "true" : "false") << ",\"sockets\":[";
  for (size_t s = 0; s < sockets.size(); ++s) {
    const FleetSocketStats& st = sockets[s];
    if (s > 0) {
      out << ",";
    }
    out << "{\"admitted\":" << st.admitted << ",\"queued_admits\":" << st.queued_admits
        << ",\"rejected\":" << st.rejected << ",\"abandoned\":" << st.abandoned
        << ",\"exhaustion_events\":" << st.exhaustion_events << "}";
  }
  out << "]}";
  return out.str();
}

std::string FleetReport::LatencyText() {
  obs::Registry& registry = obs::Registry::Global();
  std::ostringstream out;
  for (const char* name : {"fleet.alloc_ns", "fleet.teardown_ns", "fleet.migrate_ns"}) {
    const obs::HistogramSnapshot snap =
        registry.GetHistogram(name, obs::Domain::kSched).Snapshot();
    out << name << ": n=" << snap.count << " p50=" << obs::HistogramPercentile(snap, 0.50)
        << " p99=" << obs::HistogramPercentile(snap, 0.99)
        << " p999=" << obs::HistogramPercentile(snap, 0.999) << "\n";
  }
  return out.str();
}

Result<FleetReport> RunFleetChurn(const FleetConfig& config) {
  if (config.streams == 0 || config.size_classes_bytes.empty() || config.epoch_s <= 0.0 ||
      config.duration_s <= 0.0 || config.arrivals_per_s <= 0.0 ||
      config.burst_amplitude < 0.0 || config.burst_amplitude >= 1.0 ||
      config.min_lifetime_s <= 0.0 || config.max_lifetime_s < config.min_lifetime_s) {
    return MakeError(ErrorCode::kInvalidArgument, "malformed fleet configuration");
  }
  if (!config.hypervisor.enabled) {
    return MakeError(ErrorCode::kUnsupported,
                     "the fleet driver measures Siloz placement; baseline has no node churn");
  }

  // --- Boot the fleet platform ---
  const DramGeometry& geometry = config.geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;  // sparse: the multi-TiB fleet is never materialized
  SilozConfig hv_config = config.hypervisor;
  hv_config.rows_per_subarray = geometry.rows_per_subarray;
  SilozHypervisor hv(decoder, memory, hv_config);
  SILOZ_RETURN_IF_ERROR(hv.Boot());
  const ConservationSnapshot booted = CaptureConservation(hv);

  // --- Stage 1: trace synthesis (parallel over fixed streams) ---
  const double per_stream_rate = config.arrivals_per_s / config.streams;
  const double peak_rate = per_stream_rate * (1.0 + config.burst_amplitude);
  // Zipfian CDF over the size classes: class r with mass ~ 1/(r+1)^theta.
  // Inlined (vs ZipfianSampler) because fleet skew wants theta > 1, outside
  // the YCSB range that sampler supports.
  std::vector<double> size_cdf(config.size_classes_bytes.size());
  double size_mass = 0.0;
  for (size_t r = 0; r < size_cdf.size(); ++r) {
    size_mass += 1.0 / std::pow(static_cast<double>(r + 1), config.size_theta);
    size_cdf[r] = size_mass;
  }
  Rng root(config.seed);
  std::vector<Rng> stream_rngs;
  stream_rngs.reserve(config.streams);
  for (uint32_t s = 0; s < config.streams; ++s) {
    stream_rngs.push_back(root.Fork(s));
  }
  std::vector<std::vector<Arrival>> per_stream(config.streams);
  // The run's one parallel level; everything after the merge is serial.
  ParallelFor(config.threads, config.streams, [&](uint64_t s) {
    Rng rng = stream_rngs[s];
    std::vector<Arrival>& out = per_stream[s];
    double t = 0.0;
    uint64_t k = 0;
    while (true) {
      // Inhomogeneous Poisson via thinning: exponential gaps at the peak
      // rate, candidates kept with probability rate(t)/peak.
      t += -std::log(1.0 - rng.NextDouble()) / peak_rate;
      if (t > config.duration_s) {
        break;
      }
      const double rate =
          per_stream_rate *
          (1.0 + config.burst_amplitude * std::sin(2.0 * M_PI * t / config.burst_period_s));
      if (!rng.NextBernoulli(rate / peak_rate)) {
        continue;
      }
      Arrival arrival;
      arrival.time_ns = SecondsToNs(t);
      const double draw = rng.NextDouble() * size_mass;
      size_t size_class = 0;
      while (size_class + 1 < size_cdf.size() && draw >= size_cdf[size_class]) {
        ++size_class;
      }
      arrival.bytes = config.size_classes_bytes[size_class];
      // Bounded Pareto lifetime: L = min / U^(1/alpha), capped.
      const double u = 1.0 - rng.NextDouble();  // (0, 1]
      arrival.lifetime_ns = SecondsToNs(std::min(
          config.max_lifetime_s,
          config.min_lifetime_s / std::pow(u, 1.0 / config.lifetime_alpha)));
      arrival.socket = static_cast<uint32_t>(rng.NextBelow(geometry.sockets));
      arrival.stream = static_cast<uint32_t>(s);
      arrival.name = "f" + std::to_string(s) + "-" + std::to_string(k++);
      out.push_back(std::move(arrival));
    }
  });

  FleetRun run(config, hv);
  for (std::vector<Arrival>& stream : per_stream) {
    run.trace.insert(run.trace.end(), std::make_move_iterator(stream.begin()),
                     std::make_move_iterator(stream.end()));
  }
  std::stable_sort(run.trace.begin(), run.trace.end(), [](const Arrival& a, const Arrival& b) {
    return std::tie(a.time_ns, a.stream) < std::tie(b.time_ns, b.stream);
  });
  run.sockets.resize(geometry.sockets);
  for (size_t i = 0; i < run.trace.size(); ++i) {
    run.trace[i].seq = i;
    run.sockets[run.trace[i].socket].arrivals.push_back(i);
  }
  run.timeout_ns = SecondsToNs(config.queue_timeout_s);
  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram& alloc_hist = registry.GetHistogram("fleet.alloc_ns", obs::Domain::kSched);
  obs::Histogram& teardown_hist =
      registry.GetHistogram("fleet.teardown_ns", obs::Domain::kSched);
  obs::Histogram& migrate_hist =
      registry.GetHistogram("fleet.migrate_ns", obs::Domain::kSched);
  run.alloc_hist = &alloc_hist;
  run.teardown_hist = &teardown_hist;
  run.migrate_hist = &migrate_hist;

  FleetReport report;
  report.trace_vms = run.trace.size();

  // --- Stage 2/3: epoch replay, sockets in id order, then the boundary ---
  const uint64_t epoch_ns = SecondsToNs(config.epoch_s);
  uint64_t epoch = 0;
  while (true) {
    bool idle = true;
    for (const SocketState& st : run.sockets) {
      idle = idle && st.Idle();
    }
    if (idle) {
      break;
    }
    ++epoch;
    SILOZ_CHECK_LT(epoch, 10'000'000u) << "fleet replay failed to converge";
    const uint64_t horizon_ns = epoch * epoch_ns;
    for (SocketState& st : run.sockets) {
      SILOZ_RETURN_IF_ERROR(run.ReplayTo(st, horizon_ns));
    }
    if (config.policy == AdmissionPolicy::kDefrag) {
      SILOZ_RETURN_IF_ERROR(DefragPass(run, horizon_ns, report));
    }
    report.peak_stranded_bytes =
        std::max(report.peak_stranded_bytes, StrandedBytes(hv, geometry.sockets));
  }

  // --- Fold the per-socket tallies and sweep the exact peak concurrency ---
  std::vector<std::pair<uint64_t, int32_t>> sweep;  // (time, -1 depart / +1 admit)
  for (const SocketState& st : run.sockets) {
    report.sockets.push_back(st.stats);
    report.admitted += st.stats.admitted;
    report.queued_admits += st.stats.queued_admits;
    report.rejected += st.stats.rejected;
    report.abandoned += st.stats.abandoned;
    report.exhaustion_events += st.stats.exhaustion_events;
    for (const auto& [admit_ns, depart_ns] : st.intervals) {
      sweep.emplace_back(admit_ns, +1);
      sweep.emplace_back(depart_ns, -1);
    }
  }
  // Departures sort before admissions at the same instant, matching the
  // replay's event order.
  std::sort(sweep.begin(), sweep.end());
  int64_t concurrent = 0;
  for (const auto& [time_ns, delta] : sweep) {
    concurrent += delta;
    report.peak_concurrency =
        std::max<uint64_t>(report.peak_concurrency, static_cast<uint64_t>(concurrent));
  }

  // --- Drain check: everything departed, so boot state must be restored ---
  report.drain_diff = DiffConservation(booted, CaptureConservation(hv));
  report.drained_clean = report.drain_diff.empty();

  // Model-domain registry export: pure totals, folded once, serially.
  const auto add = [&registry](const char* name, uint64_t value) {
    if (value > 0) {
      registry.GetCounter(name).Add(value);
    }
  };
  add("fleet.trace_vms", report.trace_vms);
  add("fleet.admitted", report.admitted);
  add("fleet.queued_admits", report.queued_admits);
  add("fleet.rejected", report.rejected);
  add("fleet.abandoned", report.abandoned);
  add("fleet.exhaustion_events", report.exhaustion_events);
  add("fleet.migrations", report.migrations);
  add("fleet.failed_migrations", report.failed_migrations);
  add("fleet.recovered_bytes", report.recovered_bytes);
  registry.GetGauge("fleet.peak_concurrency").Set(static_cast<int64_t>(report.peak_concurrency));
  registry.GetGauge("fleet.peak_stranded_bytes")
      .Set(static_cast<int64_t>(report.peak_stranded_bytes));
  return report;
}

}  // namespace siloz
