// Memory controller timing model (§2.4).
//
// Serves a stream of 64-byte requests addressed by media address, modeling:
//  - per-bank row buffers with an open-page policy (hits cost tCAS; misses
//    cost tRP + tRCD + tCAS and are serialized by tRC per bank),
//  - bank-level parallelism: different banks proceed concurrently, which is
//    the property subarray groups preserve and single-subarray placement
//    destroys (§4.1),
//  - per-channel data bus occupancy (tBurst per 64 B),
//  - the tFAW four-activate window and tRRD per rank,
//  - a remote-NUMA latency adder for cross-socket requests.
//
// The model is transaction-level: each request's completion time is computed
// from resource-availability times, which is accurate enough to reproduce
// the paper's performance *shapes* (null result for Siloz placement; >18%
// loss without bank parallelism) without a cycle-accurate DRAM simulator.
#ifndef SILOZ_SRC_MEMCTL_CONTROLLER_H_
#define SILOZ_SRC_MEMCTL_CONTROLLER_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/dram/geometry.h"
#include "src/memctl/timing.h"

namespace siloz {

// One 64-byte memory transaction.
struct MemRequest {
  MediaAddress address;
  bool is_write = false;
  // Socket of the core issuing the request (for remote-NUMA latency).
  uint32_t source_socket = 0;
};

// A request pre-resolved to the controller's internal coordinates: the flat
// bank/rank indices Serve() would otherwise recompute per call, plus the two
// flags it reads. 12 bytes against MemRequest's 36 — the shard servers
// consume these, so the per-command serve loop runs multiply-free.
struct DecodedCmd {
  uint32_t row = 0;
  uint16_t bank_index = 0;  // SocketBankIndex(geometry, address)
  uint16_t rank_index = 0;  // flat (channel, dimm, rank) within socket
  uint8_t channel = 0;      // within socket
  uint8_t flags = 0;        // kDecodedWrite | kDecodedRemote
};
static_assert(sizeof(DecodedCmd) == 12);

inline constexpr uint8_t kDecodedWrite = 0x1;   // request is a write
inline constexpr uint8_t kDecodedRemote = 0x2;  // issued from the other socket

// Resolves a media address to DecodedCmd coordinates. The single source of
// the index arithmetic: MemoryController::DecodeCmd and the workload
// streamer's fused decode pass (TraceStreamer::ForEachDecoded) both call
// this, so their commands are field-for-field identical by construction
// (workload_test pins ForEachDecoded against GenerateTrace).
inline DecodedCmd DecodeMediaCmd(const DramGeometry& geometry, const MediaAddress& address,
                                 uint8_t flags) {
  const uint32_t bank_index = SocketBankIndex(geometry, address);
  const uint32_t rank_index =
      (address.channel * geometry.dimms_per_channel + address.dimm) * geometry.ranks_per_dimm +
      address.rank;
  SILOZ_DCHECK(bank_index <= UINT16_MAX);
  SILOZ_DCHECK(rank_index <= UINT16_MAX);
  SILOZ_DCHECK(address.channel <= UINT8_MAX);
  DecodedCmd cmd;
  cmd.row = address.row;
  cmd.bank_index = static_cast<uint16_t>(bank_index);
  cmd.rank_index = static_cast<uint16_t>(rank_index);
  cmd.channel = static_cast<uint8_t>(address.channel);
  cmd.flags = flags;
  return cmd;
}

struct ControllerStats {
  uint64_t requests = 0;
  uint64_t row_hits = 0;
  uint64_t row_misses = 0;
  uint64_t activates = 0;
  uint64_t precharges = 0;     // explicit PRE before an ACT to an open bank
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t ref_tail_hits = 0;  // requests charged a tRFC refresh latency tail
  double busy_ns = 0.0;       // completion time of the latest request
  double total_latency_ns = 0.0;

  double row_hit_rate() const {
    return requests == 0 ? 0.0 : static_cast<double>(row_hits) / static_cast<double>(requests);
  }
  double average_latency_ns() const {
    return requests == 0 ? 0.0 : total_latency_ns / static_cast<double>(requests);
  }
  // Bytes served per nanosecond, over the busy interval.
  double bandwidth_bytes_per_ns() const {
    return busy_ns == 0.0 ? 0.0 : static_cast<double>(requests) * 64.0 / busy_ns;
  }
};

// DDR4/DDR5 group banks in fours; the obs layer reports command counts at
// this granularity (ISSUE: per-bank-group ACT/PRE/RD/WR/REF).
inline constexpr uint32_t kBanksPerGroup = 4;

// Lifetime DRAM-command census of one bank group (socket-local index).
// Never cleared by ResetStats: flushed to the metrics registry when the
// controller dies, so totals accumulate across measurement windows.
struct BankGroupCounts {
  uint64_t act = 0;
  uint64_t pre = 0;
  uint64_t rd = 0;
  uint64_t wr = 0;
  uint64_t ref = 0;  // refresh latency tails observed by this group's requests
};

// Timing model for one socket's memory controller.
class MemoryController {
 public:
  MemoryController(const DramGeometry& geometry, uint32_t socket, DdrTimings timings = {});
  // Flushes the lifetime per-bank-group command counts into the global
  // metrics registry (model domain).
  ~MemoryController();

  // Serve one request that becomes issueable at `ready_ns`; returns its
  // completion time. Requests must be fed in non-decreasing ready order
  // (the workload engine guarantees this). Header-inline: the closed-loop
  // engine calls this once per replayed access.
  double Serve(const MemRequest& request, double ready_ns);

  // Pre-resolved form of Serve(): identical arithmetic over coordinates
  // decoded once by DecodeCmd(). Serve() is a thin wrapper, so the two paths
  // are bit-identical by construction.
  double ServeDecoded(const DecodedCmd& cmd, double ready_ns);

  // Resolves a request to this controller's internal coordinates (the
  // sharded engine's partition pass runs this once per request).
  DecodedCmd DecodeCmd(const MemRequest& request) const;

  // Folds a shard controller's statistics and lifetime command census into
  // this controller, then zeroes the shard's copies so its destructor
  // flushes nothing to the metrics registry (the absorb target owns the
  // export). Counter fields add; busy_ns takes the max (shards complete
  // concurrently in simulated time). Callers absorb shards in a fixed order
  // (DESIGN.md §13), which pins the one order-sensitive fold —
  // total_latency_ns double summation — to a deterministic sequence.
  void AbsorbShard(MemoryController& shard);

  const ControllerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ControllerStats{}; }
  // Lifetime command counts, indexed by socket-local bank group
  // (SocketBankIndex / kBanksPerGroup). Not affected by ResetStats.
  const std::vector<BankGroupCounts>& bank_group_counts() const { return bank_group_counts_; }
  // Return every bank/rank/bus to idle at time 0 and clear stats (fresh
  // measurement run).
  void ResetState();
  uint32_t socket() const { return socket_; }
  const DramGeometry& geometry() const { return geometry_; }
  const DdrTimings& timings() const { return timings_; }

 private:
  struct BankState {
    int64_t open_row = -1;
    double free_at_ns = 0.0;  // earliest next column command
    double act_allowed_ns = 0.0;
  };
  struct RankState {
    // Ring buffer of the last 4 ACT times for the tFAW window.
    std::array<double, 4> last_acts{};
    uint8_t next = 0;
    double rrd_ready_ns = 0.0;
    // REF epoch already charged with a latency tail (refresh model).
    double ref_epoch_charged = -1.0;
    // Shifted-completion value below which no new refresh tail can be
    // charged: the start of the next tREFI window after the last one
    // evaluated. Completions are per-rank monotone (each rank lives on one
    // channel, whose bus-free time only grows), so requests under this bound
    // can skip the fmod/floor phase math entirely — the slow path would
    // provably do nothing for them.
    double ref_check_from_ns = 0.0;
  };

  DramGeometry geometry_;
  uint32_t socket_;
  DdrTimings timings_;
  std::vector<BankState> banks_;       // per bank in socket
  std::vector<RankState> ranks_;       // per (channel, dimm, rank)
  std::vector<double> channel_bus_free_;  // per channel
  // Precomputed per-request invariants of the refresh model: the effective
  // burst time under the tREFI/(tREFI-tRFC) rate tax, and each rank's
  // staggered REF phase offset. Both are computed with exactly the
  // expressions the per-request code used, so results stay bit-identical.
  double burst_time_ = 0.0;
  std::vector<double> rank_ref_offset_;
  ControllerStats stats_;
  std::vector<BankGroupCounts> bank_group_counts_;  // lifetime, per bank group
};

inline DecodedCmd MemoryController::DecodeCmd(const MemRequest& request) const {
  SILOZ_DCHECK(request.address.socket == socket_);
  const auto flags = static_cast<uint8_t>((request.is_write ? kDecodedWrite : 0) |
                                          (request.source_socket != socket_ ? kDecodedRemote : 0));
  return DecodeMediaCmd(geometry_, request.address, flags);
}

inline double MemoryController::Serve(const MemRequest& request, double ready_ns) {
  return ServeDecoded(DecodeCmd(request), ready_ns);
}

inline double MemoryController::ServeDecoded(const DecodedCmd& cmd, double ready_ns) {
  ++stats_.requests;

  double t = ready_ns;
  if ((cmd.flags & kDecodedRemote) != 0) {
    t += timings_.t_remote_numa;  // interconnect hop before the controller
  }

  BankState& bank = banks_[cmd.bank_index];
  BankGroupCounts& group_counts = bank_group_counts_[cmd.bank_index / kBanksPerGroup];
  if ((cmd.flags & kDecodedWrite) != 0) {
    ++stats_.writes;
    ++group_counts.wr;
  } else {
    ++stats_.reads;
    ++group_counts.rd;
  }
  RankState& rank = ranks_[cmd.rank_index];

  // Wait for the bank's previous column command to clear.
  t = std::max(t, bank.free_at_ns);

  double data_ready;
  if (bank.open_row == static_cast<int64_t>(cmd.row)) {
    ++stats_.row_hits;
    data_ready = t + timings_.t_cas;
  } else {
    ++stats_.row_misses;
    ++stats_.activates;
    ++group_counts.act;
    if (bank.open_row >= 0) {
      ++stats_.precharges;
      ++group_counts.pre;
    }
    // Precharge the old row (if any), then activate, respecting the bank's
    // tRC spacing, the rank's tRRD, and the tFAW four-activate window.
    double act_time = t + (bank.open_row >= 0 ? timings_.t_rp : 0.0);
    act_time = std::max(act_time, bank.act_allowed_ns);
    act_time = std::max(act_time, rank.rrd_ready_ns);
    const double faw_oldest = rank.last_acts[rank.next];
    if (faw_oldest > 0.0) {
      act_time = std::max(act_time, faw_oldest + timings_.t_faw);
    }
    rank.last_acts[rank.next] = act_time;
    rank.next = static_cast<uint8_t>((rank.next + 1) % rank.last_acts.size());
    rank.rrd_ready_ns = act_time + timings_.t_rrd;
    bank.act_allowed_ns = act_time + timings_.t_rc();
    bank.open_row = cmd.row;
    data_ready = act_time + timings_.t_rcd + timings_.t_cas;
  }

  // The 64-byte burst occupies the channel's data bus. Refresh (§2.3)
  // steals tRFC out of every tREFI of DRAM time; real controllers hide it
  // by reordering around the refreshing rank (FR-FCFS), which an in-order
  // replay cannot express per-request. It is therefore modeled as (a) a
  // throughput tax inflating effective bus occupancy by tREFI/(tREFI-tRFC)
  // ~ 4.7%, plus (b) one full-tRFC latency tail per rank per REF epoch
  // (the request unlucky enough to arrive at the head of the blackout).
  double& bus_free = channel_bus_free_[cmd.channel];
  const double burst_start = std::max(data_ready, bus_free);
  const double completion = burst_start + burst_time_;
  bus_free = completion;
  // Next column command to this bank cannot start before the burst drains.
  bank.free_at_ns = completion;

  // The latency tail is charged only to the victim request's observed
  // completion: the aggregate bank/bus cost of refresh is already paid by
  // the rate tax, and holding the bank for the full tRFC here would cascade
  // one REF into a whole-channel stall that real reordering hides.
  double reported = completion;
  if (timings_.model_refresh) {
    const double shifted = completion + timings_.t_refi - rank_ref_offset_[cmd.rank_index];
    // Per-rank completions are monotone (one channel per rank), so once a
    // tREFI window has been evaluated, every later request landing in the
    // same window is guaranteed to change nothing: either its phase is past
    // the blackout, or the epoch was already charged. Skip the fmod/floor
    // for those (~99% of requests); when the slow path does run, it computes
    // exactly the expressions the unconditional version used.
    if (shifted >= rank.ref_check_from_ns) {
      const double phase = std::fmod(shifted, timings_.t_refi);
      const double epoch = std::floor(shifted / timings_.t_refi);
      if (phase < timings_.t_rfc && epoch != rank.ref_epoch_charged) {
        reported += timings_.t_rfc - phase;
        rank.ref_epoch_charged = epoch;
        ++stats_.ref_tail_hits;
        ++group_counts.ref;
      }
      rank.ref_check_from_ns = (epoch + 1.0) * timings_.t_refi;
    }
  }

  stats_.total_latency_ns += reported - ready_ns;
  stats_.busy_ns = std::max(stats_.busy_ns, reported);
  return reported;
}

}  // namespace siloz

#endif  // SILOZ_SRC_MEMCTL_CONTROLLER_H_
