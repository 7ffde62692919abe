// Configuration surface of the Siloz hypervisor (§5).
#ifndef SILOZ_SRC_SILOZ_CONFIG_H_
#define SILOZ_SRC_SILOZ_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dram/geometry.h"
#include "src/ept/ept.h"

namespace siloz {

// How EPT integrity is provided (§5.4, §8.3).
enum class EptProtection : uint8_t {
  kNone,       // baseline: EPT pages in ordinary memory, hammerable
  kGuardRows,  // Siloz default: EPTs in a guard-protected row-group block
  kSecureEpt,  // TDX/SNP-style hardware integrity checks (detect, not prevent)
};

struct SilozConfig {
  // false = unmodified Linux/KVM baseline: one node per socket, no subarray
  // awareness, EPTs in ordinary memory.
  bool enabled = true;

  // Rows per subarray, passed as a boot parameter (§5.3). Non-power-of-2
  // values are handled via artificial subarray groups (§6) when
  // allow_artificial_groups is set.
  uint32_t rows_per_subarray = 1024;
  bool allow_artificial_groups = true;
  // DDR5 platforms undo mirroring/inversion at each device (§8.2), so media
  // subarray blocks equal internal blocks for ANY size: non-power-of-2
  // subarray sizes are then managed natively, without artificial rounding.
  bool uniform_internal_addressing = false;
  // Guard rows inserted at each artificial-group boundary (§6; 4 protects
  // against bit flips observed on modern server DIMMs).
  uint32_t artificial_boundary_guard_rows = 4;

  // Subarray groups per socket reserved for the host (host processes, kernel,
  // mediated pages, EPT block). The remainder become guest-reserved nodes.
  uint32_t host_groups_per_socket = 2;

  // Rows reported by the address-translation drivers as repaired to spare
  // rows in *other* subarrays (§6). Siloz removes every page with bytes in
  // such a row from allocatable memory at boot, like failing pages. The
  // column field is ignored.
  std::vector<MediaAddress> quarantined_rows;

  EptProtection ept_protection = EptProtection::kGuardRows;
  // Guard-row block geometry (§5.4): b consecutive row groups reserved in a
  // designated host subarray group; the row group at offset o holds EPTs,
  // the rest are guard rows.
  uint32_t ept_block_row_groups = 32;  // b
  uint32_t ept_row_group_offset = 12;  // o

  // Booting the same configuration twice yields identical platforms (boot is
  // deterministic), which is what lets the experiment grid share one booted
  // platform across points that compare equal here.
  bool operator==(const SilozConfig&) const = default;
};

// Memory-region classification (§5.1): a page is *unmediated* if the VM can
// access it without a VM exit; such pages must live in the VM's private
// subarray groups. Mediated/host pages live in host-reserved groups. The
// classification mirrors QEMU memory types.
enum class MemoryType : uint8_t {
  kGuestRam,        // unmediated read/write
  kGuestRom,        // unmediated reads (writes exit)
  kVirtioQueue,     // unmediated: shared rings the guest writes directly
  kMmio,            // mediated: every access exits
  kHostOnly,        // hypervisor-internal
};

bool IsUnmediated(MemoryType type);
const char* MemoryTypeName(MemoryType type);

struct VmConfig {
  std::string name;
  uint64_t memory_bytes = 0;            // guest RAM (unmediated)
  uint64_t rom_bytes = 0;               // unmediated-read ROM
  uint64_t mmio_bytes = 0;              // mediated device windows
  uint32_t socket = 0;                  // preferred physical node
  PageSize backing = PageSize::k2M;     // host backing page size (§5.4 relies on 2M)

  bool operator==(const VmConfig&) const = default;
};

}  // namespace siloz

#endif  // SILOZ_SRC_SILOZ_CONFIG_H_
