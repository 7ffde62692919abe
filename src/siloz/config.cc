#include "src/siloz/config.h"

namespace siloz {

bool IsUnmediated(MemoryType type) {
  switch (type) {
    case MemoryType::kGuestRam:
    case MemoryType::kGuestRom:
    case MemoryType::kVirtioQueue:
      return true;
    case MemoryType::kMmio:
    case MemoryType::kHostOnly:
      return false;
  }
  return false;
}

const char* MemoryTypeName(MemoryType type) {
  switch (type) {
    case MemoryType::kGuestRam:
      return "guest-ram";
    case MemoryType::kGuestRom:
      return "guest-rom";
    case MemoryType::kVirtioQueue:
      return "virtio-queue";
    case MemoryType::kMmio:
      return "mmio";
    case MemoryType::kHostOnly:
      return "host-only";
  }
  return "?";
}

}  // namespace siloz
