#pragma once

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
// guarding every record in the persistent route-cache log (store::LogStore).
// Chosen over plain CRC32 for its better error-detection properties on
// storage payloads (it is what RocksDB, LevelDB, ext4 and iSCSI use).
// Software table-driven implementation, deterministic everywhere, no SSE4.2
// dependency: about 1.6 GB/s over the ~200-byte spans of route-report
// records on a 4-vCPU container. Appends checksum at most one record per
// *routed* circuit, but every LogStore::open checksums every persisted
// byte, and that is now most of an open's time.
//
// Streaming and one-shot forms. The streaming class is a plain value type
// (no shared state), so concurrent use on distinct instances needs no
// locking; the lookup table is immutable after static initialization.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace codar::common {

class Crc32c {
 public:
  /// Folds `size` bytes at `data` into the running checksum.
  void update(const void* data, std::size_t size);

  void update(std::string_view s) { update(s.data(), s.size()); }

  /// The finalized checksum over everything fed so far. Does not reset;
  /// further update() calls keep extending the same stream.
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot convenience: CRC32C of one contiguous buffer.
std::uint32_t crc32c(const void* data, std::size_t size);

inline std::uint32_t crc32c(std::string_view s) {
  return crc32c(s.data(), s.size());
}

}  // namespace codar::common
