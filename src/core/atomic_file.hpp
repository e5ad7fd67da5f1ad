// Internal atomic file replacement: the one rename-based writer behind the
// cell cache's entries, the fleet's shardmap manifest and markers, and the
// --stream resume rewrite. Not installed.
//
// The bytes go to a unique sibling `<path>.tmp.<pid>.<n>` that is then
// renamed over `path`, so a reader sees the old file or the new one, never
// a partial write. `n` comes from ONE process-wide counter, so two writers
// of the same path in one process (two CellCache instances over one
// directory, say) never share a tmp file. The ".tmp." infix is what
// `cache gc` and ClaimDir::scan recognise as a killed writer's leftover.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace slpdas::core::detail {

/// Replaces `path` with `bytes` atomically. Returns false — with the tmp
/// file removed and `path` untouched — when the write or the rename fails.
[[nodiscard]] inline bool write_file_atomically(const std::string& path,
                                                std::string_view bytes) {
  static std::atomic<std::uint64_t> counter{0};
#ifdef _WIN32
  const long long pid = 0;
#else
  const auto pid = static_cast<long long>(::getpid());
#endif
  const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                          std::to_string(counter.fetch_add(1));
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    ok = !out.fail();
  }
  std::error_code ec;
  if (ok) {
    std::filesystem::rename(tmp, path, ec);
    ok = !ec;
  }
  if (!ok) {
    std::filesystem::remove(tmp, ec);
  }
  return ok;
}

}  // namespace slpdas::core::detail
