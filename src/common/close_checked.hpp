// Closing a written stdio file without losing its write error.
//
// stdio buffers writes, so a full disk or a broken pipe may surface only
// when the buffer is flushed: at an explicit fflush or inside fclose.
// Checking ferror before fclose misses that last flush.
#pragma once

#include <cstdio>

namespace hyaline {

/// Flush and close `f`. False if any write into `f`, the final flush or
/// the close failed; `f` is closed either way.
inline bool close_checked(std::FILE* f) {
  const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return flushed && closed;
}

}  // namespace hyaline
