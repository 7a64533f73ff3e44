// Small dense per-thread integer, usable by any header without pulling in
// the tid-lease machinery (thread_registry.hpp includes stats.hpp, which
// needs this to pick a counter stripe).
#pragma once

#include <atomic>

namespace hyaline::smr::core {

/// Small dense per-thread integer: the slot-placement hint for schemes that
/// need no bounded registration (§3.2: "a thread chooses randomly or based
/// on its ID"), and the stripe index of smr::stats.
inline unsigned thread_hint() {
  static std::atomic<unsigned> source{0};
  thread_local const unsigned hint =
      source.fetch_add(1, std::memory_order_relaxed);
  return hint;
}

}  // namespace hyaline::smr::core
