// SMR-internals event tracer: compile-always, zero-overhead-when-off.
//
// Every scheme and core primitive calls `obs::emit(event, arg)` at its
// interesting moments (guard enter/exit, retire, scan begin/end, batch
// finalize, free, era advance, slab remote-drain, fault-lab stall
// windows). The off path — the only path benchmarks ever take — is
// one relaxed load of a global flag word plus a predicted-not-taken
// branch; `bench_diff` against the committed trajectory proves the cost
// is below noise (see README "Observability").
//
// When tracing is on, records land in per-thread ring buffers of
// fixed-width 24-byte records stamped with the same TSC clock the
// linearizability histories use (check/history.hpp; steady_clock fallback
// on machines without a synchronized TSC). Memory is bounded: each ring
// overwrites its oldest record once full, and the per-thread drop count
// (emitted - capacity) is reported in the exported trace metadata.
// Export is Chrome trace-event JSON (load in Perfetto or
// chrome://tracing): paired events (guard/scan/stall) become duration
// slices, everything else instants.
//
// The same flag word carries a second, independent bit: retire->free lag
// tracking. When on, retire paths stamp `reclaimable::obs_retire_ticks`
// and free paths feed the tick delta into the domain's lag histogram
// (smr/stats.hpp). Figure drivers that report lag columns enable it;
// `bench/sweep` never does, so the trajectory gate also proves this seam
// free when off.
//
// Layering: this header is a leaf — it includes only the standard
// library, so smr/core headers can include it without cycles. The clock
// plumbing (TSC detection via check/history.hpp) lives in trace.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hyaline::obs {

/// Event taxonomy. Values are stable within one trace file (the exported
/// JSON spells names, not numbers), so reordering is safe across PRs.
enum class event : std::uint32_t {
  guard_enter = 0,    // pair-begin: critical section entered
  guard_exit,         // pair-end
  retire,             // arg = node address
  scan_begin,         // pair-begin: reclamation scan over a retired set
  scan_end,           // pair-end:   arg = nodes freed by the scan
  batch_finalize,     // arg = batch size (Hyaline family)
  free_node,          // arg = node address
  era_advance,        // arg = new era value
  slab_remote_drain,  // arg = blocks drained from the remote MPSC stack
  stall_begin,        // pair-begin: fault-lab stall window, arg = tid
  stall_end,          // pair-end:   arg = tid
  count_              // sentinel
};

/// One ring-buffer record: fixed width, no pointers chased at emit time.
struct record {
  std::uint64_t ts;   // ticks (TSC or steady ns; see clock())
  std::uint64_t arg;  // event-specific payload
  std::uint32_t ev;   // event enum value
  std::uint32_t pad_ = 0;
};
static_assert(sizeof(record) == 24, "records are fixed-width by contract");

namespace detail {

inline constexpr std::uint32_t kTraceBit = 1u;
inline constexpr std::uint32_t kLagBit = 2u;

/// The one word the off path reads. Relaxed everywhere: enable/disable
/// happens on quiescent boundaries (figure drivers flip it before threads
/// start and export after they join), not as synchronization.
inline std::atomic<std::uint32_t> g_flags{0};

void emit_slow(event ev, std::uint64_t arg) noexcept;

}  // namespace detail

inline bool tracing() noexcept {
  return (detail::g_flags.load(std::memory_order_relaxed) &
          detail::kTraceBit) != 0;
}

inline bool lag_tracking() noexcept {
  return (detail::g_flags.load(std::memory_order_relaxed) &
          detail::kLagBit) != 0;
}

/// The hot-path seam. Off: one relaxed load + predicted branch, no call.
inline void emit(event ev, std::uint64_t arg = 0) noexcept {
  if (tracing()) [[unlikely]] detail::emit_slow(ev, arg);
}

/// Current timestamp in clock ticks (TSC when the kernel reports a
/// synchronized TSC, steady_clock ns otherwise). Only meaningful to call
/// on an enabled path — the off path never reads the clock.
std::uint64_t now_ticks() noexcept;

/// Convert a tick delta to nanoseconds using the calibrated frequency
/// (ratio 1.0 under the steady_clock fallback).
std::uint64_t ticks_to_ns(std::uint64_t ticks) noexcept;

void set_tracing(bool on);
void set_lag_tracking(bool on);

/// Ring capacity in records per thread (rounded up to a power of two).
/// Takes effect for rings registered after the call; set before enabling.
void set_ring_capacity(std::size_t records);

/// Test hook: disable everything and discard all rings.
void reset();

/// Name the calling thread: forwarded to pthread_setname_np (15-char
/// limit applies there) and recorded as the thread's label in trace
/// metadata. Safe to call with tracing off.
void name_thread(const char* name);

/// Snapshot of one thread's ring, oldest record first.
struct thread_trace {
  unsigned tid = 0;          // trace-local sequential id
  std::string name;          // pthread name at registration (may be empty)
  std::uint64_t emitted = 0;  // total records emitted by this thread
  std::uint64_t dropped = 0;  // emitted - capacity when the ring wrapped
  std::vector<record> records;
};

/// Copy out every registered ring. Caller must ensure emitting threads
/// are quiescent (the drivers snapshot after joining workers).
std::vector<thread_trace> snapshot();

/// All rings merged into one timeline ordered by timestamp.
std::vector<record> merged_records();

struct clock_info {
  bool tsc = false;          // TSC ticks vs steady_clock ns
  double ticks_per_ns = 1.0;  // calibrated frequency (1.0 for steady)
};
clock_info clock();

const char* event_name(event ev);

/// Export every ring as Chrome trace-event JSON (Perfetto-loadable).
/// Metadata carries thread names, per-thread drop counters, and the
/// clock calibration. Returns false with *err set on I/O failure.
bool write_chrome_trace(const std::string& path, std::string* err);

}  // namespace hyaline::obs
