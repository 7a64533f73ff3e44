// Hazard Pointers (HP) baseline — Michael [26].
//
// Per-thread array of hazard slots; `protect` leases a slot from the
// guard, publishes the (untagged) pointer, validates by re-reading the
// source, and returns an RAII handle that clears the slot when it dies.
// Retired nodes collect in a per-thread list; once the list exceeds the
// scan threshold, the thread snapshots all hazards and frees every retired
// node not present in the snapshot. Robust (a stalled thread pins at most
// its own K hazards) but pays a store+fence per pointer acquisition — the
// slowness the paper's figures show.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/align.hpp"
#include "common/tagged_ptr.hpp"
#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/retired_batch.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr {

/// Tuning knobs for the HP domain.
struct hp_config {
  unsigned max_threads = 144;
  /// Scan when a thread's retired list reaches this size (0 = auto:
  /// 2 * max_threads * max_hazards, the classic H·R rule).
  std::size_t scan_threshold = 0;
};

class hp_domain {
 public:
  /// protect() publishes per-access reservations: data structures must only
  /// traverse edges whose re-read value is clean (untagged) — a frozen
  /// (flagged/tagged) edge validates forever and proves nothing about the
  /// target's retirement (see ds/natarajan_tree.hpp).
  static constexpr smr::caps caps{.pointer_publication = true,
                                  .robust = true,
                                  .needs_clean_edges = true};

  /// Hazard slots per guard; the most protection handles that may be live
  /// at once. Structures static_assert their peak against this.
  static constexpr unsigned max_hazards = 8;

  struct node : core::reclaimable {
    node* next = nullptr;
  };

  class guard;

  template <class T>
  using protected_ptr = slot_handle<guard, T>;

  explicit hp_domain(hp_config cfg = {})
      : cfg_(validated(cfg)), recs_(cfg_.max_threads) {
    if (cfg_.scan_threshold == 0) {
      cfg_.scan_threshold = 2 * std::size_t{cfg_.max_threads} * max_hazards;
    }
    recs_.pool()->attach(&stats_.events);
    for (rec& r : recs_) r.retired.attach(&stats_.events);
  }

  explicit hp_domain(unsigned max_threads)
      : hp_domain(hp_config{max_threads, 0}) {}

  ~hp_domain() { drain(); }

  hp_domain(const hp_domain&) = delete;
  hp_domain& operator=(const hp_domain&) = delete;

  void on_alloc(node*) { stats_.on_alloc(); }
  stats& counters() { return stats_; }
  const stats& counters() const { return stats_; }

  class guard {
   public:
    explicit guard(hp_domain& dom) : dom_(dom), lease_(dom.recs_.pool()) {
      obs::emit(obs::event::guard_enter, lease_.tid());
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, lease_.tid());
      // Clear still-leased hazards (leave). Handles self-clear their slot
      // on release, so the leased mask — and this loop — is normally
      // empty: the common guard exit writes nothing to the hazard array.
      unsigned mask = slots_.leased_mask();
      if (mask == 0) return;
      rec& r = dom_.recs_[lease_.tid()];
      do {
        const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
        r.hazards[i].store(nullptr, std::memory_order_release);
        mask &= mask - 1;
      } while (mask != 0);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// Publish-and-validate loop in a freshly leased slot. The published
    /// value is stripped of tag bits so it compares equal to the pointer
    /// later passed to retire().
    template <class T>
    slot_handle<guard, T> protect(const std::atomic<T*>& src) {
      const unsigned idx = slots_.lease("hp_domain");
      std::atomic<void*>& hp = dom_.recs_[lease_.tid()].hazards[idx];
      T* p = src.load(std::memory_order_acquire);
      for (;;) {
        // seq_cst: the classic HP store-load pairing — the hazard
        // publication must precede the validating re-read of `src` in the
        // single total order, and pair with hazard_snapshot's scan;
        // release/acquire would let the re-read float above the store.
        hp.store(untag(p), std::memory_order_seq_cst);
        // seq_cst: the validating re-read half of the pairing above.
        T* q = src.load(std::memory_order_seq_cst);
        if (q == p) return {this, idx, p};
        p = q;
      }
    }

    template <class T>
    void retire(T* n) {
      n->smr_dtor = core::dtor_thunk<T>();
      dom_.retire(lease_.tid(), static_cast<node*>(n));
    }

    /// Internal: slot_handle check-in (clear the hazard, return the slot).
    void release_protection_slot(unsigned idx) {
      dom_.recs_[lease_.tid()].hazards[idx].store(
          nullptr, std::memory_order_release);
      slots_.unlease(idx);
    }

   private:
    hp_domain& dom_;
    core::tid_lease lease_;
    slot_allocator<max_hazards> slots_;
  };

  /// Quiescent-state cleanup: with all hazards clear, one scan per thread
  /// frees everything.
  void drain() {
    for (unsigned t = 0; t < recs_.size(); ++t) scan(t);
  }

 private:
  static hp_config validated(hp_config cfg) {
    if (cfg.max_threads == 0) {
      throw std::invalid_argument("hp_config: max_threads must be nonzero");
    }
    return cfg;
  }

  struct alignas(cache_line_size) rec {
    std::atomic<void*> hazards[max_hazards] = {};
    core::retired_list<node> retired;  // owner-thread private
  };

  void retire(unsigned tid, node* n) {
    stats_.stamp_retire(n);
    obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
    rec& r = recs_[tid];
    if (r.retired.push(n, cfg_.scan_threshold)) {
      scan(tid);
      r.retired.rearm(cfg_.scan_threshold);
    }
  }

  void scan(unsigned tid) {
    std::vector<void*> snapshot;
    snapshot.reserve(std::size_t{recs_.size()} * max_hazards);
    for (const rec& r : recs_) {
      for (unsigned i = 0; i < max_hazards; ++i) {
        // seq_cst: Dekker pairing with protect()'s hazard publication — a
        // weaker scan load could be ordered before a concurrent publish
        // and free a node its reader has just validated.
        void* h = r.hazards[i].load(std::memory_order_seq_cst);
        if (h != nullptr) snapshot.push_back(h);
      }
    }
    std::sort(snapshot.begin(), snapshot.end());
    recs_[tid].retired.scan(
        [&snapshot](const node* n) {
          return !std::binary_search(snapshot.begin(), snapshot.end(),
                                     static_cast<const void*>(n));
        },
        [this](node* n) { stats_.free_node(n); });
  }

  hp_config cfg_;
  core::thread_registry<rec> recs_;
  stats stats_;
};

}  // namespace hyaline::smr
