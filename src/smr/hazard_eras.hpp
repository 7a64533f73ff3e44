// Hazard Eras (HE) baseline — Ramalhete & Correia [31].
//
// Reconciles EBR's speed with HP's robustness: instead of publishing
// pointer *addresses*, a thread publishes the current *era* into a leased
// hazard slot. Every node records its birth era at allocation and its
// retire era at retirement; a retired node is freed only when no published
// era falls inside [birth, retire]. Robust: a stalled thread pins only
// nodes whose lifetime overlaps its published eras.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/era_clock.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/retired_batch.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr {

/// Tuning knobs for the HE domain.
struct he_config {
  unsigned max_threads = 144;
  /// Bump the global era clock every `era_freq` allocations.
  std::uint64_t era_freq = 64;
  /// Scan this thread's retired list at this size (0 = auto).
  std::size_t scan_threshold = 0;
};

class he_domain {
 public:
  /// Same per-access reservation discipline as HP: a published era only
  /// protects nodes not yet retired at publication time, so traversals must
  /// not cross frozen (flagged/tagged) edges (see ds/natarajan_tree.hpp).
  static constexpr smr::caps caps{.pointer_publication = true,
                                  .robust = true,
                                  .needs_clean_edges = true};

  /// Era slots per guard; the most protection handles live at once.
  static constexpr unsigned max_hazards = 8;

  struct node : core::reclaimable {
    node* next = nullptr;
    std::uint64_t birth_era = 0;
    std::uint64_t retire_era = 0;
  };

  class guard;

  template <class T>
  using protected_ptr = slot_handle<guard, T>;

  explicit he_domain(he_config cfg = {})
      : cfg_(validated(cfg)), recs_(cfg_.max_threads) {
    if (cfg_.scan_threshold == 0) {
      cfg_.scan_threshold = 2 * std::size_t{cfg_.max_threads} * max_hazards;
    }
    era_.attach(&stats_.events);
    recs_.pool()->attach(&stats_.events);
    for (rec& r : recs_) r.retired.attach(&stats_.events);
  }

  explicit he_domain(unsigned max_threads)
      : he_domain(he_config{max_threads, 64, 0}) {}

  ~he_domain() { drain(); }

  he_domain(const he_domain&) = delete;
  he_domain& operator=(const he_domain&) = delete;

  void on_alloc(node* n) {
    stats_.on_alloc();
    thread_local std::uint64_t alloc_counter = 0;
    era_.tick(alloc_counter, cfg_.era_freq);
    // Audit(he-birth-load): acquire, not seq_cst. A stale-low birth era
    // only widens [birth, retire], so the node matches more published
    // eras and is freed later — strictly conservative.
    n->birth_era = era_.load(std::memory_order_acquire);
  }

  stats& counters() { return stats_; }
  const stats& counters() const { return stats_; }

  class guard {
   public:
    explicit guard(he_domain& dom) : dom_(dom), lease_(dom.recs_.pool()) {
      obs::emit(obs::event::guard_enter, lease_.tid());
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, lease_.tid());
      // Clear still-leased era slots only; handles self-clear on release,
      // so the common guard exit writes nothing (see hp_domain::~guard).
      unsigned mask = slots_.leased_mask();
      if (mask == 0) return;
      rec& r = dom_.recs_[lease_.tid()];
      do {
        const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
        r.eras[i].store(0, std::memory_order_release);
        mask &= mask - 1;
      } while (mask != 0);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// HE get_protected: publish the current era in a leased slot and
    /// re-read until the era is stable across the load.
    template <class T>
    slot_handle<guard, T> protect(const std::atomic<T*>& src) {
      const unsigned idx = slots_.lease("he_domain");
      std::atomic<std::uint64_t>& he = dom_.recs_[lease_.tid()].eras[idx];
      T* p = core::protect_with_era(
          src, dom_.era_, he.load(std::memory_order_relaxed),
          [&he](std::uint64_t e) {
            // seq_cst: era publication must be ordered before the
            // validating clock re-read in protect_with_era (store-load
            // pairing with can_free's scan).
            he.store(e, std::memory_order_seq_cst);
            return e;
          });
      return {this, idx, p};
    }

    template <class T>
    void retire(T* n) {
      n->smr_dtor = core::dtor_thunk<T>();
      dom_.retire(lease_.tid(), static_cast<node*>(n));
    }

    /// Internal: slot_handle check-in (clear the era, return the slot).
    void release_protection_slot(unsigned idx) {
      dom_.recs_[lease_.tid()].eras[idx].store(0,
                                               std::memory_order_release);
      slots_.unlease(idx);
    }

   private:
    he_domain& dom_;
    core::tid_lease lease_;
    slot_allocator<max_hazards> slots_;
  };

  void drain() {
    for (unsigned t = 0; t < recs_.size(); ++t) scan(t);
  }

  std::uint64_t debug_era() const {
    return era_.load(std::memory_order_relaxed);
  }

 private:
  static he_config validated(he_config cfg) {
    if (cfg.max_threads == 0) {
      throw std::invalid_argument("he_config: max_threads must be nonzero");
    }
    if (cfg.era_freq == 0) {
      throw std::invalid_argument("he_config: era_freq must be nonzero");
    }
    return cfg;
  }

  struct alignas(cache_line_size) rec {
    std::atomic<std::uint64_t> eras[max_hazards] = {};
    core::retired_list<node> retired;  // owner-thread private
  };

  void retire(unsigned tid, node* n) {
    stats_.stamp_retire(n);
    obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
    // seq_cst: a stale-low retire stamp shrinks [birth, retire] and lets
    // can_free miss a published era that still covers the node — early
    // free, so this read stays in the total order.
    n->retire_era = era_.load(std::memory_order_seq_cst);
    rec& r = recs_[tid];
    if (r.retired.push(n, cfg_.scan_threshold)) {
      scan(tid);
      r.retired.rearm(cfg_.scan_threshold);
    }
  }

  bool can_free(const node* n) const {
    for (const rec& r : recs_) {
      for (unsigned i = 0; i < max_hazards; ++i) {
        // seq_cst: Dekker pairing with the protect() era publication — a
        // weaker load could be ordered before a concurrent publish and
        // free a node the reader has just validated.
        const std::uint64_t e = r.eras[i].load(std::memory_order_seq_cst);
        if (e != 0 && n->birth_era <= e && e <= n->retire_era) return false;
      }
    }
    return true;
  }

  void scan(unsigned tid) {
    recs_[tid].retired.scan(
        [this](const node* n) { return can_free(n); },
        [this](node* n) { stats_.free_node(n); });
  }

  he_config cfg_;
  core::thread_registry<rec> recs_;
  core::era_clock era_{1};
  stats stats_;
};

}  // namespace hyaline::smr
