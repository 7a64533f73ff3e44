// Hyaline-1 and Hyaline-1S: the specialized single-width-CAS variants
// (paper §3.2 "Hyaline-1 for Single-width CAS", Figure 4, and the 1S rows
// of Figure 5).
//
// Every thread owns a dedicated slot, which lets HRef shrink to a single
// bit merged into HPtr (bit 0 of the head word):
//   - enter is a plain store of {HRef=1, HPtr=Null}  (wait-free),
//   - leave is a SWAP with {0, Null}; the leaver exclusively owns the
//     whole detached list and dereferences every node in it,
//   - retire counts the number of slots a batch was inserted into
//     (`Inserts`) instead of adjusting predecessors; the batch's NRef is
//     adjusted by that count at the end (so no Adjs constant and no
//     power-of-two slot-count requirement).
//
// Hyaline-1S adds birth eras exactly like Hyaline-S, but since the
// thread-to-slot mapping is 1:1, `touch` degenerates to an ordinary store
// and no Ack machinery is needed (a stalled thread only ever poisons its
// own slot, which no one else uses) — this is why Figure 10a shows
// Hyaline-1S tracking HP/HE/IBR exactly.
//
// Node header layout is identical to basic Hyaline (see smr/hyaline.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/era_clock.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline {

/// Tuning knobs for a Hyaline-1(S) domain.
struct config1 {
  /// Maximum number of threads (== number of slots; 1:1 mapping).
  std::size_t max_threads = 128;

  /// Minimum batch size; effective size is max(batch_min, max_threads+1).
  std::size_t batch_min = 64;

  /// Hyaline-1S: era clock increment frequency.
  std::uint64_t era_freq = 64;
};

/// A Hyaline-1 / Hyaline-1S reclamation domain.
template <bool Robust>
class basic_domain1 {
 public:
  /// Same birth-era skip as Hyaline-S (see basic_domain): robust variants
  /// need the clean-edge traversal discipline.
  static constexpr smr::caps caps{.robust = Robust,
                                  .needs_clean_edges = Robust,
                                  .supports_trim = true};

  struct node : smr::core::reclaimable {
    std::atomic<std::uintptr_t> w0{0};
    node* w1 = nullptr;
    std::uintptr_t w2 = 0;
  };

  template <class T>
  using protected_ptr = smr::raw_handle<T>;

  explicit basic_domain1(config1 cfg = {})
      : cfg_(validated(cfg)),
        slots_(static_cast<unsigned>(cfg_.max_threads)) {
    alloc_era_.attach(&stats_.events);
    slots_.pool()->attach(&stats_.events);
  }

  ~basic_domain1() { drain(); }

  basic_domain1(const basic_domain1&) = delete;
  basic_domain1& operator=(const basic_domain1&) = delete;

  void on_alloc(node* n) {
    stats_.on_alloc();
    if constexpr (Robust) {
      auto& b = builders_.local();
      alloc_era_.tick(b.alloc_counter, cfg_.era_freq);
      // Audit(hyaline-birth-load): acquire, not seq_cst — see
      // hyaline.hpp's on_alloc; stale-low birth eras only retain longer.
      n->w0.store(alloc_era_.load(std::memory_order_acquire),
                  std::memory_order_relaxed);
    }
  }

  smr::stats& counters() { return stats_; }
  const smr::stats& counters() const { return stats_; }

  std::size_t slot_count() const { return cfg_.max_threads; }
  std::size_t batch_size() const {
    return cfg_.batch_min > cfg_.max_threads + 1 ? cfg_.batch_min
                                                 : cfg_.max_threads + 1;
  }

  class guard {
   public:
    /// Transparent enter: the guard leases its dedicated slot (the 1:1
    /// thread-to-slot mapping of Fig. 4) from the domain's pool; nested
    /// guards on one thread lease distinct slots.
    explicit guard(basic_domain1& dom)
        : dom_(dom), lease_(dom.slots_.pool()), slot_(lease_.tid()) {
      obs::emit(obs::event::guard_enter, slot_);
      dom_.enter(slot_);
      handle_ = nullptr;  // Fig. 4: enter returns Null
      builder_ = &dom_.builders_.local();
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, slot_);
      dom_.leave(slot_, handle_);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    template <class T>
    smr::raw_handle<T> protect(const std::atomic<T*>& src) {
      if constexpr (!Robust) {
        return smr::raw_handle<T>(src.load(std::memory_order_acquire));
      } else {
        // 1:1 thread-to-slot mapping: touch is an ordinary store
        // (Fig. 5 line 21 comment).
        slot_rec& sl = dom_.slots_[slot_];
        return smr::raw_handle<T>(smr::core::protect_with_era(
            src, dom_.alloc_era_,
            // seq_cst: this thread's own reservation word, but scanners read
            // it seq_cst — keep the read in the same total order.
            sl.access_era.load(std::memory_order_seq_cst),
            [&sl](std::uint64_t e) {
              // seq_cst: era publication must be ordered before the validating
              // clock re-read in protect_with_era (store-load pairing with the
              // retire-side access_era scan).
              sl.access_era.store(e, std::memory_order_seq_cst);
              return e;
            }));
      }
    }

    template <class T>
    void retire(T* n) {
      n->smr_dtor = smr::core::dtor_thunk<T>();
      dom_.retire_into(*builder_, static_cast<node*>(n));
    }

    /// §3.3 trimming (handles in Hyaline-1 exist only for this).
    void trim() { handle_ = dom_.trim(slot_, handle_); }

    unsigned slot() const { return static_cast<unsigned>(slot_); }

   private:
    basic_domain1& dom_;
    smr::core::tid_lease lease_;
    std::size_t slot_;
    node* handle_;
    typename basic_domain1::batch_builder* builder_;
  };

  /// Finalize the calling thread's partial batch (pads with dummy nodes).
  /// Call before a thread is destroyed/recycled.
  void flush() { flush_builder(builders_.local()); }

  /// Quiescent-state cleanup (no live guards anywhere).
  void drain() {
    builders_.for_each([this](batch_builder& b) { flush_builder(b); });
  }

  /// Introspection for tests.
  bool debug_slot_active(std::size_t slot) const {
    return slots_[slot].word.load(std::memory_order_relaxed) & 1;
  }
  node* debug_slot_head(std::size_t slot) const {
    return decode_ptr(slots_[slot].word.load(std::memory_order_relaxed));
  }
  std::uint64_t debug_access_era(std::size_t slot) const {
    return slots_[slot].access_era.load(std::memory_order_relaxed);
  }
  std::uint64_t debug_alloc_era() const {
    return alloc_era_.load(std::memory_order_relaxed);
  }

 private:
  // Head word: [HPtr | HRef:1] — bit 0 is the single-bit reference flag.
  struct alignas(cache_line_size) slot_rec {
    std::atomic<std::uintptr_t> word{0};
    std::atomic<std::uint64_t> access_era{0};  // Hyaline-1S only
  };

  // Cache-line aligned: heap-allocated per thread by the TLS cache and
  // written on every retire (see basic_domain::batch_builder).
  struct alignas(cache_line_size) batch_builder {
    node* refs = nullptr;
    std::size_t count = 0;
    std::uint64_t min_birth = ~std::uint64_t{0};
    std::uint64_t alloc_counter = 0;
  };

  static config1 validated(config1 cfg) {
    if (cfg.max_threads == 0) {
      throw std::invalid_argument(
          "hyaline::config1: max_threads must be nonzero (it is the slot "
          "count of the 1:1 thread-to-slot mapping)");
    }
    if (Robust && cfg.era_freq == 0) {
      throw std::invalid_argument(
          "hyaline::config1: era_freq must be nonzero");
    }
    return cfg;
  }

  static node* decode_ptr(std::uintptr_t w) {
    return reinterpret_cast<node*>(w & ~std::uintptr_t{1});
  }

  static node* next_of(const node* n) {
    return reinterpret_cast<node*>(n->w0.load(std::memory_order_acquire));
  }
  static void set_next(node* n, node* nx) {
    n->w0.store(reinterpret_cast<std::uintptr_t>(nx),
                std::memory_order_release);
  }
  static std::uint64_t birth_of(const node* n) {
    return n->w0.load(std::memory_order_relaxed);
  }
  static node* refs_of(const node* carrier) {
    return reinterpret_cast<node*>(carrier->w2 & ~std::uintptr_t{1});
  }
  static bool is_dummy(const node* carrier) { return carrier->w2 & 1; }

  void enter(std::size_t slot) {
    // Fig. 4: Heads[slot] = {HRef=1, HPtr=Null}. Wait-free.
    // seq_cst: enter publication — pairs store-load with retire()'s
    // slot scan; a release store could be missed by a concurrent scan
    // that then skips refcounting this thread.
    slots_[slot].word.store(1, std::memory_order_seq_cst);
  }

  void leave(std::size_t slot, node* handle) {
    // Fig. 4: SWAP out the whole list; the leaver owns every node in it.
    const std::uintptr_t old =
        // seq_cst: leave's SWAP is a linearization point — it atomically
        // takes ownership of the slot list against concurrent retires.
        slots_[slot].word.exchange(0, std::memory_order_seq_cst);
    node* head = decode_ptr(old);
    if (head != nullptr) {
      node* defer = nullptr;
      traverse(head, handle, defer);
      free_deferred(defer);
    }
  }

  node* trim(std::size_t slot, node* handle) {
    node* curr =
        // seq_cst: trim snapshots the slot word in the same total order as
        // the retire CASes that extend the list.
        decode_ptr(slots_[slot].word.load(std::memory_order_seq_cst));
    if (curr != nullptr && curr != handle) {
      node* defer = nullptr;
      traverse(next_of(curr), handle, defer);
      free_deferred(defer);
    }
    return curr;
  }

  void retire_into(batch_builder& b, node* n) {
    stats_.stamp_retire(n);
    obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
    if constexpr (Robust) {
      const std::uint64_t era = birth_of(n);
      if (era < b.min_birth) b.min_birth = era;
    }
    if (b.refs == nullptr) {
      n->w1 = nullptr;
      b.refs = n;
    } else {
      n->w1 = b.refs->w1;
      b.refs->w1 = n;
    }
    ++b.count;
    if (b.count >= batch_size()) finalize_batch(b);
  }

  void flush_builder(batch_builder& b) {
    if (b.refs == nullptr) return;
    finalize_batch(b);
  }

  void finalize_batch(batch_builder& b) {
    const std::size_t n_slots = cfg_.max_threads;
    while (b.count < n_slots + 1) {
      node* dummy = new node;
      dummy->w2 = 1;
      dummy->w1 = b.refs->w1;
      b.refs->w1 = dummy;
      ++b.count;
    }

    node* refs = b.refs;
    const std::uint64_t min_birth = b.min_birth;
    obs::emit(obs::event::batch_finalize, b.count);
    stats_.events.on_finalize();
    b.refs = nullptr;
    b.count = 0;
    b.min_birth = ~std::uint64_t{0};

    refs->w2 = 0;
    refs->w0.store(0, std::memory_order_relaxed);
    for (node* c = refs->w1; c != nullptr; c = c->w1) {
      c->w2 = reinterpret_cast<std::uintptr_t>(refs) | (c->w2 & 1);
    }

    node* carrier = refs->w1;
    std::uint64_t inserts = 0;
    node* defer = nullptr;

    for (std::size_t i = 0; i < n_slots; ++i) {
      slot_rec& sl = slots_[i];
      for (;;) {
        // seq_cst: Dekker pairing with enter()'s publication — a weaker
        // read could miss a freshly entered thread and skip its refcount.
        const std::uintptr_t w = sl.word.load(std::memory_order_seq_cst);
        bool skip = (w & 1) == 0;
        if constexpr (Robust) {
          // seq_cst: Dekker pairing with protect()'s era publication (see
          // hyaline.hpp's retire-side scan).
          skip = skip || sl.access_era.load(std::memory_order_seq_cst) <
                             min_birth;
        }
        if (skip) break;
        assert(carrier != nullptr);
        // Read the batch-internal next before publishing the carrier —
        // same discipline as hyaline.hpp's finalize_batch. Here the batch
        // provably survives until the final adjust below (its counter
        // only ever decrements until +Inserts lands), but the hoist
        // keeps the invariant uniform and TSan-checkable.
        node* const next_carrier = carrier->w1;
        set_next(carrier, decode_ptr(w));
        const std::uintptr_t neww =
            reinterpret_cast<std::uintptr_t>(carrier) | 1;
        std::uintptr_t expected = w;
        // seq_cst: retire's list-extension CAS is a linearization point
        // ordered against enter/leave on the slot word.
        if (!sl.word.compare_exchange_strong(expected, neww,
                                             std::memory_order_seq_cst)) {
          continue;
        }
        ++inserts;  // Fig. 4: REF #2 replaced with Inserts++
        carrier = next_carrier;
        break;
      }
    }
    // Fig. 4: REF #3 replaced with adjust(FirstNode, Inserts).
    adjust(refs, inserts, defer);
    free_deferred(defer);
  }

  void adjust(node* refs, std::uint64_t val, node*& defer) {
    const std::uint64_t old =
        refs->w0.fetch_add(val, std::memory_order_acq_rel);
    if (old + val == 0) push_deferred(defer, refs);
  }

  void traverse(node* start, node* handle, node*& defer) {
    node* curr = start;
    while (curr != nullptr) {
      node* nx = next_of(curr);
      node* refs = refs_of(curr);
      const std::uint64_t old =
          refs->w0.fetch_add(~std::uint64_t{0}, std::memory_order_acq_rel);
      if (old == 1) push_deferred(defer, refs);
      if (curr == handle) break;
      curr = nx;
    }
  }

  static void push_deferred(node*& defer, node* refs) {
    refs->w0.store(reinterpret_cast<std::uintptr_t>(defer),
                   std::memory_order_relaxed);
    defer = refs;
  }

  void free_deferred(node* defer) {
    while (defer != nullptr) {
      node* next = reinterpret_cast<node*>(
          defer->w0.load(std::memory_order_relaxed));
      free_batch(defer);
      defer = next;
    }
  }

  void free_batch(node* refs) {
    node* c = refs->w1;
    stats_.free_node(refs);
    while (c != nullptr) {
      node* nx = c->w1;
      if (is_dummy(c)) {
        delete c;  // padding dummy: a plain node, never user-retired
      } else {
        stats_.free_node(c);
      }
      c = nx;
    }
  }

  const config1 cfg_;
  /// Per-slot records plus the lease pool guards check their slot out of
  /// (the 1:1 mapping shares the baselines' registry machinery).
  smr::core::thread_registry<slot_rec> slots_;
  smr::core::era_clock alloc_era_{1};  // global era clock (Hyaline-1S)
  smr::stats stats_;

  /// Per-(thread, domain) batch builders (core/thread_registry.hpp).
  smr::core::tls_cache<batch_builder> builders_;
};

/// Hyaline-1: single-width CAS, wait-free enter/leave, per-thread slots.
using domain_1 = basic_domain1<false>;
/// Hyaline-1S: robust variant (birth eras; fully robust, no slot cap).
using domain_1s = basic_domain1<true>;

}  // namespace hyaline
