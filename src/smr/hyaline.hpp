// Hyaline and Hyaline-S: the paper's primary contribution.
//
// This header implements the scalable multiple-list algorithm of §3.2 /
// Figure 3 (enter, leave, retire, trim, adjust, traverse), the robust
// Hyaline-S extension of §4.2 / Figure 5 (birth eras, per-slot access eras,
// the `touch` CAS-max, Ack-based stalled-slot avoidance), and the adaptive
// slot resizing of §4.3 / Figure 6, in one template:
//
//   basic_domain<Head, Robust>
//     Head   - head-tuple policy (head_packed / head_dw / head_llsc),
//              see common/head_policy.hpp
//     Robust - false: basic Hyaline; true: Hyaline-S
//
// Exported aliases (bottom of file): hyaline::domain, domain_dw,
// domain_llsc, domain_s, domain_s_dw, domain_s_llsc.
//
// Node header layout (paper §3.2: "each node keeps three variables
// irrespective of batch sizes and total number of slots"):
//
//   w0  carriers: Next pointer of the slot retirement list this node was
//       inserted into; REFS node: the per-batch NRef counter. Before the
//       batch is finalized, w0 of every node holds its birth era
//       (Hyaline-S; "shares space with Next", Fig. 5 line 19).
//   w1  batch chain link. The REFS node is the chain head, so free_batch
//       can walk the whole batch starting from it.
//   w2  carriers: pointer to the REFS node (bit 0 tags padding dummies);
//       REFS node: the batch's Adjs value (needed per-batch once the slot
//       count can change adaptively, §4.3; storing it unconditionally also
//       keeps the non-adaptive code path identical).
//
// Reference-count arithmetic is wrapping uint64: Adjs = floor((2^64-1)/k)+1
// so k*Adjs == 0 (mod 2^64), which is what lets a batch's counter reach
// zero only after all k per-slot adjustments *and* all referencing threads'
// decrements have landed (§3.2).
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "common/align.hpp"
#include "common/head_policy.hpp"
#include "common/slot_directory.hpp"
#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/era_clock.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline {

/// Tuning knobs for a Hyaline(-S) domain.
struct config {
  /// Number of slots k (power of two). 0 = next_pow2(hardware threads),
  /// at least 4. The paper caps k at the next power of two of the core
  /// count (128 on the 72-core testbed).
  std::size_t slots = 0;

  /// Hyaline-S only: allow the adaptive §4.3 slot-directory growth up to
  /// this many slots. 0 = no growth (the capped variant whose robustness
  /// cliff Figure 10a shows at 57 stalled threads).
  std::size_t max_slots = 0;

  /// Minimum batch size. The effective batch size is max(batch_min, k+1):
  /// a batch needs one carrier node per slot plus the REFS node (§3.2).
  /// The paper's evaluation uses 64.
  std::size_t batch_min = 64;

  /// Hyaline-S: global era clock increment frequency (one bump per
  /// `era_freq` allocations, Fig. 5 line 18).
  std::uint64_t era_freq = 64;

  /// Hyaline-S: Ack threshold above which a slot is presumed occupied by
  /// stalled threads and avoided by enter (§4.2 suggests e.g. 8192).
  std::int64_t ack_threshold = 8192;

  /// Amortized slot choice for the transparent guard: reuse the previously
  /// chosen slot for up to this many consecutive guards on one thread
  /// before re-running choose_slot(). The slot choice is a pure placement
  /// hint (any thread may use any slot, §3.2), so caching it never affects
  /// safety; for Hyaline-S it delays the ack-threshold stall-avoidance
  /// probe by at most one burst. Enter/leave (the FAA/CAS on the slot
  /// head) still run per guard — they are what make retirement safe.
  /// 0 (default) = choose on every guard. Guards constructed with an
  /// explicit slot hint never cache.
  std::uint32_t entry_burst = 0;
};

namespace detail {

inline std::size_t default_slot_count() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw < 4) hw = 4;
  return std::bit_ceil(hw);
}

/// Adjs for k slots (k a power of two): floor((2^64-1)/k) + 1, so that
/// k * Adjs wraps to exactly 0.
inline constexpr std::uint64_t adjs_for(std::size_t k) {
  return ~std::uint64_t{0} / k + 1;  // k == 1 -> wraps to 0 (simple version)
}

}  // namespace detail

/// A Hyaline / Hyaline-S reclamation domain.
template <template <class> class Head, bool Robust>
class basic_domain {
 public:
  /// Hyaline-S (needs_clean_edges): batch insertion skips slots whose
  /// access era predates every node in the batch, so a reader holding
  /// frozen (already spliced-out) garbage can reach a young node whose
  /// batch it was never refcounted into. Robust variants therefore require
  /// the clean-edge traversal discipline (see ds/natarajan_tree.hpp);
  /// basic Hyaline pins every batch retired during the guard's lifetime
  /// and does not.
  static constexpr smr::caps caps{.robust = Robust,
                                  .needs_clean_edges = Robust,
                                  .supports_trim = true,
                                  .burst_entry = true};

  /// Intrusive header every reclaimable object must derive from (three
  /// algorithm words — see file comment for the layout — plus the typed
  /// destroy thunk of the shared `reclaimable` base).
  struct node : smr::core::reclaimable {
    std::atomic<std::uintptr_t> w0{0};
    node* w1 = nullptr;
    std::uintptr_t w2 = 0;
  };

  using head_policy = Head<node>;
  using head_val = typename head_policy::val;

  template <class T>
  using protected_ptr = smr::raw_handle<T>;

  explicit basic_domain(config cfg = {})
      : cfg_(validated(cfg)),
        slots_(normalize_k(cfg_.slots),
               Robust && cfg_.max_slots > normalize_k(cfg_.slots)
                   ? std::bit_ceil(cfg_.max_slots)
                   : normalize_k(cfg_.slots)) {
    alloc_era_.attach(&stats_.events);
  }

  ~basic_domain() { drain(); }

  basic_domain(const basic_domain&) = delete;
  basic_domain& operator=(const basic_domain&) = delete;

  /// Birth-era hook (Fig. 5 init_node). Call right after allocating any
  /// object that will be retired through this domain. No-op for basic
  /// Hyaline (kept so data structures are scheme-agnostic).
  void on_alloc(node* n) {
    stats_.on_alloc();
    if constexpr (Robust) {
      auto& b = builders_.local();
      alloc_era_.tick(b.alloc_counter, cfg_.era_freq);
      // Audit(hyaline-birth-load): acquire, not seq_cst. A stale-low
      // birth era makes the node look older, so era-checking skips fewer
      // handoffs and the node is retained longer — conservative (same
      // argument as IBR/HE birth stamps).
      n->w0.store(alloc_era_.load(std::memory_order_acquire),
                  std::memory_order_relaxed);
    }
  }

  smr::stats& counters() { return stats_; }
  const smr::stats& counters() const { return stats_; }

  /// Current number of slots (grows only in adaptive Hyaline-S).
  std::size_t slot_count() const { return slots_.size(); }

  /// Effective batch size right now.
  std::size_t batch_size() const {
    const std::size_t k = slots_.size();
    return cfg_.batch_min > k + 1 ? cfg_.batch_min : k + 1;
  }

  /// RAII critical section: enter on construction, leave on destruction.
  class guard {
   public:
    /// Transparent enter: the slot is picked from a per-thread hint
    /// (threads never register — the paper's transparency property).
    /// With entry_burst set, the previous guard's slot choice is reused
    /// for a burst, skipping choose_slot's modulo (and, for Hyaline-S,
    /// its ack probe) on the hot path.
    explicit guard(basic_domain& dom) : dom_(dom) {
      builder_ = &dom_.builders_.local();
      if (dom_.cfg_.entry_burst != 0 && builder_->slot_probe_left != 0) {
        --builder_->slot_probe_left;
        slot_ = builder_->slot_cache;
      } else {
        slot_ = dom_.choose_slot(smr::core::thread_hint());
        builder_->slot_cache = slot_;
        builder_->slot_probe_left = dom_.cfg_.entry_burst;
      }
      obs::emit(obs::event::guard_enter, slot_);
      handle_ = dom_.enter(slot_);
    }

    /// Explicit placement: `slot_hint` picks the slot (mod k); Hyaline
    /// supports any number of threads per slot, so a thread id, a random
    /// number, or anything else works (§3.2: "a thread chooses randomly or
    /// based on its ID"). White-box tests use this to stage interleavings
    /// deterministically.
    guard(basic_domain& dom, unsigned slot_hint) : dom_(dom) {
      slot_ = dom_.choose_slot(slot_hint);
      obs::emit(obs::event::guard_enter, slot_);
      handle_ = dom_.enter(slot_);
      builder_ = &dom_.builders_.local();
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, slot_);
      if (active_) dom_.leave(slot_, handle_);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// Acquire a pointer for safe traversal. Basic Hyaline: plain acquire
    /// load (no per-access cost — the paper's transparency/performance
    /// claim). Hyaline-S: the Fig. 5 deref loop, keeping this slot's
    /// access era in sync with the global era clock. The handle is the
    /// zero-cost wrapper: protection is guard-lifetime / era based.
    template <class T>
    smr::raw_handle<T> protect(const std::atomic<T*>& src) {
      if constexpr (!Robust) {
        return smr::raw_handle<T>(src.load(std::memory_order_acquire));
      } else {
        slot_rec& sl = dom_.slots_.at(slot_);
        return smr::raw_handle<T>(smr::core::protect_with_era(
            src, dom_.alloc_era_,
            // seq_cst: shared slot reservation (CAS-maxed by every thread on
            // the slot); reads stay in touch()'s total order so the validate
            // loop never accepts a stale reservation.
            sl.access_era.load(std::memory_order_seq_cst),
            [this, &sl](std::uint64_t e) { return dom_.touch(sl, e); }));
      }
    }

    /// Retire a node unlinked from the data structure, capturing T's
    /// deleter. O(1): appends to the thread-local batch; every
    /// batch_size() retires the batch is inserted into the k slot lists
    /// (amortized O(1) per retire, Theorem 3).
    template <class T>
    void retire(T* n) {
      n->smr_dtor = smr::core::dtor_thunk<T>();
      dom_.retire_into(*builder_, static_cast<node*>(n));
    }

    /// §3.3 trimming: logically leave-then-enter without touching Head.
    /// Reclaims everything retired since this guard (or its last trim)
    /// started, while keeping the thread inside its critical section.
    void trim() {
      handle_ = dom_.trim(slot_, handle_);
    }

    unsigned slot() const { return static_cast<unsigned>(slot_); }

   private:
    basic_domain& dom_;
    std::size_t slot_;
    node* handle_;
    typename basic_domain::batch_builder* builder_;
    bool active_ = true;
  };

  /// Finalize the calling thread's partially filled batch by padding it
  /// with dummy nodes (§2.4's finalization trick) and retiring it. After
  /// this, the thread is fully "off the hook" — it may exit immediately.
  void flush() { flush_builder(builders_.local()); }

  /// Quiescent-state cleanup: flush every thread's builder. Callable only
  /// when no guards are live anywhere (tests, shutdown). With HRef == 0 in
  /// every slot, each flushed batch is freed immediately (all k per-slot
  /// contributions arrive as Empty adjustments).
  void drain() {
    builders_.for_each([this](batch_builder& b) { flush_builder(b); });
  }

  /// Introspection for tests: head tuple of a slot.
  head_val debug_head(std::size_t slot) { return slots_.at(slot).head.snapshot(); }
  /// Introspection for tests: access era / ack of a slot (Hyaline-S).
  std::uint64_t debug_access_era(std::size_t slot) {
    return slots_.at(slot).access_era.load(std::memory_order_relaxed);
  }
  std::int64_t debug_ack(std::size_t slot) {
    return slots_.at(slot).ack.load(std::memory_order_relaxed);
  }
  std::uint64_t debug_alloc_era() const {
    return alloc_era_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(cache_line_size) slot_rec {
    head_policy head{};
    std::atomic<std::uint64_t> access_era{0};  // Hyaline-S only
    std::atomic<std::int64_t> ack{0};          // Hyaline-S only
  };

  // Cache-line aligned: builders are heap-allocated per thread by the TLS
  // cache and written on every retire; two threads' builders must not
  // share a line.
  struct alignas(cache_line_size) batch_builder {
    node* refs = nullptr;  // chain head == REFS node of the batch in progress
    std::size_t count = 0;
    std::uint64_t min_birth = ~std::uint64_t{0};
    std::uint64_t alloc_counter = 0;
    /// Amortized slot choice (config::entry_burst): the transparent
    /// guard's last chosen slot and how many more guards may reuse it.
    std::size_t slot_cache = 0;
    std::uint32_t slot_probe_left = 0;
  };

  /// Constructor-time validation (API v2): malformed configs fail loudly
  /// here instead of corrupting the Adjs arithmetic downstream.
  static config validated(config cfg) {
    if (cfg.slots != 0 && !std::has_single_bit(cfg.slots)) {
      throw std::invalid_argument(
          "hyaline::config: slots must be a power of two (the Adjs "
          "reference-count arithmetic requires k * Adjs == 0 mod 2^64)");
    }
    if (Robust && cfg.max_slots != 0 &&
        cfg.max_slots < normalize_k(cfg.slots)) {
      throw std::invalid_argument(
          "hyaline::config: max_slots must be >= slots (it caps the "
          "adaptive slot-directory growth of §4.3)");
    }
    if (Robust && cfg.era_freq == 0) {
      throw std::invalid_argument(
          "hyaline::config: era_freq must be nonzero");
    }
    return cfg;
  }

  static std::size_t normalize_k(std::size_t requested) {
    std::size_t k = requested ? requested : detail::default_slot_count();
    return std::bit_ceil(k);
  }

  // --- node header accessors -----------------------------------------

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
  static std::uint64_t adjs_of(const node* refs) { return refs->w2; }

  // --- core algorithm (Figure 3) --------------------------------------

  std::size_t choose_slot(unsigned hint) {
    std::size_t k = slots_.size();
    std::size_t s = hint % k;
    if constexpr (Robust) {
      // Fig. 5 enter: hop past slots acked-out by stalled threads.
      for (std::size_t tries = 0; tries < k; ++tries) {
        if (slots_.at(s).ack.load(std::memory_order_relaxed) <
            cfg_.ack_threshold) {
          return s;
        }
        s = (s + 1) % k;
      }
      // Every slot looks stalled: grow the directory (§4.3) if allowed.
      const std::size_t grown = slots_.grow();
      if (grown > k) return k + hint % (grown - k);
      // Not adaptive: degrade gracefully (the pre-§4.3 capped behavior).
    }
    return s;
  }

  node* enter(std::size_t slot) {
    return slots_.at(slot).head.faa_enter().ptr;
  }

  void leave(std::size_t slot, node* handle) {
    slot_rec& sl = slots_.at(slot);
    node* defer = nullptr;
    node* curr;
    node* next = nullptr;
    for (;;) {
      const head_val h = sl.head.snapshot();
      curr = h.ptr;
      if (curr != handle) {
        assert(curr != nullptr);
        next = next_of(curr);
      }
      if (h.ref == 1) {
        const auto res = sl.head.cas_leave_last(h);
        if (res == leave_last_result::retry) continue;
        if (res == leave_last_result::nulled && curr != nullptr) {
          // We cut the list: treat Curr as if it were a predecessor that
          // will never be displaced (Fig. 3 lines 16-17).
          node* refs = refs_of(curr);
          adjust(refs, adjs_of(refs), defer);
        }
        // claimed (LL/SC only): the claiming enter inherits the list and
        // the final Adjs responsibility.
        break;
      }
      if (sl.head.cas_leave_dec(h)) break;
    }
    if (curr != handle) {
      traverse(sl, next, handle, defer);
      if constexpr (Robust) {
        // Ack balance: a thread owes one acknowledgment per batch inserted
        // during its presence (that is what retire's FAA counted it for).
        // traverse covers (head, handle], whose size equals that count when
        // handle != Null (the handle node substitutes for the skipped
        // head). With a Null handle there is no substitute and traverse
        // acknowledges one batch too few — without this correction Acks on
        // *active* slots drift upward, enter() eventually misclassifies
        // them as stalled and hops threads into genuinely stalled slots,
        // un-staling their eras and unbounding memory.
        if (handle == nullptr) {
          // seq_cst: Ack accounting is read by enter()'s stall heuristic and
          // must stay ordered with the head CASes it mirrors.
          sl.ack.fetch_sub(1, std::memory_order_seq_cst);
        }
      }
    }
    free_deferred(defer);
  }

  node* trim(std::size_t slot, node* handle) {
    slot_rec& sl = slots_.at(slot);
    const head_val h = sl.head.snapshot();  // do not alter Head
    node* curr = h.ptr;
    if (curr != handle) {
      node* defer = nullptr;
      traverse(sl, next_of(curr), handle, defer);
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
      n->w1 = nullptr;  // becomes the REFS node / chain head
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

  /// Insert the finished batch into every slot with active threads
  /// (Fig. 3 retire, plus the Fig. 5 era/Ack extensions).
  void finalize_batch(batch_builder& b) {
    const std::size_t k = slots_.size();
    const std::uint64_t adjs = detail::adjs_for(k);
    // Pad with dummy carriers if the batch is short of k+1 nodes (explicit
    // flush, or the slot count grew since the last size check).
    while (b.count < k + 1) {
      node* dummy = new node;
      dummy->w2 = 1;  // dummy tag; REFS pointer OR-ed in below
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

    refs->w2 = adjs;                                 // per-batch Adjs (§4.3)
    refs->w0.store(0, std::memory_order_relaxed);    // NRef = 0
    for (node* c = refs->w1; c != nullptr; c = c->w1) {
      c->w2 = reinterpret_cast<std::uintptr_t>(refs) | (c->w2 & 1);
    }

    node* carrier = refs->w1;
    std::uint64_t empty = 0;
    bool do_adj = false;
    node* defer = nullptr;

    for (std::size_t i = 0; i < k; ++i) {
      slot_rec& sl = slots_.at(i);
      for (;;) {
        const head_val h = sl.head.snapshot();
        bool skip = h.ref == 0;
        if constexpr (Robust) {
          // Fig. 5 retire: also skip slots whose access era predates every
          // node in the batch — threads there can hold no references.
          // seq_cst: Dekker pairing with touch()'s era publication — a weaker
          // read could miss a reservation made just before this scan and skip
          // a slot whose thread still needs the batch.
          skip = skip || sl.access_era.load(std::memory_order_seq_cst) <
                             min_birth;
        }
        if (skip) {
          empty += adjs;
          do_adj = true;
          break;
        }
        assert(carrier != nullptr && "batch must hold >= k carriers");
        // Read the batch-internal next BEFORE publishing this carrier:
        // the moment cas_retire lands, concurrent leavers plus a later
        // retirer's REF #2 can drive the batch to zero and free it, so
        // carrier->w1 afterwards is a use-after-free read (same
        // read-before-releasing discipline as traverse()).
        node* const next_carrier = carrier->w1;
        set_next(carrier, h.ptr);
        if (!sl.head.cas_retire(h, carrier)) continue;
        if constexpr (Robust) {
          // seq_cst: Ack credit for the HRef snapshot just displaced; ordered
          // with the winning cas_retire so credits and debits balance.
          sl.ack.fetch_add(static_cast<std::int64_t>(h.ref),
                           std::memory_order_seq_cst);
        }
        if (h.ptr != nullptr) {
          // REF #2: adjust the displaced predecessor by its own batch's
          // Adjs plus the HRef snapshot.
          node* pred = refs_of(h.ptr);
          adjust(pred, adjs_of(pred) + h.ref, defer);
        }
        carrier = next_carrier;
        break;
      }
    }
    if (do_adj) adjust(refs, empty, defer);  // REF #3
    free_deferred(defer);
  }

  /// Fig. 3 adjust: wrapping add to the batch counter; the contributor
  /// that brings it to exactly zero owns deallocation.
  void adjust(node* refs, std::uint64_t val, node*& defer) {
    const std::uint64_t old =
        refs->w0.fetch_add(val, std::memory_order_acq_rel);
    if (old + val == 0) push_deferred(defer, refs);
  }

  /// Fig. 3 traverse: walk the retirement sublist acquired between enter
  /// and leave, dropping one reference per batch.
  void traverse(slot_rec& sl, node* start, node* handle, node*& defer) {
    std::int64_t batches = 0;
    node* curr = start;
    while (curr != nullptr) {
      node* nx = next_of(curr);  // read before releasing our reference
      node* refs = refs_of(curr);
      ++batches;
      const std::uint64_t old =
          refs->w0.fetch_add(~std::uint64_t{0}, std::memory_order_acq_rel);
      if (old == 1) push_deferred(defer, refs);
      if (curr == handle) break;
      curr = nx;
    }
    if constexpr (Robust) {
      if (batches != 0) {
        // seq_cst: Ack debit for the batches this traversal consumed; same
        // total-order argument as the credit in retire().
        sl.ack.fetch_sub(batches, std::memory_order_seq_cst);
      }
    } else {
      (void)sl;
    }
  }

  /// Deferred deallocation (§4.1): reaped batches are freed only after the
  /// traversal completes, recycling w0 of the REFS node as the list link.
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

  /// Fig. 5 touch: CAS-max of the slot's shared access era.
  std::uint64_t touch(slot_rec& sl, std::uint64_t era) {
    // seq_cst: CAS-max read of the shared reservation; must observe the
    // latest published era or the max could regress transiently.
    std::uint64_t access = sl.access_era.load(std::memory_order_seq_cst);
    while (access < era) {
      // seq_cst: era publication — pairs store-load with the retire-side
      // access_era scan, like every reservation publication in the repo.
      if (sl.access_era.compare_exchange_weak(access, era,
                                              std::memory_order_seq_cst)) {
        return era;
      }
    }
    return access;
  }

  const config cfg_;
  slot_directory<slot_rec> slots_;
  smr::core::era_clock alloc_era_{1};  // global era clock (Hyaline-S)
  smr::stats stats_;

  /// Per-(thread, domain) batch builders (core/thread_registry.hpp).
  smr::core::tls_cache<batch_builder> builders_;
};

/// Basic Hyaline with the packed single-word head (fastest on x86-64).
using domain = basic_domain<head_packed, false>;
/// Basic Hyaline with a true double-width (cmpxchg16b) head.
using domain_dw = basic_domain<head_dw, false>;
/// Basic Hyaline over the emulated LL/SC granule (§4.4 / Figure 7).
using domain_llsc = basic_domain<head_llsc, false>;

/// Robust Hyaline-S (birth eras + Acks; adaptive if cfg.max_slots > slots).
using domain_s = basic_domain<head_packed, true>;
using domain_s_dw = basic_domain<head_dw, true>;
using domain_s_llsc = basic_domain<head_llsc, true>;

}  // namespace hyaline
