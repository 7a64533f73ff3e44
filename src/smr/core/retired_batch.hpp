// Retired-node containers shared by the SMR schemes.
//
// Three shapes cover every baseline:
//   - retired_list:  owner-private LIFO with the adaptive rescan point used
//     by HP, HE and IBR (scan only after the list grows a full threshold
//     beyond what the previous scan could not free, keeping retire
//     amortized O(threads) even when most of the list is pinned);
//   - limbo_queue:   owner-private FIFO ordered by retire epoch (EBR);
//   - treiber_stack: concurrent LIFO (Leaky parks nodes here until drain).
//
// All are intrusive over the scheme's node type, which must expose a
// `Node* next` member.
//
// Observability: the two scanned containers can be attached to a domain's
// `smr::domain_counters` (attach()); scans and rearms are then counted
// here, in the primitive, so every scheme built on them reports them
// uniformly. Scan passes also emit
// scan_begin/scan_end trace events (obs/trace.hpp) — both seams cost one
// relaxed load + predicted branch when observability is off.
#pragma once

#include <atomic>
#include <cstddef>

#include "obs/trace.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr::core {

/// Owner-thread-private retired list with an adaptive scan threshold.
template <class Node>
class retired_list {
 public:
  /// Push a node; returns true when the adaptive threshold is reached and
  /// the caller should scan (then `rearm`).
  bool push(Node* n, std::size_t threshold) {
    n->next = head_;
    head_ = n;
    if (scan_at_ == 0) scan_at_ = threshold;
    return ++count_ >= scan_at_;
  }

  /// Partition pass: frees every node satisfying `can_free` via `do_free`,
  /// keeps the rest (list order is reversed, which is irrelevant — kept
  /// nodes are re-examined wholesale on the next scan).
  template <class CanFree, class DoFree>
  void scan(CanFree&& can_free, DoFree&& do_free) {
    obs::emit(obs::event::scan_begin, count_);
    if (ctrs_ != nullptr) ctrs_->on_scan();
    Node* keep = nullptr;
    std::size_t kept = 0;
    std::size_t freed = 0;
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = n->next;
      if (can_free(n)) {
        do_free(n);
        ++freed;
      } else {
        n->next = keep;
        keep = n;
        ++kept;
      }
      n = nx;
    }
    head_ = keep;
    count_ = kept;
    obs::emit(obs::event::scan_end, freed);
  }

  /// Geometric growth of the rescan point: the next scan happens only after
  /// the list doubles (plus a floor of `threshold`), so nodes pinned by
  /// long-lived reservations are not rescanned on a fixed period.
  void rearm(std::size_t threshold) {
    scan_at_ = 2 * count_ + threshold;
    if (ctrs_ != nullptr) ctrs_->on_rearm();
  }

  /// Attach the owning domain's event counters (see smr/stats.hpp).
  void attach(domain_counters* c) { ctrs_ = c; }

  std::size_t size() const { return count_; }
  bool empty() const { return head_ == nullptr; }

 private:
  Node* head_ = nullptr;
  std::size_t count_ = 0;
  std::size_t scan_at_ = 0;  // adaptive: kept + threshold after each scan
  domain_counters* ctrs_ = nullptr;
};

/// Owner-thread-private FIFO limbo list (EBR: FIFO by retire epoch, so
/// reclamation pops from the head while the head is old enough).
template <class Node>
class limbo_queue {
 public:
  void push_back(Node* n) {
    n->next = nullptr;
    if (tail_ == nullptr) {
      head_ = tail_ = n;
    } else {
      tail_->next = n;
      tail_ = n;
    }
  }

  /// Pop-and-free from the head while `ready(head)` holds. A pass that
  /// frees at least one node counts as a scan (EBR's limbo reclamation is
  /// this loop; an empty-handed probe is not a reclamation pass).
  template <class Ready, class DoFree>
  void reclaim_ready(Ready&& ready, DoFree&& do_free) {
    if (head_ == nullptr || !ready(head_)) return;
    obs::emit(obs::event::scan_begin, 0);
    if (ctrs_ != nullptr) ctrs_->on_scan();
    std::size_t freed = 0;
    while (head_ != nullptr && ready(head_)) {
      Node* n = head_;
      head_ = n->next;
      if (head_ == nullptr) tail_ = nullptr;
      do_free(n);
      ++freed;
    }
    obs::emit(obs::event::scan_end, freed);
  }

  /// Attach the owning domain's event counters (see smr/stats.hpp).
  void attach(domain_counters* c) { ctrs_ = c; }

  bool empty() const { return head_ == nullptr; }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  domain_counters* ctrs_ = nullptr;
};

/// Concurrent LIFO (Treiber) stack of retired nodes.
template <class Node>
class treiber_stack {
 public:
  void push(Node* n) {
    Node* head = head_.load(std::memory_order_relaxed);
    do {
      n->next = head;
    } while (!head_.compare_exchange_weak(head, n, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  /// Detach the whole stack (quiescent drain).
  Node* take_all() { return head_.exchange(nullptr, std::memory_order_acquire); }

 private:
  std::atomic<Node*> head_{nullptr};
};

}  // namespace hyaline::smr::core
