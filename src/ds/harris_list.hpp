// Harris's ORIGINAL lock-free linked list [20] — as distinct from the
// Michael variant in ds/hm_list.hpp.
//
// The difference matters to the paper (§2.4): here a logically deleted
// (marked) node may linger in the list until a later search snips a whole
// marked *segment* with one CAS; nodes are retired only at snip time.
// Consequently:
//   - basic Hyaline / EBR / IBR-style schemes handle it fine (traversal
//     happens inside a critical section; snipped segments are retired as
//     a unit) — "Basic Hyaline can work with the original lock-free
//     linked list [20]";
//   - pointer-publication schemes (HP/HE) cannot traverse it safely (a
//     hazard on a marked node does not protect the rest of the segment),
//     and robust schemes lose their *bounded garbage* guarantee because
//     marked-but-unsnipped nodes are invisible to the reclamation scheme —
//     "its robust version requires a modification [26] that timely
//     retires deleted list nodes". Instantiate it with the epoch-style
//     schemes only.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/tagged_ptr.hpp"
#include "smr/domain.hpp"

namespace hyaline::ds {

template <class D>
class harris_list {
 public:
  static_assert(smr::Domain<D>,
                "harris_list requires an smr::Domain scheme");
  static_assert(!D::caps.pointer_publication && !D::caps.robust,
                "Harris's original list defers unlinking past logical "
                "deletion, so only guard-lifetime epoch-style schemes "
                "(Leaky, EBR, basic Hyaline, Hyaline-1) may traverse it; "
                "robust and pointer-publication schemes need Michael's "
                "timely-retirement variant (ds/hm_list.hpp, paper §2.4)");

  using domain_type = D;
  using guard = typename D::guard;

  explicit harris_list(D& dom) : dom_(dom) {
    // Sentinels simplify Harris's search invariants (head is never marked,
    // tail is never removed).
    head_ = new lnode{0, 0};
    tail_ = new lnode{~std::uint64_t{0}, 0};
    head_->next.store(tail_, std::memory_order_relaxed);
  }

  ~harris_list() {
    lnode* n = head_;
    while (n != nullptr) {
      lnode* nx = untag(n->next.load(std::memory_order_relaxed));
      delete n;
      n = nx;
    }
  }

  harris_list(const harris_list&) = delete;
  harris_list& operator=(const harris_list&) = delete;

  /// Insert key -> value; keys must be in (0, ~0) exclusive (sentinels).
  bool insert(guard& g, std::uint64_t key, std::uint64_t value) {
    lnode* fresh = nullptr;
    for (;;) {
      lnode* left;
      lnode* right = search(g, key, left);
      if (right != tail_ && right->key == key) {
        delete fresh;
        return false;
      }
      if (fresh == nullptr) {
        fresh = new lnode{key, value};
        dom_.on_alloc(fresh);
      }
      fresh->next.store(right, std::memory_order_relaxed);
      lnode* expected = right;
      // seq_cst: insert linearization point; the oracle assumes a total
      // order over link updates.
      if (left->next.compare_exchange_strong(expected, fresh,
                                             std::memory_order_seq_cst)) {
        return true;
      }
    }
  }

  /// Remove a key. The node is only *marked* here; physical unlinking (and
  /// retirement) happens in a later search's segment snip.
  bool remove(guard& g, std::uint64_t key) {
    for (;;) {
      lnode* left;
      lnode* right = search(g, key, left);
      if (right == tail_ || right->key != key) return false;
      lnode* right_next = right->next.load(std::memory_order_acquire);
      if (has_tag(right_next, 1)) continue;  // someone else is removing it
      lnode* expected = right_next;
      // seq_cst: logical-delete mark is the remove linearization point.
      if (right->next.compare_exchange_strong(expected,
                                              with_tag(right_next, 1),
                                              std::memory_order_seq_cst)) {
        // Best effort immediate snip of just this node; otherwise a later
        // search retires it as part of a segment.
        expected = right;
        // seq_cst: immediate snip; ordered before the retire so scanners
        // see the node unreachable once retired.
        if (left->next.compare_exchange_strong(expected, right_next,
                                               std::memory_order_seq_cst)) {
          g.retire(right);
        } else {
          lnode* l2;
          search(g, key, l2);
        }
        return true;
      }
    }
  }

  bool contains(guard& g, std::uint64_t key) {
    lnode* left;
    lnode* right = search(g, key, left);
    return right != tail_ && right->key == key;
  }

  bool get(guard& g, std::uint64_t key, std::uint64_t& out) {
    lnode* left;
    lnode* right = search(g, key, left);
    if (right == tail_ || right->key != key) return false;
    out = right->value;
    return true;
  }

  std::size_t unsafe_size() const {
    std::size_t n = 0;
    lnode* c = untag(head_->next.load(std::memory_order_relaxed));
    while (c != tail_) {
      if (!has_tag(c->next.load(std::memory_order_relaxed), 1)) ++n;
      c = untag(c->next.load(std::memory_order_relaxed));
    }
    return n;
  }

 private:
  struct lnode : D::node {
    std::uint64_t key;
    std::uint64_t value;
    std::atomic<lnode*> next{nullptr};

    lnode(std::uint64_t k, std::uint64_t v) : key(k), value(v) {}
  };

  /// Harris search: find adjacent (left, right) with left unmarked,
  /// left->key < key <= right->key, snipping any marked segment between
  /// them and retiring the snipped nodes as a unit.
  lnode* search(guard& g, std::uint64_t key, lnode*& left) {
  retry:
    for (;;) {
      lnode* t = head_;
      // Guard-lifetime schemes only (see static_assert): protect() is the
      // zero-cost wrapper, so handles are unwrapped immediately.
      // Marked-edge safety: t_next stays raw and is only dereferenced
      // through untag() below.
      lnode* t_next = g.protect(head_->next).get();
      lnode* left_next = t_next;
      left = head_;
      // Phase 1: advance until right = first unmarked node with key >= key.
      for (;;) {
        if (!has_tag(t_next, 1)) {
          left = t;
          left_next = t_next;
        }
        t = untag(t_next);
        if (t == tail_) break;
        // Tagged t_next (t is marked) is checked, then untagged above.
        t_next = g.protect(t->next).get();
        if (has_tag(t_next, 1) || t->key < key) continue;
        break;
      }
      lnode* right = t;
      // Phase 2: no marked segment in between?
      if (left_next == right) {
        if (right != tail_ &&
            has_tag(right->next.load(std::memory_order_acquire), 1)) {
          goto retry;  // right got marked under us
        }
        return right;
      }
      // Phase 3: snip the whole marked segment [left_next, right) and
      // retire it — the retirement pattern the paper contrasts with
      // Michael's per-node timely retire.
      lnode* expected = left_next;
      // seq_cst: segment snip unlinking [left_next, right); ordered
      // before the segment's retires below.
      if (left->next.compare_exchange_strong(expected, right,
                                             std::memory_order_seq_cst)) {
        lnode* n = left_next;
        while (n != right) {
          lnode* nx = untag(n->next.load(std::memory_order_acquire));
          g.retire(n);
          n = nx;
        }
        if (right != tail_ &&
            has_tag(right->next.load(std::memory_order_acquire), 1)) {
          goto retry;
        }
        return right;
      }
    }
  }

  D& dom_;
  lnode* head_;
  lnode* tail_;
};

}  // namespace hyaline::ds
