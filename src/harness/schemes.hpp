// Scheme registry: construction parameters, display names, and the
// scheme×structure run matrix used by the figure benchmarks.
//
// Every benchmark binary iterates the same nine schemes the paper plots:
// Leaky, Epoch (EBR), HP, HE, IBR, Hyaline, Hyaline-1, Hyaline-S,
// Hyaline-1S. HP and HE are skipped for the Bonsai tree, as in the paper
// (snapshot traversal cannot be pointer-protected).
#pragma once

#include <bit>
#include <memory>
#include <string>

#include "smr/ebr.hpp"
#include "smr/hazard_eras.hpp"
#include "smr/hazard_pointers.hpp"
#include "smr/hyaline.hpp"
#include "smr/hyaline1.hpp"
#include "smr/ibr.hpp"
#include "smr/immediate.hpp"
#include "smr/leaky.hpp"

namespace hyaline::harness {

/// Knobs shared by all scheme factories for one benchmark data point.
struct scheme_params {
  unsigned max_threads = 8;   ///< active + stalled threads (the registry
                              ///< runners add headroom for the prefilling
                              ///< thread's transparent tid lease)
  std::size_t slots = 0;      ///< Hyaline k (0 = bit_ceil(max_threads),
                              ///< capped at 128 like the paper's evaluation)
  std::size_t max_slots = 0;  ///< Hyaline-S adaptive growth cap (0 = off)
  std::size_t batch_min = 64;
  std::int64_t ack_threshold = 8192;  ///< Hyaline-S stalled-slot detection
};

inline std::size_t default_slots(const scheme_params& p) {
  if (p.slots != 0) return p.slots;
  std::size_t k = std::bit_ceil(std::size_t{p.max_threads});
  if (k > 128) k = 128;  // paper §6: k capped at 128
  return k;
}

template <class D>
struct scheme_traits;

template <>
struct scheme_traits<smr::leaky_domain> {
  static constexpr const char* name = "Leaky";
  static std::unique_ptr<smr::leaky_domain> make(const scheme_params& p) {
    return std::make_unique<smr::leaky_domain>(p.max_threads);
  }
};

template <>
struct scheme_traits<smr::immediate_domain> {
  static constexpr const char* name = "Mutex";
  static std::unique_ptr<smr::immediate_domain> make(const scheme_params& p) {
    return std::make_unique<smr::immediate_domain>(p.max_threads);
  }
};

template <>
struct scheme_traits<smr::ebr_domain> {
  static constexpr const char* name = "Epoch";
  static std::unique_ptr<smr::ebr_domain> make(const scheme_params& p) {
    return std::make_unique<smr::ebr_domain>(
        smr::ebr_config{.max_threads = p.max_threads});
  }
};

template <>
struct scheme_traits<smr::hp_domain> {
  static constexpr const char* name = "HP";
  static std::unique_ptr<smr::hp_domain> make(const scheme_params& p) {
    return std::make_unique<smr::hp_domain>(
        smr::hp_config{.max_threads = p.max_threads});
  }
};

template <>
struct scheme_traits<smr::he_domain> {
  static constexpr const char* name = "HE";
  static std::unique_ptr<smr::he_domain> make(const scheme_params& p) {
    return std::make_unique<smr::he_domain>(
        smr::he_config{.max_threads = p.max_threads});
  }
};

template <>
struct scheme_traits<smr::ibr_domain> {
  static constexpr const char* name = "IBR";
  static std::unique_ptr<smr::ibr_domain> make(const scheme_params& p) {
    return std::make_unique<smr::ibr_domain>(
        smr::ibr_config{.max_threads = p.max_threads});
  }
};

template <>
struct scheme_traits<domain> {
  static constexpr const char* name = "Hyaline";
  static std::unique_ptr<domain> make(const scheme_params& p) {
    return std::make_unique<domain>(config{.slots = default_slots(p),
                                           .batch_min = p.batch_min});
  }
};

template <>
struct scheme_traits<domain_dw> {
  static constexpr const char* name = "Hyaline(dwcas)";
  static std::unique_ptr<domain_dw> make(const scheme_params& p) {
    return std::make_unique<domain_dw>(config{.slots = default_slots(p),
                                              .batch_min = p.batch_min});
  }
};

template <>
struct scheme_traits<domain_llsc> {
  static constexpr const char* name = "Hyaline(llsc)";
  static std::unique_ptr<domain_llsc> make(const scheme_params& p) {
    return std::make_unique<domain_llsc>(
        config{.slots = default_slots(p), .batch_min = p.batch_min});
  }
};

template <>
struct scheme_traits<domain_s> {
  static constexpr const char* name = "Hyaline-S";
  static std::unique_ptr<domain_s> make(const scheme_params& p) {
    return std::make_unique<domain_s>(config{.slots = default_slots(p),
                                             .max_slots = p.max_slots,
                                             .batch_min = p.batch_min,
                                             .ack_threshold = p.ack_threshold});
  }
};

template <>
struct scheme_traits<domain_s_llsc> {
  static constexpr const char* name = "Hyaline-S(llsc)";
  static std::unique_ptr<domain_s_llsc> make(const scheme_params& p) {
    return std::make_unique<domain_s_llsc>(
        config{.slots = default_slots(p),
               .max_slots = p.max_slots,
               .batch_min = p.batch_min,
               .ack_threshold = p.ack_threshold});
  }
};

template <>
struct scheme_traits<domain_1> {
  static constexpr const char* name = "Hyaline-1";
  static std::unique_ptr<domain_1> make(const scheme_params& p) {
    return std::make_unique<domain_1>(
        config1{.max_threads = p.max_threads, .batch_min = p.batch_min});
  }
};

template <>
struct scheme_traits<domain_1s> {
  static constexpr const char* name = "Hyaline-1S";
  static std::unique_ptr<domain_1s> make(const scheme_params& p) {
    return std::make_unique<domain_1s>(
        config1{.max_threads = p.max_threads, .batch_min = p.batch_min});
  }
};

}  // namespace hyaline::harness
