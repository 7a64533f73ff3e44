#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "check/history.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <pthread.h>
#define HYALINE_HAS_PTHREAD_NAMES 1
#endif

namespace hyaline::obs {

namespace {

constexpr std::size_t kDefaultCapacity = 8192;  // 192 KiB per thread

/// One thread's ring. Owned by the collector (stable address, survives
/// thread exit); written only by its owner thread, read by snapshot /
/// export after the owner quiesces or joins.
struct ring {
  std::vector<record> buf;  // size = capacity (power of two)
  std::uint64_t head = 0;   // total records ever emitted
  unsigned tid = 0;
  char name[32] = {};
};

struct collector {
  std::mutex mu;
  std::vector<std::unique_ptr<ring>> rings;
  std::size_t capacity = kDefaultCapacity;
};

collector& the_collector() {
  static collector c;
  return c;
}

thread_local ring* tls_ring = nullptr;
thread_local char tls_name[32] = {};

/// Calibrated once per process, on the first enable. With the
/// steady_clock fallback ticks already are nanoseconds (ratio 1.0).
double& tick_ratio_storage() {
  static double r = 1.0;
  return r;
}

void calibrate_clock() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (!check::detail::use_tsc()) return;  // ratio stays 1.0
    // Two-point measurement against steady_clock over a short sleep; a
    // few ms is enough for three significant digits, which is plenty for
    // microsecond-resolution trace export.
    const std::uint64_t t0 = __builtin_ia32_rdtsc();
    const std::uint64_t n0 = check::detail::steady_ns();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::uint64_t t1 = __builtin_ia32_rdtsc();
    const std::uint64_t n1 = check::detail::steady_ns();
    if (t1 > t0 && n1 > n0) {
      tick_ratio_storage() =
          static_cast<double>(t1 - t0) / static_cast<double>(n1 - n0);
    }
  });
}

ring* register_ring() {
  collector& c = the_collector();
  auto r = std::make_unique<ring>();
  {
    std::lock_guard<std::mutex> lk(c.mu);
    r->buf.resize(c.capacity);
    r->tid = static_cast<unsigned>(c.rings.size());
    if (tls_name[0] != '\0') {
      std::snprintf(r->name, sizeof(r->name), "%s", tls_name);
    } else {
#ifdef HYALINE_HAS_PTHREAD_NAMES
      pthread_getname_np(pthread_self(), r->name, sizeof(r->name));
#endif
    }
    c.rings.push_back(std::move(r));
    tls_ring = c.rings.back().get();
  }
  return tls_ring;
}

void set_flag(std::uint32_t bit, bool on) {
  if (on) {
    calibrate_clock();
    detail::g_flags.fetch_or(bit, std::memory_order_relaxed);
  } else {
    detail::g_flags.fetch_and(~bit, std::memory_order_relaxed);
  }
}

/// JSON string escaping for thread names (conservative ASCII subset).
void write_escaped(std::FILE* f, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char ch = static_cast<unsigned char>(*s);
    if (ch == '"' || ch == '\\') {
      std::fputc('\\', f);
      std::fputc(ch, f);
    } else if (ch < 0x20 || ch > 0x7e) {
      std::fprintf(f, "\\u%04x", ch);
    } else {
      std::fputc(ch, f);
    }
  }
}

}  // namespace

namespace detail {

void emit_slow(event ev, std::uint64_t arg) noexcept {
  ring* r = tls_ring;
  if (r == nullptr) r = register_ring();
  record& slot = r->buf[r->head & (r->buf.size() - 1)];
  slot.ts = now_ticks();
  slot.arg = arg;
  slot.ev = static_cast<std::uint32_t>(ev);
  ++r->head;
}

}  // namespace detail

std::uint64_t now_ticks() noexcept {
  if (check::detail::use_tsc()) return __builtin_ia32_rdtsc();
  return check::detail::steady_ns();
}

std::uint64_t ticks_to_ns(std::uint64_t ticks) noexcept {
  const double r = tick_ratio_storage();
  if (r == 1.0) return ticks;
  return static_cast<std::uint64_t>(static_cast<double>(ticks) / r);
}

void set_tracing(bool on) { set_flag(detail::kTraceBit, on); }

void set_lag_tracking(bool on) { set_flag(detail::kLagBit, on); }

void set_ring_capacity(std::size_t records) {
  collector& c = the_collector();
  std::lock_guard<std::mutex> lk(c.mu);
  std::size_t cap = 1;
  while (cap < records) cap <<= 1;
  c.capacity = cap;
}

void reset() {
  detail::g_flags.store(0, std::memory_order_relaxed);
  collector& c = the_collector();
  std::lock_guard<std::mutex> lk(c.mu);
  // Rings must not be destroyed — exited threads' TLS pointers are gone,
  // but a *live* thread still caches its ring pointer. Clearing in place
  // keeps every cached pointer valid.
  for (auto& r : c.rings) r->head = 0;
  tls_ring = nullptr;  // calling thread re-registers on next emit
}

void name_thread(const char* name) {
  std::snprintf(tls_name, sizeof(tls_name), "%s", name);
#ifdef HYALINE_HAS_PTHREAD_NAMES
  char short_name[16];  // pthread_setname_np caps names at 15 chars + NUL
  std::snprintf(short_name, sizeof(short_name), "%s", name);
#if defined(__APPLE__)
  pthread_setname_np(short_name);
#else
  pthread_setname_np(pthread_self(), short_name);
#endif
#endif
  if (tls_ring != nullptr) {
    std::snprintf(tls_ring->name, sizeof(tls_ring->name), "%s", name);
  }
}

std::vector<thread_trace> snapshot() {
  collector& c = the_collector();
  std::lock_guard<std::mutex> lk(c.mu);
  std::vector<thread_trace> out;
  out.reserve(c.rings.size());
  for (const auto& r : c.rings) {
    thread_trace t;
    t.tid = r->tid;
    t.name = r->name;
    t.emitted = r->head;
    const std::uint64_t cap = r->buf.size();
    t.dropped = r->head > cap ? r->head - cap : 0;
    const std::uint64_t n = r->head < cap ? r->head : cap;
    t.records.reserve(n);
    // Oldest-first: the ring index of the oldest surviving record is
    // head - n (mod capacity).
    for (std::uint64_t i = r->head - n; i < r->head; ++i) {
      t.records.push_back(r->buf[i & (cap - 1)]);
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<record> merged_records() {
  std::vector<record> all;
  for (const thread_trace& t : snapshot()) {
    all.insert(all.end(), t.records.begin(), t.records.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const record& a, const record& b) { return a.ts < b.ts; });
  return all;
}

clock_info clock() {
  calibrate_clock();
  return {check::detail::use_tsc(), tick_ratio_storage()};
}

const char* event_name(event ev) {
  switch (ev) {
    case event::guard_enter: return "guard";
    case event::guard_exit: return "guard";
    case event::retire: return "retire";
    case event::scan_begin: return "scan";
    case event::scan_end: return "scan";
    case event::batch_finalize: return "batch_finalize";
    case event::free_node: return "free";
    case event::era_advance: return "era_advance";
    case event::slab_remote_drain: return "slab_remote_drain";
    case event::stall_begin: return "stall";
    case event::stall_end: return "stall";
    case event::count_: break;
  }
  return "unknown";
}

bool write_chrome_trace(const std::string& path, std::string* err) {
  const std::vector<thread_trace> rings = snapshot();
  const clock_info ci = clock();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path + " for writing";
    return false;
  }

  // Global time origin: the earliest surviving timestamp.
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const thread_trace& t : rings) {
    for (const record& r : t.records) t0 = std::min(t0, r.ts);
  }
  if (t0 == ~std::uint64_t{0}) t0 = 0;
  const auto to_us = [&](std::uint64_t ts) {
    return static_cast<double>(ticks_to_ns(ts - t0)) / 1000.0;
  };

  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  const auto comma = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };

  // Metadata: process name plus one thread_name record per ring.
  comma();
  std::fputs(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"hyaline\"}}",
      f);
  for (const thread_trace& t : rings) {
    comma();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"",
                 t.tid);
    write_escaped(f, t.name.empty() ? "worker" : t.name.c_str());
    std::fputs("\"}}", f);
  }

  for (const thread_trace& t : rings) {
    // Pairing depth per duration kind, so an end whose begin was
    // overwritten degrades to an instant instead of corrupting nesting.
    int depth_guard = 0;
    int depth_scan = 0;
    int depth_stall = 0;
    const auto depth_of = [&](event e) -> int* {
      switch (e) {
        case event::guard_enter:
        case event::guard_exit: return &depth_guard;
        case event::scan_begin:
        case event::scan_end: return &depth_scan;
        case event::stall_begin:
        case event::stall_end: return &depth_stall;
        default: return nullptr;
      }
    };
    for (const record& r : t.records) {
      const event e = static_cast<event>(r.ev);
      const char* name = event_name(e);
      const bool is_begin = e == event::guard_enter ||
                            e == event::scan_begin || e == event::stall_begin;
      const bool is_end = e == event::guard_exit || e == event::scan_end ||
                          e == event::stall_end;
      comma();
      if (is_begin) {
        ++*depth_of(e);
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,"
                     "\"tid\":%u,\"args\":{\"arg\":%llu}}",
                     name, to_us(r.ts), t.tid,
                     static_cast<unsigned long long>(r.arg));
      } else if (is_end) {
        int* depth = depth_of(e);
        if (*depth > 0) {
          --*depth;
          std::fprintf(f,
                       "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,"
                       "\"tid\":%u,\"args\":{\"arg\":%llu}}",
                       name, to_us(r.ts), t.tid,
                       static_cast<unsigned long long>(r.arg));
        } else {
          // Orphan end (its begin was overwritten): degrade to instant.
          std::fprintf(f,
                       "{\"name\":\"%s_end\",\"ph\":\"i\",\"s\":\"t\","
                       "\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                       name, to_us(r.ts), t.tid);
        }
      } else {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                     "\"pid\":1,\"tid\":%u,\"args\":{\"arg\":%llu}}",
                     name, to_us(r.ts), t.tid,
                     static_cast<unsigned long long>(r.arg));
      }
    }
    // Close slices left open at snapshot time so Perfetto renders them.
    std::uint64_t last_ts = t.records.empty() ? t0 : t.records.back().ts;
    for (int* depth : {&depth_guard, &depth_scan, &depth_stall}) {
      while (*depth > 0) {
        --*depth;
        comma();
        std::fprintf(f, "{\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                     to_us(last_ts), t.tid);
      }
    }
  }

  std::fputs("\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{", f);
  std::fprintf(f, "\"clock\":\"%s\",\"ticks_per_ns\":%.6f,\"threads\":[",
               ci.tsc ? "tsc" : "steady", ci.ticks_per_ns);
  for (std::size_t i = 0; i < rings.size(); ++i) {
    const thread_trace& t = rings[i];
    std::fprintf(f, "%s{\"tid\":%u,\"name\":\"", i == 0 ? "" : ",", t.tid);
    write_escaped(f, t.name.c_str());
    std::fprintf(f, "\",\"emitted\":%llu,\"dropped\":%llu}",
                 static_cast<unsigned long long>(t.emitted),
                 static_cast<unsigned long long>(t.dropped));
  }
  std::fputs("]}}\n", f);

  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  if (!ok && err != nullptr) *err = "write failed for " + path;
  return ok;
}

}  // namespace hyaline::obs
