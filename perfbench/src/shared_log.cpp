#include "shared_log.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::int32_t kMaxSpans = 1 << 16;
constexpr std::int32_t kMaxStamps = 1 << 14;

struct Region {
  std::atomic<std::int32_t> n_spans;
  std::atomic<std::int32_t> n_stamps;
  SpanRecord spans[kMaxSpans];
  std::int64_t stamps[kMaxStamps];
};
static_assert(std::atomic<std::int32_t>::is_always_lock_free,
              "cross-process counters must be lock-free");

Region* g_region = nullptr;
bool g_tracing = false;
int g_rank = -1;
std::int32_t g_current = 0;  // innermost open span of this process

Region& region() {
  if (g_region == nullptr) throw std::logic_error("shared log not mapped");
  return *g_region;
}

} // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void init_shared_log(bool tracing) {
  void* p = ::mmap(nullptr, sizeof(Region), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("mmap of the shared log failed");
  g_region = new (p) Region{};
  g_tracing = tracing;
}

bool tracing() { return g_tracing; }

void set_tracing(bool on) { g_tracing = on; }

void clear_stamps() { region().n_stamps.store(0); }

void add_stamp(std::int64_t t_ns) {
  const std::int32_t i = region().n_stamps.fetch_add(1);
  if (i < kMaxStamps) region().stamps[i] = t_ns;
}

std::vector<std::int64_t> stamps() {
  const std::int32_t n = std::min(region().n_stamps.load(), kMaxStamps);
  return {region().stamps, region().stamps + n};
}

void set_span_rank(int rank) { g_rank = rank; }

std::vector<SpanRecord> spans() {
  const std::int32_t n = std::min(region().n_spans.load(), kMaxSpans);
  return {region().spans, region().spans + n};
}

namespace {

/// Claim the next slot and fill everything but the end time; nullptr once
/// the log is full.
SpanRecord* open_record(std::string_view name, double work) {
  const std::int32_t i = region().n_spans.fetch_add(1);
  if (i >= kMaxSpans) return nullptr;
  SpanRecord& r = region().spans[i];
  const std::size_t len = std::min(name.size(), sizeof(r.name) - 1);
  std::memcpy(r.name, name.data(), len);
  r.id = i + 1;
  r.parent = g_current;
  r.pid = static_cast<std::int32_t>(::getpid());
  r.rank = g_rank;
  r.work = work;
  return &r;
}

} // namespace

void record_span(std::string_view name, std::int64_t start_ns,
                 std::int64_t end_ns) {
  if (!g_tracing) return;
  if (SpanRecord* r = open_record(name, 0.0)) {
    r->start_ns = start_ns;
    r->end_ns = end_ns;
  }
}

Span::Span(std::string_view name, double work) {
  if (!g_tracing) return;
  SpanRecord* rec = open_record(name, work);
  if (rec == nullptr) return;
  SpanRecord& r = *rec;
  id_ = r.id;
  saved_parent_ = g_current;
  g_current = id_;
  r.start_ns = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  region().spans[id_ - 1].end_ns = now_ns();
  g_current = saved_parent_;
}

} // namespace perfbench
