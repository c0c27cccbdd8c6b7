#pragma once

// Spans and epoch stamps kept in one anonymous MAP_SHARED region, created
// before the first fork. Every process of a run (harness, op workers, rank
// processes) appends to the same log, so spans recorded inside a forked
// rank land next to the harness's and rank 0's per-epoch stamps reach the
// harness without a pipe. Timestamps are CLOCK_MONOTONIC (steady_clock),
// which all processes of the machine share.

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the shared monotonic clock.
[[nodiscard]] std::int64_t now_ns();

struct SpanRecord {
  char name[48] = {};
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;   // 0 while open or when the process died
  std::int32_t id = 0;       // 1-based index into the log
  std::int32_t parent = 0;   // 0 = root
  std::int32_t pid = 0;
  std::int32_t rank = -1;    // rank process that recorded it, -1 = harness
  double work = 0.0;         // flops or bytes the call did (0 = none)
};

/// Maps the region. Call once, before any fork; `tracing` turns spans on
/// (epoch stamps are always kept, the end-to-end metrics need them).
void init_shared_log(bool tracing);
[[nodiscard]] bool tracing();
/// Turn span recording on or off for this process and the ones it forks.
void set_tracing(bool on);

/// Epoch stamps: rank 0's observer appends one per finished epoch.
void clear_stamps();
void add_stamp(std::int64_t t_ns);
[[nodiscard]] std::vector<std::int64_t> stamps();

/// Set in each rank process, so its spans carry the rank.
void set_span_rank(int rank);

/// Record a finished span whose ends were stamped elsewhere (the epoch
/// spans rank 0's observer derives from consecutive stamps). Its parent is
/// the innermost open span of the calling process.
void record_span(std::string_view name, std::int64_t start_ns,
                 std::int64_t end_ns);

/// Snapshot of every span recorded so far.
[[nodiscard]] std::vector<SpanRecord> spans();

/// RAII span around one call into a layer. A no-op when tracing is off.
/// The innermost open span of the process is the parent; a forked child
/// inherits its parent process's open span as its own parent.
class Span {
 public:
  explicit Span(std::string_view name, double work = 0.0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t id_ = 0;
  std::int32_t saved_parent_ = 0;
};

} // namespace perfbench
