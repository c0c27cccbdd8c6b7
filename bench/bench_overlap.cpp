// Communication–computation overlap: blocking vs stream vs chunked-stream
// boundary exchange on the Figure 4 throughput configs, at partition counts
// {2, 4, 8, 16}. All three schedules execute the identical fp instruction
// stream (per-peer folds in fixed peer order, row-chunked F1 bit-exact by
// row independence — docs/ARCHITECTURE.md §4), so losses are bit-identical
// and the interesting columns are the simulated epoch times, the hidden
// exchange time, and the per-peer tail:
//  - "stream" hides the exchange behind the halo-independent compute phase
//    and folds each peer the moment it lands, so early folds hide the
//    transfers of the peers still in flight;
//  - "chunked" is stream with F1 driven in row chunks
//    (comm.inner_chunk_rows) and the completion set polled between
//    chunks, so folds start mid-F1 instead of queueing until it returns;
//  - "tail" is EpochBreakdown::comm_tail_s — the slowest single peer
//    message per exchange, summed over the epoch: the serialization a
//    blocking wait cannot touch.
// Enforced gates (mailbox, simulated comm): losses bit-identical across
// the three schedules on every row, and at m >= 8 partitions stream and
// chunked stream each hide a positive share of the exchange on every row.
// Blocking's overlap_s is 0 by construction, so a schedule that regresses
// to blocking (hiding nothing) fails; how much each hides is a measured
// min-over-ranks statistic that wobbles with scheduler noise, so the gate
// does not compare the two against each other.
// Expected shape: epoch time blocking >= stream wherever there is boundary
// traffic.

#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace {

using namespace bnsgcn;

struct ModeRow {
  api::RunReport report;
  double overlap_s = 0.0;
};

int g_shape_failures = 0;

/// Exact bitwise equality of two loss curves. The schedule is
/// deterministic, so "equal" means equal down to the last mantissa bit —
/// compared through the bit pattern, not operator== on doubles: bitwise
/// equality is NaN-safe (a diverged run that produced the same NaN on two
/// schedules should not count as a divergence between them) and says
/// precisely what the parity claim says. The fuzz harness
/// (tests/test_schedule_fuzz.cpp) asserts the same predicate.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

void run_dataset(const char* title, const char* preset, double scale,
                 const std::vector<PartId>& parts,
                 const api::BenchOptions& opts, bench::ReportSink& sink) {
  const auto pr = bench::load_preset(preset, scale, opts);
  const Dataset& ds = pr.ds;
  std::printf("\n--- %s (n=%d, avg deg %.1f) ---\n", title, ds.num_nodes(),
              ds.graph.average_degree());
  // "hidden" columns compare each pipelined run against its own
  // blocking-equivalent epoch (total_s + overlap_s): all modes execute the
  // identical instruction stream, so that difference is exactly the hidden
  // exchange time, free of run-to-run compute-measurement noise. The
  // separately measured blocking run is printed as context.
  std::printf("%-14s %10s %9s %9s %7s %7s %9s\n", "config", "block s/ep",
              "strm s/ep", "chnk s/ep", "strm%", "chnk%", "tail s/ep");

  api::RunConfig base = pr.config(api::Method::kBns);
  base.trainer.epochs = opts.epochs_or(5); // throughput measurement only
  base.comm.transport = opts.transport;
  // The hidden-time gates below read simulated (CostModel) times, which
  // only the mailbox fabric produces; socket runs report measured
  // wall-clock spans, not gated here.
  const bool simulated = opts.transport == comm::TransportKind::kMailbox;

  // The chunked column streams with F1 cut into 128-row chunks — small
  // enough that several polls land inside one layer at these scales, large
  // enough that the per-chunk staging stays amortized.
  const struct {
    core::OverlapMode mode;
    NodeId chunk;
    const char* name;
  } kModes[] = {{core::OverlapMode::kBlocking, 0, "blocking"},
                {core::OverlapMode::kStream, 0, "stream"},
                {core::OverlapMode::kStream, 128, "chunked"}};
  constexpr int kNumModes = 3;

  for (const PartId m : parts) {
    base.partition.nparts = m; // partitioned once, cached for all 6 runs
    for (const float p : {1.0f, 0.1f}) {
      auto cfg = base;
      cfg.trainer.sample_rate = p;

      ModeRow rows[kNumModes];
      for (int k = 0; k < kNumModes; ++k) {
        cfg.comm.overlap = kModes[k].mode;
        cfg.comm.inner_chunk_rows = kModes[k].chunk;
        rows[k].report = sink.run_streamed(
            bench::label("%s m=%d p=%.2f %s", preset, m, p, kModes[k].name),
            ds, cfg);
        rows[k].overlap_s = rows[k].report.overlap_saved_s();
        // Every mode after the first must be a cache hit on the same
        // partition — the three-way comparison is only honest when all
        // modes train on identical local graphs.
        if (k > 0 && rows[k].report.partition_cache.misses != 0) {
          std::printf("  !! partition cache miss on a repeat mode\n");
          ++g_shape_failures;
        }
      }

      const auto& strm = rows[1];
      const auto& chnk = rows[2];
      std::printf("%-14s %10.4f %9.4f %9.4f %6.1f%% %6.1f%% %9.4f\n",
                  bench::label("m=%d p=%.2f", m, p).c_str(),
                  rows[0].report.epoch_time_s(), strm.report.epoch_time_s(),
                  chnk.report.epoch_time_s(),
                  100.0 * strm.report.overlap_fraction(),
                  100.0 * chnk.report.overlap_fraction(),
                  chnk.report.mean_epoch().comm_tail_s);

      // Shape checks. Bit-identical losses across modes and chunkings are
      // pinned by tests/test_overlap.cpp and the schedule-fuzz harness;
      // here we gate on the same bitwise predicate, then assert that at
      // m >= 8 partitions (the Fig. 4 regime this bench exists for) both
      // pipelined schedules hide some exchange time.
      for (int k = 1; k < kNumModes; ++k) {
        if (!bits_equal(rows[0].report.train_loss,
                        rows[k].report.train_loss)) {
          std::printf("  !! losses diverge: %s vs blocking\n",
                      kModes[k].name);
          ++g_shape_failures;
        }
        if (simulated && m >= 8 && !(rows[k].overlap_s > 0.0)) {
          std::printf("  !! %s hid no exchange time (overlap_s %.6f)\n",
                      kModes[k].name, rows[k].overlap_s);
          ++g_shape_failures;
        }
      }
    }
  }
}

} // namespace

int main(int argc, char** argv) {
  using namespace bnsgcn;
  const auto opts = api::parse_bench_args(argc, argv);
  bench::print_banner(
      "Overlap",
      "blocking vs stream vs chunked-stream exchange (Fig. 4 configs)");
  std::printf("transport: %s (%s comm times)\n",
              comm::transport_kind_name(opts.transport),
              opts.transport == comm::TransportKind::kMailbox
                  ? "simulated"
                  : "measured wall-clock");
  bench::ReportSink sink("Overlap", opts);
  const double s = opts.scale;
  const std::vector<PartId> parts =
      opts.parts.empty()
          ? std::vector<PartId>{2, 4, 8, 16}
          : std::vector<PartId>(opts.parts.begin(), opts.parts.end());

  run_dataset("Reddit-like", "reddit", 0.5 * s, parts, opts, sink);
  run_dataset("ogbn-products-like", "products", 0.4 * s, parts, opts, sink);
  run_dataset("Yelp-like", "yelp", 0.5 * s, parts, opts, sink);

  if (g_shape_failures > 0) {
    std::printf("\nshape check FAILED: %d violation(s)\n", g_shape_failures);
    return 1;
  }
  if (opts.transport == comm::TransportKind::kMailbox) {
    std::printf("\nshape check: losses bit-identical across all three "
                "schedules on every row; at m >= 8 partitions stream and "
                "chunked stream each hid a positive share of the exchange "
                "on every row (parity pinned by tests/test_overlap.cpp and "
                "tests/test_schedule_fuzz.cpp).\n");
  } else {
    std::printf("\nshape check: losses bit-identical across all three "
                "schedules on every row (comm columns are measured "
                "wall-clock on this transport, so hidden time is not "
                "gated).\n");
  }
  return 0;
}
