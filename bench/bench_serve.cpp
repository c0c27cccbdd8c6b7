// Serving path (docs/ARCHITECTURE.md §10): train once per config, snapshot
// the weights, then answer a fixed 64-query stream through the forward-only
// engine, swept over partition counts x batch sizes x transports. Each
// serve call runs one full-graph forward at load (the `load ms` column) to
// materialize the logits table; a batch is then owner lookups plus one
// gather to rank 0, a fixed cost that batching amortizes.
//
// Enforced gates (nonzero exit on violation, '!!'-marked):
//  - the table pays: batch=1 p50 latency is at most 1/50 of the load
//    (one full-graph forward — what every query used to cost), on the
//    mailbox and on the --transport socket backend;
//  - batching pays: at >= 4 partitions, batch=32 serves at >= 2x the QPS
//    of batch=1 on the same config;
//  - transports agree: when --transport names a socket backend, its
//    queries, predictions and logits are bit-identical to the mailbox
//    serve of the same config;
//  - every sweep point answers the full 64-query stream.
// p99 prints as '-' when fewer than 10 samples lie beyond it (64 queries
// never get there): a tail figure resting on one sample is an outlier.
// Every row lands in the JSON artifact with its RunConfig + ServeConfig,
// so any point replays from the artifact alone via api::serve.

#include "common.hpp"

#include <bit>
#include <cstdint>
#include <vector>

#include "api/serve.hpp"

namespace {

using namespace bnsgcn;

int g_failures = 0;

void require(bool ok, const char* what) {
  if (!ok) {
    std::printf("  !! %s\n", what);
    ++g_failures;
  }
}

/// p99 in ms, or "-" when fewer than 10 samples lie beyond it.
std::string p99_ms(const api::ServeReport& r) {
  if (r.latency_samples_beyond(0.99) < 10) return "-";
  return bench::label("%.3f", 1e3 * r.p99_latency_s());
}

/// The materialized-table gate: one query costs at most 1/50 of the
/// full-graph forward that used to answer it.
void require_table_pays(const api::ServeReport& r, const char* what) {
  if (r.p50_latency_s() > r.load.latency_s / 50.0) {
    std::printf("  !! %s: batch=1 p50 %.4f ms > load %.3f ms / 50\n", what,
                1e3 * r.p50_latency_s(), 1e3 * r.load.latency_s);
    ++g_failures;
  }
}

void print_row(const std::string& name, const api::ServeReport& r) {
  std::printf("%-28s %10.4f %10s %10.1f %9.3f\n", name.c_str(),
              1e3 * r.p50_latency_s(), p99_ms(r).c_str(), r.qps(),
              1e3 * r.load.latency_s);
}

bool logits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return false;
  }
  return true;
}

SyntheticSpec serve_spec(double scale) {
  SyntheticSpec spec;
  spec.name = "serve-bench";
  spec.n = static_cast<NodeId>(3000 * scale);
  spec.m = static_cast<EdgeId>(30000 * scale);
  spec.communities = 8;
  spec.num_classes = 8;
  spec.feat_dim = 64;
  spec.p_intra = 0.88;
  spec.feature_noise = 1.0;
  spec.seed = 20260807;
  return spec;
}

api::RunConfig base_config(const SyntheticSpec& spec) {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.dataset.custom = spec; // replay-self-contained rows
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 6;
  cfg.trainer.eval_every = 0;
  cfg.trainer.seed = 17;
  cfg.trainer.sample_rate = 1.0f;
  cfg.comm.overlap = core::OverlapMode::kStream;
  return cfg;
}

} // namespace

int main(int argc, char** argv) {
  using namespace bnsgcn;
  const auto opts = api::parse_bench_args(argc, argv);
  bench::print_banner("Serve",
                      "forward-only serving: p50/p99 latency and QPS across "
                      "partitions x batch sizes x transports");

  const SyntheticSpec spec = serve_spec(opts.scale);
  const Dataset ds = make_synthetic(spec);
  std::printf("graph: n=%d avg_deg=%.1f feat_dim=%lld hidden=16  "
              "(64 queries per sweep point)\n",
              ds.num_nodes(), ds.graph.average_degree(),
              static_cast<long long>(ds.feat_dim()));

  api::RunConfig base = base_config(spec);
  base.trainer.epochs = opts.epochs_or(6);
  base.trainer.threads = opts.threads;

  const std::vector<int> parts =
      opts.parts.empty() ? std::vector<int>{2, 4, 8} : opts.parts;
  const int kBatches[] = {1, 8, 32};
  constexpr int kTotalQueries = 64;

  json::Value rows = json::Value::array();
  const auto record = [&](const std::string& label, const api::RunConfig& cfg,
                          const api::ServeConfig& scfg,
                          const api::ServeReport& report) {
    json::Value row = json::Value::object();
    row.set("label", label);
    row.set("config", api::to_json(cfg));
    row.set("serve_config", api::to_json(scfg));
    row.set("report", api::to_json(report));
    rows.push_back(std::move(row));
  };

  std::printf("\n%-28s %10s %10s %10s %9s\n", "config", "p50 ms",
              "p99 ms", "qps", "load ms");

  for (const int m : parts) {
    base.partition.nparts = m;
    api::PartitionSpec pspec = base.partition;
    const auto part = api::cached_partition(ds.graph, pspec);

    double qps_b1 = 0.0, qps_b32 = 0.0;
    for (const int batch : kBatches) {
      api::ServeConfig scfg;
      scfg.batch_size = batch;
      scfg.num_batches = kTotalQueries / batch;
      scfg.seed = 2026;
      scfg.record_logits = true;

      auto cfg = base;
      cfg.comm.transport = comm::TransportKind::kMailbox;
      const std::string name = bench::label("m=%d batch=%d", m, batch);
      const api::ServeReport mbox = api::serve(ds, *part, cfg, scfg);
      record(name + " mailbox", cfg, scfg, mbox);
      require(mbox.total_queries() == kTotalQueries,
              "sweep point dropped queries");
      print_row(name + " mailbox", mbox);
      if (batch == 1) {
        qps_b1 = mbox.qps();
        require_table_pays(mbox, (name + " mailbox").c_str());
      }
      if (batch == 32) qps_b32 = mbox.qps();

      if (opts.transport != comm::TransportKind::kMailbox) {
        cfg.comm.transport = opts.transport;
        const api::ServeReport sock = api::serve(ds, *part, cfg, scfg);
        record(name + " socket", cfg, scfg, sock);
        // Gate: the serving fabric is invisible to the answers.
        require(sock.queries == mbox.queries,
                "socket serve answered different queries than mailbox");
        require(sock.predictions == mbox.predictions,
                "socket predictions diverge from mailbox");
        require(logits_equal(sock.logits, mbox.logits),
                "socket logits diverge bitwise from mailbox");
        print_row(name + " socket", sock);
        if (batch == 1) require_table_pays(sock, (name + " socket").c_str());
      }
    }

    // Gate: the batching lever pays once the graph is spread wide enough
    // that a batch's fixed cost (the gather from every peer) dominates the
    // per-query lookups.
    if (m >= 4)
      require(qps_b32 >= 2.0 * qps_b1,
              "batch=32 did not reach 2x the QPS of batch=1");
    std::printf("m=%-3d batching speedup: qps(b=32)/qps(b=1) = %.1fx\n", m,
                qps_b1 > 0.0 ? qps_b32 / qps_b1 : 0.0);
  }

  if (!opts.json_path.empty()) {
    json::Value doc = json::Value::object();
    doc.set("artifact", "Serve");
    doc.set("scale", opts.scale);
    doc.set("runs", std::move(rows));
    json::write_file(opts.json_path, doc);
    std::printf("\nwrote JSON artifact: %s\n", opts.json_path.c_str());
  }

  if (g_failures > 0) {
    std::printf("\n%d gate(s) failed\n", g_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
