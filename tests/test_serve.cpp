// Serving-path determinism and shutdown contracts (docs/ARCHITECTURE.md
// §10). The forward-only engine builds its logits table with the trainer's
// split-phase exchange verbatim, so served logits must be bit-identical
// across every axis that training is bit-identical across — transport
// (mailbox vs forked UDS processes), overlap mode, halo cache on/off — and
// additionally across request batching: the query stream is flat, so any
// (batch_size, num_batches) split of the same total serves the same
// queries in the same order and must produce the same bits.

#include <gtest/gtest.h>

#include <unistd.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/serve.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn {
namespace {

using comm::TimingSource;
using comm::TransportKind;

Dataset small_dataset(std::uint64_t seed = 71) {
  SyntheticSpec spec;
  spec.name = "serve-test";
  spec.n = 600;
  spec.m = 6000;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.feat_dim = 12;
  spec.p_intra = 0.9;
  spec.feature_noise = 1.0;
  spec.seed = seed;
  return make_synthetic(spec);
}

api::RunConfig base_config(core::ModelKind model) {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 4;
  cfg.trainer.seed = 9;
  cfg.trainer.sample_rate = 1.0f;
  cfg.trainer.model = model;
  cfg.trainer.gat_heads = model == core::ModelKind::kGat ? 2 : 1;
  return cfg;
}

api::ServeConfig serve_config(int batch_size, int num_batches) {
  api::ServeConfig scfg;
  scfg.batch_size = batch_size;
  scfg.num_batches = num_batches;
  scfg.seed = 2024;
  scfg.record_logits = true;
  return scfg;
}

void expect_same_bits(const api::ServeReport& a, const api::ServeReport& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.predictions, b.predictions);
  ASSERT_EQ(a.logits.size(), b.logits.size());
  for (std::size_t i = 0; i < a.logits.size(); ++i)
    ASSERT_EQ(a.logits[i], b.logits[i]) << "logit " << i;
}

TEST(Serve, BatchSizeInvariantBitwise) {
  // The same 16-query stream served as 16×1, 4×4 and 1×16 batches must
  // produce identical bits: one full-graph forward builds the table every
  // batch reads, and the forward does not depend on the queries.
  const Dataset ds = small_dataset();
  const auto part = metis_like(ds.graph, 4);
  for (const auto model : {core::ModelKind::kSage, core::ModelKind::kGat}) {
    const auto cfg = base_config(model);
    const auto one = api::serve(ds, part, cfg, serve_config(1, 16));
    const auto four = api::serve(ds, part, cfg, serve_config(4, 4));
    const auto sixteen = api::serve(ds, part, cfg, serve_config(16, 1));
    ASSERT_EQ(one.total_queries(), 16);
    expect_same_bits(four, one,
                     model == core::ModelKind::kGat ? "gat 4x4 vs 1x16"
                                                    : "sage 4x4 vs 1x16");
    expect_same_bits(sixteen, one,
                     model == core::ModelKind::kGat ? "gat 16x1 vs 1x16"
                                                    : "sage 16x1 vs 1x16");
  }
}

TEST(Serve, TransportInvariantBitwise) {
  // Mailbox (in-process threads, simulated timing) vs UDS (one forked OS
  // process per rank, measured timing): identical bits, different clocks.
  // The UDS logits additionally cross the report pipe as JSON, pinning the
  // %.17g float round-trip.
  const Dataset ds = small_dataset(73);
  const auto part = metis_like(ds.graph, 2);
  for (const auto model : {core::ModelKind::kSage, core::ModelKind::kGat}) {
    auto cfg = base_config(model);
    const auto scfg = serve_config(4, 3);
    cfg.comm.transport = TransportKind::kMailbox;
    const auto mbox = api::serve(ds, part, cfg, scfg);
    cfg.comm.transport = TransportKind::kUds;
    const auto uds = api::serve(ds, part, cfg, scfg);
    expect_same_bits(uds, mbox,
                     model == core::ModelKind::kGat ? "gat uds vs mailbox"
                                                    : "sage uds vs mailbox");
    EXPECT_EQ(mbox.timing, TimingSource::kSimulated);
    EXPECT_EQ(uds.timing, TimingSource::kMeasured);
  }
}

TEST(Serve, OverlapModeInvariantBitwise) {
  // The serve forward runs the trainer's forward driver, so it inherits
  // the mode contract: blocking and stream execute the identical fp
  // instruction stream.
  const Dataset ds = small_dataset(79);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage);
  cfg.comm.overlap = core::OverlapMode::kBlocking;
  const auto blocking = api::serve(ds, part, cfg, serve_config(4, 3));
  cfg.comm.overlap = core::OverlapMode::kStream;
  cfg.comm.inner_chunk_rows = 32;
  const auto stream = api::serve(ds, part, cfg, serve_config(4, 3));
  expect_same_bits(stream, blocking, "stream+chunked vs blocking");
}

TEST(Serve, ForwardRunsOncePerLoad) {
  // One full-graph forward per serve call: the table build carries all of
  // the feature traffic, and request batches carry none — each is owner
  // lookups plus the kControl gather to rank 0. The halo cache is
  // training-only (staleness 0 trains bit-identically), so cache_mb must
  // not change a served bit or a load byte.
  const Dataset ds = small_dataset(83);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage);
  const auto plain = api::serve(ds, part, cfg, serve_config(4, 4));
  cfg.comm.cache_mb = 4;
  const auto cached = api::serve(ds, part, cfg, serve_config(4, 4));
  expect_same_bits(cached, plain, "cache_mb=4 vs cache off");
  EXPECT_EQ(cached.load.feature_bytes, plain.load.feature_bytes);
  for (const api::ServeReport* r : {&plain, &cached}) {
    EXPECT_GT(r->load.feature_bytes, 0);
    EXPECT_GT(r->load.latency_s, 0.0);
    ASSERT_EQ(r->batches.size(), 4u);
    std::int64_t gathered = 0;
    for (std::size_t b = 0; b < r->batches.size(); ++b) {
      EXPECT_EQ(r->batches[b].feature_bytes, 0) << "batch " << b;
      EXPECT_EQ(r->batches[b].comm_s, 0.0) << "batch " << b;
      gathered += r->batches[b].control_bytes;
    }
    EXPECT_GT(gathered, 0) << "no row crossed the gather";
  }
}

TEST(Serve, LatencySamplesBeyondPercentile) {
  // 100 batches with latencies 1..100 (stored out of order): the
  // nearest-rank p-th percentile is sample ceil(p*100), and the samples
  // beyond it are the ones a tail figure actually rests on.
  api::ServeReport r;
  EXPECT_EQ(r.latency_samples_beyond(0.99), 0u);
  for (int i = 0; i < 100; ++i) {
    core::ServeBatchStats b;
    b.latency_s = static_cast<double>((i * 37) % 100 + 1);
    r.batches.push_back(b);
  }
  EXPECT_EQ(r.latency_percentile_s(0.50), 50.0);
  EXPECT_EQ(r.latency_samples_beyond(0.50), 50u);
  EXPECT_EQ(r.latency_percentile_s(0.90), 90.0);
  EXPECT_EQ(r.latency_samples_beyond(0.90), 10u);
  EXPECT_EQ(r.p99_latency_s(), 99.0);
  EXPECT_EQ(r.latency_samples_beyond(0.99), 1u);
  EXPECT_EQ(r.latency_samples_beyond(1.0), 0u);
  EXPECT_EQ(r.latency_samples_beyond(0.0), 99u);
  // Two batches (64 queries at batch 32): p99 rests on one sample.
  r.batches.resize(2);
  EXPECT_EQ(r.latency_samples_beyond(0.99), 1u);
}

TEST(Serve, PredictionsAreLearned) {
  // Semantic sanity on top of the bit-level pins: the served predictions
  // come from trained weights, so on the easy synthetic communities they
  // must beat chance (1/4) by a wide margin.
  const Dataset ds = small_dataset(89);
  const auto part = metis_like(ds.graph, 2);
  auto cfg = base_config(core::ModelKind::kSage);
  cfg.trainer.epochs = 30;
  const auto report = api::serve(ds, part, cfg, serve_config(32, 4));
  ASSERT_EQ(report.predictions.size(), report.queries.size());
  int correct = 0;
  for (std::size_t i = 0; i < report.queries.size(); ++i) {
    const auto label =
        ds.labels[static_cast<std::size_t>(report.queries[i])];
    if (report.predictions[i] == label) ++correct;
  }
  const double acc =
      static_cast<double>(correct) / static_cast<double>(report.queries.size());
  EXPECT_GT(acc, 0.5) << "served predictions at chance level";
}

TEST(Serve, ReportJsonRoundTrip) {
  // Field-complete round-trip, logits bitwise (RunReport conventions).
  const Dataset ds = small_dataset(97);
  const auto part = metis_like(ds.graph, 2);
  const auto report =
      api::serve(ds, part, base_config(core::ModelKind::kSage),
                 serve_config(4, 2));
  const auto back =
      api::serve_report_from_json_string(api::to_json_string(report));
  EXPECT_EQ(back.method, report.method);
  EXPECT_EQ(back.dataset, report.dataset);
  EXPECT_EQ(back.batch_size, report.batch_size);
  EXPECT_EQ(back.num_batches, report.num_batches);
  EXPECT_EQ(back.num_classes, report.num_classes);
  EXPECT_EQ(back.queries, report.queries);
  EXPECT_EQ(back.predictions, report.predictions);
  EXPECT_EQ(back.logits, report.logits);
  EXPECT_EQ(back.train_wall_s, report.train_wall_s);
  EXPECT_EQ(back.serve_wall_s, report.serve_wall_s);
  EXPECT_EQ(back.timing, report.timing);
  EXPECT_GT(report.load.latency_s, 0.0);
  EXPECT_GT(report.load.feature_bytes, 0);
  EXPECT_EQ(back.load.latency_s, report.load.latency_s);
  EXPECT_EQ(back.load.comm_s, report.load.comm_s);
  EXPECT_EQ(back.load.feature_bytes, report.load.feature_bytes);
  EXPECT_EQ(back.load.control_bytes, report.load.control_bytes);
  ASSERT_EQ(back.batches.size(), report.batches.size());
  for (std::size_t i = 0; i < report.batches.size(); ++i) {
    EXPECT_EQ(back.batches[i].latency_s, report.batches[i].latency_s);
    EXPECT_EQ(back.batches[i].comm_s, report.batches[i].comm_s);
    EXPECT_EQ(back.batches[i].feature_bytes, report.batches[i].feature_bytes);
    EXPECT_EQ(back.batches[i].control_bytes, report.batches[i].control_bytes);
  }

  // ServeConfig round-trips through its own schema.
  api::ServeConfig scfg = serve_config(7, 3);
  const auto scfg_back =
      api::serve_config_from_json_string(api::to_json_string(scfg));
  EXPECT_EQ(scfg_back.batch_size, scfg.batch_size);
  EXPECT_EQ(scfg_back.num_batches, scfg.num_batches);
  EXPECT_EQ(scfg_back.seed, scfg.seed);
  EXPECT_EQ(scfg_back.record_logits, scfg.record_logits);
}

TEST(Serve, LegacyReportJsonReadsWithoutLoad) {
  // Reports written when every batch ran its own forward carry per-batch
  // halo-cache counters and no "load" row: they still parse, the cache
  // keys are ignored and the load row reads back as zeros.
  const auto r = api::serve_report_from_json_string(R"({
    "method": "bns", "dataset": "legacy",
    "batch_size": 2, "num_batches": 1, "num_classes": 3,
    "train_wall_s": 0.5, "serve_wall_s": 0.25,
    "batches": [{"latency_s": 0.125, "comm_s": 0.0625,
                 "feature_bytes": 4096, "control_bytes": 64,
                 "cache_hit_rows": 7, "cache_miss_rows": 1,
                 "bytes_saved": 896}],
    "queries": [3, 9], "predictions": [0, 2],
    "derived": {"total_queries": 2, "qps": 16.0,
                "cache_hit_rows": 7, "cache_miss_rows": 1,
                "cache_bytes_saved": 896, "cache_hit_rate": 0.875}
  })");
  EXPECT_EQ(r.load.latency_s, 0.0);
  EXPECT_EQ(r.load.comm_s, 0.0);
  EXPECT_EQ(r.load.feature_bytes, 0);
  EXPECT_EQ(r.load.control_bytes, 0);
  ASSERT_EQ(r.batches.size(), 1u);
  EXPECT_EQ(r.batches[0].latency_s, 0.125);
  EXPECT_EQ(r.batches[0].comm_s, 0.0625);
  EXPECT_EQ(r.batches[0].feature_bytes, 4096);
  EXPECT_EQ(r.batches[0].control_bytes, 64);
  EXPECT_EQ(r.queries, (std::vector<NodeId>{3, 9}));
  EXPECT_EQ(r.predictions, (std::vector<int>{0, 2}));
  EXPECT_EQ(r.qps(), 16.0);
}

TEST(Serve, MailboxDeadRankUnwindsMidStream) {
  // One rank dies just before the table build's exchange; sibling rank
  // threads blocked in that exchange must unwind via the fabric shutdown, and serve() must
  // rethrow the root cause. The alarm turns a regression into a loud
  // SIGALRM instead of a silent CI timeout.
  const Dataset ds = small_dataset(101);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage);
  auto scfg = serve_config(4, 3);
  scfg.fail_rank = 1;
  alarm(180);
  try {
    (void)api::serve(ds, part, cfg, scfg);
    FAIL() << "dead serving rank went unnoticed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected serve failure"),
              std::string::npos)
        << e.what();
  }
  alarm(0);
}

TEST(Serve, UdsDeadRankSurfacesCleanErrorNamingRank) {
  // Same injection through the forked UDS runtime: the dead rank's
  // process unwind closes its sockets, peers error out with
  // ShutdownError, and the parent names the failed rank.
  const Dataset ds = small_dataset(103);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage);
  cfg.comm.transport = TransportKind::kUds;
  auto scfg = serve_config(4, 3);
  scfg.fail_rank = 1;
  alarm(180);
  try {
    (void)api::serve(ds, part, cfg, scfg);
    FAIL() << "dead serving rank went unnoticed";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank"), std::string::npos) << msg;
    EXPECT_NE(msg.find('1'), std::string::npos) << msg;
  }
  alarm(0);
}

} // namespace
} // namespace bnsgcn
