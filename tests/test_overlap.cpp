// Communication–computation overlap: blocking and stream training must be
// bit-identical (the knob moves only the wait points of the
// identical split-phase fp schedule, with per-peer folds applied in fixed
// peer order — docs/ARCHITECTURE.md §4), the hidden time must be real and
// bounded by the exchange time, and the knob must be safe for every
// method/model. GAT runs the phased schedule too (per-head linear
// transforms as phase F1), so it no longer falls back to blocking.

#include <gtest/gtest.h>

#include <cmath>

#include "api/run.hpp"
#include "api/serialize.hpp"
#include "baselines/minibatch.hpp"
#include "core/trainer.hpp"
#include "graph/dataset.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn {
namespace {

using core::BnsTrainer;
using core::ModelKind;
using core::OverlapMode;
using core::SamplingVariant;
using core::TrainerConfig;

constexpr OverlapMode kAllModes[] = {OverlapMode::kBlocking,
                                     OverlapMode::kStream};

Dataset easy_dataset(std::uint64_t seed = 101, bool multilabel = false) {
  SyntheticSpec spec;
  spec.name = "overlap-test";
  spec.n = 1400;
  spec.m = 16000;
  spec.communities = 8;
  spec.num_classes = 8;
  spec.feat_dim = 16;
  spec.p_intra = 0.92;
  spec.feature_noise = 1.4;
  spec.multilabel = multilabel;
  spec.seed = seed;
  return make_synthetic(spec);
}

TrainerConfig base_config() {
  TrainerConfig cfg;
  cfg.num_layers = 3;  // >= 2 so the backward exchange runs too
  cfg.hidden = 32;
  cfg.dropout = 0.3f;  // exercises the RNG schedule across modes
  cfg.lr = 0.01f;
  cfg.epochs = 8;
  cfg.eval_every = 4;
  cfg.seed = 7;
  cfg.sample_rate = 0.5f;
  return cfg;
}

/// Train under both overlap modes and require bit-identical results
/// (losses, eval curve, byte counts) of stream against the blocking run.
void expect_modes_bit_identical(const Dataset& ds, const Partitioning& part,
                                TrainerConfig cfg) {
  cfg.overlap = OverlapMode::kBlocking;
  const auto blocking = BnsTrainer(ds, part, cfg).train();
  for (const auto& e : blocking.epochs) EXPECT_EQ(e.overlap_s, 0.0);

  cfg.overlap = OverlapMode::kStream;
  const auto piped = BnsTrainer(ds, part, cfg).train();
  const auto tag = [](std::size_t i) {
    return "stream epoch " + std::to_string(i);
  };
  ASSERT_EQ(blocking.train_loss.size(), piped.train_loss.size());
  for (std::size_t e = 0; e < blocking.train_loss.size(); ++e)
    EXPECT_EQ(blocking.train_loss[e], piped.train_loss[e]) << tag(e);
  EXPECT_EQ(blocking.final_val, piped.final_val);
  EXPECT_EQ(blocking.final_test, piped.final_test);
  ASSERT_EQ(blocking.curve.size(), piped.curve.size());
  for (std::size_t i = 0; i < blocking.curve.size(); ++i) {
    EXPECT_EQ(blocking.curve[i].val, piped.curve[i].val);
    EXPECT_EQ(blocking.curve[i].test, piped.curve[i].test);
  }
  ASSERT_EQ(blocking.epochs.size(), piped.epochs.size());
  for (std::size_t i = 0; i < blocking.epochs.size(); ++i) {
    EXPECT_EQ(blocking.epochs[i].feature_bytes,
              piped.epochs[i].feature_bytes) << tag(i);
    EXPECT_EQ(blocking.epochs[i].comm_s, piped.epochs[i].comm_s) << tag(i);
    // The per-peer tail is a pure function of the sampled exchange sets:
    // identical across modes, by construction.
    EXPECT_EQ(blocking.epochs[i].comm_tail_s, piped.epochs[i].comm_tail_s)
        << tag(i);
  }
}

TEST(Overlap, AllModesBitIdenticalSage) {
  const Dataset ds = easy_dataset();
  const auto part = metis_like(ds.graph, 4);
  expect_modes_bit_identical(ds, part, base_config());
}

TEST(Overlap, AllModesBitIdenticalGat) {
  // GAT enters the phased protocol (per-head linear transforms as F1):
  // parity must hold for it exactly like for SAGE — no blocking fallback.
  const Dataset ds = easy_dataset(127);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config();
  cfg.model = ModelKind::kGat;
  cfg.gat_heads = 2;
  cfg.epochs = 4;
  expect_modes_bit_identical(ds, part, cfg);
}

TEST(Overlap, BitIdenticalAcrossSampleRates) {
  const Dataset ds = easy_dataset(103);
  const auto part = metis_like(ds.graph, 3);
  for (const float p : {0.0f, 0.1f, 1.0f}) {
    auto cfg = base_config();
    cfg.epochs = 4;
    cfg.sample_rate = p;
    expect_modes_bit_identical(ds, part, cfg);
  }
}

TEST(Overlap, BitIdenticalForEdgeSamplingVariants) {
  // The edge-sampling plans carry per-edge scales through the split
  // kernels (and the streaming fold's incidence); parity must hold there
  // too.
  const Dataset ds = easy_dataset(107);
  const auto part = metis_like(ds.graph, 3);
  for (const auto variant :
       {SamplingVariant::kBoundaryEdge, SamplingVariant::kDropEdge}) {
    auto cfg = base_config();
    cfg.epochs = 4;
    cfg.variant = variant;
    expect_modes_bit_identical(ds, part, cfg);
  }
}

TEST(Overlap, BitIdenticalMultilabel) {
  const Dataset ds = easy_dataset(109, /*multilabel=*/true);
  const auto part = metis_like(ds.graph, 3);
  auto cfg = base_config();
  cfg.epochs = 4;
  expect_modes_bit_identical(ds, part, cfg);
}

TEST(Overlap, ChunkedF1BitIdenticalAcrossChunkSizes) {
  // The F1 chunk size moves only the poll points (F1 is row-independent
  // and folds target disjoint buffers), so every chunking of every
  // schedule must train bit-identically to the unchunked blocking run —
  // for SAGE and GAT alike. Chunk 1 is the pathological
  // one-poll-per-row case; 1<<20 exceeds every partition (one chunk, but
  // through the chunked code path).
  const Dataset ds = easy_dataset(173);
  const auto part = metis_like(ds.graph, 4);
  for (const ModelKind model : {ModelKind::kSage, ModelKind::kGat}) {
    auto cfg = base_config();
    cfg.model = model;
    cfg.gat_heads = model == ModelKind::kGat ? 2 : 1;
    cfg.epochs = 3;
    cfg.overlap = OverlapMode::kBlocking;
    cfg.inner_chunk_rows = 0;
    const auto baseline = BnsTrainer(ds, part, cfg).train();
    for (const OverlapMode mode : kAllModes) {
      for (const NodeId chunk : {1, 19, 1 << 20}) {
        cfg.overlap = mode;
        cfg.inner_chunk_rows = chunk;
        const auto got = BnsTrainer(ds, part, cfg).train();
        EXPECT_EQ(baseline.train_loss, got.train_loss)
            << "model " << static_cast<int>(model) << " mode "
            << static_cast<int>(mode) << " chunk " << chunk;
        EXPECT_EQ(baseline.final_val, got.final_val);
        EXPECT_EQ(baseline.final_test, got.final_test);
      }
    }
  }
}

TEST(Overlap, HiddenTimeIsRealAndBounded) {
  const Dataset ds = easy_dataset(113);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config();
  cfg.overlap = OverlapMode::kStream;
  const auto result = BnsTrainer(ds, part, cfg).train();
  double total_hidden = 0.0;
  for (const auto& e : result.epochs) {
    EXPECT_GE(e.overlap_s, 0.0);
    EXPECT_LE(e.overlap_s, e.comm_s + 1e-12); // never hides more than comm
    EXPECT_GE(e.total_s(), 0.0);
    // The tail is one message of one exchange; comm_s covers them all.
    EXPECT_GT(e.comm_tail_s, 0.0);
    EXPECT_LE(e.comm_tail_s, e.comm_s + 1e-12);
    total_hidden += e.overlap_s;
  }
  // With boundary traffic on every layer, some exchange time must be
  // hidden — this is the bench_overlap acceptance in miniature.
  EXPECT_GT(total_hidden, 0.0);
  const auto mean = result.mean_epoch();
  EXPECT_LT(mean.total_s(), mean.compute_s + mean.comm_s + mean.reduce_s +
                                mean.sample_s + mean.swap_s);
}

TEST(Overlap, GatHidesExchangeTimeNow) {
  // GAT runs the phased schedule like SAGE: a GAT stack under stream
  // overlap must report genuinely hidden exchange time.
  const Dataset ds = easy_dataset(163);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config();
  cfg.model = ModelKind::kGat;
  cfg.gat_heads = 2;
  cfg.epochs = 4;
  cfg.overlap = OverlapMode::kStream;
  const auto result = BnsTrainer(ds, part, cfg).train();
  double total_hidden = 0.0;
  for (const auto& e : result.epochs) total_hidden += e.overlap_s;
  EXPECT_GT(total_hidden, 0.0);
}

TEST(Overlap, ApiCommKnobReachesTheTrainer) {
  const Dataset ds = easy_dataset(131);
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.trainer = base_config();
  cfg.trainer.epochs = 4;
  cfg.partition.nparts = 4;

  cfg.comm.overlap = OverlapMode::kBlocking;
  const auto blocking = api::run(ds, cfg);
  EXPECT_EQ(blocking.overlap_saved_s(), 0.0);

  cfg.comm.overlap = OverlapMode::kStream;
  const auto piped = api::run(ds, cfg);
  EXPECT_EQ(blocking.train_loss, piped.train_loss);
  EXPECT_GT(piped.overlap_saved_s(), 0.0);
  EXPECT_GT(piped.overlap_fraction(), 0.0);
  EXPECT_LE(piped.overlap_fraction(), 1.0);
  // The simulated epoch clock is exactly the blocking clock minus the
  // hidden time.
  const auto mean = piped.mean_epoch();
  EXPECT_NEAR(piped.epoch_time_s(),
              mean.compute_s + mean.comm_s + mean.reduce_s + mean.sample_s +
                  mean.swap_s - mean.overlap_s,
              1e-12);
}

TEST(Overlap, LegacyBulkConfigTrainsLikeStream) {
  // Artifacts recorded while a "bulk" schedule existed (one wait_all after
  // the halo-independent phase) load as stream and must replay the same
  // bits: losses, eval scores, byte counts and the per-peer tail.
  const Dataset ds = easy_dataset(179);
  api::RunConfig legacy = api::run_config_from_json_string(
      R"({"comm": {"overlap": "bulk"}})");
  legacy.method = api::Method::kBns;
  legacy.partition.nparts = 4;
  legacy.trainer = base_config();
  legacy.trainer.epochs = 4;
  api::RunConfig stream = legacy;
  stream.comm.overlap = OverlapMode::kStream;
  const auto a = api::run(ds, legacy);
  const auto b = api::run(ds, stream);
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.final_val, b.final_val);
  EXPECT_EQ(a.final_test, b.final_test);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].feature_bytes, b.epochs[i].feature_bytes) << i;
    EXPECT_EQ(a.epochs[i].grad_bytes, b.epochs[i].grad_bytes) << i;
    EXPECT_EQ(a.epochs[i].control_bytes, b.epochs[i].control_bytes) << i;
    EXPECT_EQ(a.epochs[i].comm_tail_s, b.epochs[i].comm_tail_s) << i;
  }
  EXPECT_GT(a.overlap_saved_s(), 0.0);
}

TEST(Overlap, EngineAndApiKnobsCombineToTheStrongerMode) {
  // Either spelling may ask for a schedule; the engine runs the more
  // aggressive of the two, so a config file can upgrade a coded default.
  const Dataset ds = easy_dataset(167);
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.trainer = base_config();
  cfg.trainer.epochs = 3;
  cfg.partition.nparts = 3;
  cfg.trainer.overlap = OverlapMode::kStream;
  cfg.comm.overlap = OverlapMode::kBlocking;
  const auto report = api::run(ds, cfg);
  EXPECT_GT(report.overlap_saved_s(), 0.0);
}

TEST(Overlap, RocProxyAcceptsTheKnob) {
  const Dataset ds = easy_dataset(137);
  api::RunConfig cfg;
  cfg.method = api::Method::kRocProxy;
  cfg.trainer = base_config();
  cfg.trainer.epochs = 3;
  cfg.partition.nparts = 3;

  cfg.comm.overlap = OverlapMode::kBlocking;
  const auto blocking = api::run(ds, cfg);
  cfg.comm.overlap = OverlapMode::kStream;
  const auto piped = api::run(ds, cfg);
  // ROC runs through BnsTrainer (p=1): parity plus genuine hidden time.
  EXPECT_EQ(blocking.train_loss, piped.train_loss);
  EXPECT_GT(piped.overlap_saved_s(), 0.0);
}

TEST(Overlap, CagnetProxyIgnoresTheKnobAndTracksLoss) {
  const Dataset ds = easy_dataset(139);
  api::RunConfig cfg;
  cfg.method = api::Method::kCagnetProxy;
  cfg.trainer = base_config();
  cfg.trainer.epochs = 3;
  cfg.partition.nparts = 3;

  cfg.comm.overlap = OverlapMode::kBlocking;
  const auto blocking = api::run(ds, cfg);
  cfg.comm.overlap = OverlapMode::kStream;
  const auto piped = api::run(ds, cfg);

  // The proxy reports a loss per epoch, for every knob setting, and the
  // dense broadcast hides nothing (no-op fallback).
  ASSERT_EQ(blocking.train_loss.size(), 3u);
  ASSERT_EQ(piped.train_loss.size(), 3u);
  EXPECT_EQ(blocking.train_loss, piped.train_loss);
  EXPECT_EQ(piped.overlap_saved_s(), 0.0);
  for (const double l : blocking.train_loss) {
    EXPECT_TRUE(std::isfinite(l));
    EXPECT_GT(l, 0.0);
  }
  // Loss must actually decrease — it is a real training signal, not noise.
  EXPECT_LT(blocking.train_loss.back(), blocking.train_loss.front());
}

TEST(Overlap, SingleLayerAndSinglePartitionDegenerate) {
  // No backward exchange (L=1) and no boundary at all (m=1): every
  // schedule must degrade gracefully with zero hidden time, not crash or
  // deadlock in the poll loop.
  const Dataset ds = easy_dataset(149);
  for (const OverlapMode mode : kAllModes) {
    auto cfg = base_config();
    cfg.num_layers = 1;
    cfg.epochs = 3;
    cfg.overlap = mode;
    const auto part1 = metis_like(ds.graph, 1);
    const auto single = BnsTrainer(ds, part1, cfg).train();
    for (const auto& e : single.epochs) {
      EXPECT_EQ(e.overlap_s, 0.0);
      EXPECT_EQ(e.comm_tail_s, 0.0);
    }
    const auto part4 = metis_like(ds.graph, 4);
    const auto result = BnsTrainer(ds, part4, cfg).train();
    EXPECT_EQ(result.train_loss.size(), 3u);
  }
}

TEST(Overlap, PhasedBlockingStillMatchesOracleAtP1) {
  // The split schedule reorders fp sums within a row (inner terms first,
  // then halo terms in peer order); it must stay within the same drift
  // envelope of the single-process oracle as before.
  const Dataset ds = easy_dataset(151);
  TrainerConfig cfg = base_config();
  cfg.dropout = 0.0f;
  cfg.epochs = 8;
  cfg.eval_every = 0;
  cfg.sample_rate = 1.0f;
  const auto oracle = baselines::train_full_graph(ds, cfg);
  const auto part = metis_like(ds.graph, 4);
  for (const OverlapMode mode : kAllModes) {
    cfg.overlap = mode;
    const auto dist = BnsTrainer(ds, part, cfg).train();
    ASSERT_EQ(oracle.train_loss.size(), dist.train_loss.size());
    for (std::size_t e = 0; e < oracle.train_loss.size(); ++e)
      EXPECT_NEAR(dist.train_loss[e], oracle.train_loss[e],
                  5e-3 * std::max(1.0, std::abs(oracle.train_loss[e])))
          << "epoch " << e << " mode " << static_cast<int>(mode);
  }
}

TEST(Overlap, GatPhasedMatchesOracleAtP1) {
  // Same envelope for GAT: its phased schedule splits only row-independent
  // GEMMs, so the distributed run must track the oracle exactly as the
  // fused path did.
  const Dataset ds = easy_dataset(157);
  TrainerConfig cfg = base_config();
  cfg.model = ModelKind::kGat;
  cfg.gat_heads = 2;
  cfg.dropout = 0.0f;
  cfg.epochs = 6;
  cfg.eval_every = 0;
  cfg.sample_rate = 1.0f;
  const auto oracle = baselines::train_full_graph(ds, cfg);
  const auto part = metis_like(ds.graph, 4);
  for (const OverlapMode mode : kAllModes) {
    cfg.overlap = mode;
    const auto dist = BnsTrainer(ds, part, cfg).train();
    ASSERT_EQ(oracle.train_loss.size(), dist.train_loss.size());
    for (std::size_t e = 0; e < oracle.train_loss.size(); ++e)
      EXPECT_NEAR(dist.train_loss[e], oracle.train_loss[e],
                  5e-2 * std::max(1.0, std::abs(oracle.train_loss[e])))
          << "epoch " << e << " mode " << static_cast<int>(mode);
  }
}

} // namespace
} // namespace bnsgcn
