#include <gtest/gtest.h>

#include "api/run.hpp"
#include "api/serialize.hpp"
#include "common/check.hpp"
#include "common/json.hpp"

namespace bnsgcn {
namespace {

api::RunReport sample_report() {
  api::RunReport r;
  r.method = "bns";
  r.dataset = "reddit-like \"scaled\"";  // exercises string escaping
  r.train_loss = {1.51234567890123, 0.75, 0.3333333333333333};
  r.curve.push_back({.epoch = 2, .val = 0.81, .test = 0.79,
                     .train_loss = 0.75});
  r.curve.push_back({.epoch = 3, .val = 0.9, .test = 0.88,
                     .train_loss = 0.3333333333333333});
  r.final_val = 0.9;
  r.final_test = 0.88;
  core::EpochBreakdown e;
  e.compute_s = 0.125;
  e.comm_s = 0.0625;
  e.reduce_s = 1e-9;
  e.sample_s = 0.001953125;
  e.swap_s = 0.0;
  e.overlap_s = 0.015625;
  e.comm_tail_s = 0.0078125;
  e.feature_bytes = 123456789012345;  // > 2^32, < 2^53
  e.grad_bytes = 4096;
  e.control_bytes = 17;
  r.epochs = {e, e, e};
  r.memory.model_bytes = {1.5e6, 2.25e6};
  r.memory.full_bytes = {2000000, 3000000};
  r.wall_time_s = 0.4375;
  r.partition_cache = {.hits = 3, .disk_hits = 1, .misses = 2,
                       .evictions = 1};
  return r;
}

void expect_reports_equal(const api::RunReport& a, const api::RunReport& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.train_loss, b.train_loss);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].epoch, b.curve[i].epoch);
    EXPECT_EQ(a.curve[i].val, b.curve[i].val);
    EXPECT_EQ(a.curve[i].test, b.curve[i].test);
    EXPECT_EQ(a.curve[i].train_loss, b.curve[i].train_loss);
  }
  EXPECT_EQ(a.final_val, b.final_val);
  EXPECT_EQ(a.final_test, b.final_test);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].compute_s, b.epochs[i].compute_s);
    EXPECT_EQ(a.epochs[i].comm_s, b.epochs[i].comm_s);
    EXPECT_EQ(a.epochs[i].reduce_s, b.epochs[i].reduce_s);
    EXPECT_EQ(a.epochs[i].sample_s, b.epochs[i].sample_s);
    EXPECT_EQ(a.epochs[i].swap_s, b.epochs[i].swap_s);
    EXPECT_EQ(a.epochs[i].overlap_s, b.epochs[i].overlap_s);
    EXPECT_EQ(a.epochs[i].comm_tail_s, b.epochs[i].comm_tail_s);
    EXPECT_EQ(a.epochs[i].feature_bytes, b.epochs[i].feature_bytes);
    EXPECT_EQ(a.epochs[i].grad_bytes, b.epochs[i].grad_bytes);
    EXPECT_EQ(a.epochs[i].control_bytes, b.epochs[i].control_bytes);
  }
  EXPECT_EQ(a.memory.model_bytes, b.memory.model_bytes);
  EXPECT_EQ(a.memory.full_bytes, b.memory.full_bytes);
  EXPECT_EQ(a.wall_time_s, b.wall_time_s);
  EXPECT_EQ(a.partition_cache, b.partition_cache);
}

TEST(ReportJson, RoundTripIsExact) {
  const api::RunReport original = sample_report();
  const std::string text = api::to_json_string(original);
  const api::RunReport parsed = api::run_report_from_json_string(text);
  expect_reports_equal(original, parsed);
  // Derived quantities recompute identically from the parsed fields.
  EXPECT_EQ(original.throughput_eps(), parsed.throughput_eps());
  EXPECT_EQ(original.sampler_overhead(), parsed.sampler_overhead());
}

TEST(ReportJson, RoundTripOfRealRun) {
  api::RunConfig cfg;
  SyntheticSpec spec;
  spec.n = 500;
  spec.m = 4000;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.feat_dim = 8;
  spec.seed = 21;
  cfg.dataset.custom = spec;
  cfg.partition.nparts = 2;
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 4;
  cfg.trainer.sample_rate = 0.5f;
  cfg.trainer.eval_every = 2;
  const api::RunReport r = api::run(cfg);
  const api::RunReport parsed =
      api::run_report_from_json_string(api::to_json_string(r));
  expect_reports_equal(r, parsed);
}

TEST(ReportJson, CompactAndPrettyParseTheSame) {
  const api::RunReport original = sample_report();
  const auto compact =
      api::run_report_from_json_string(api::to_json_string(original, -1));
  const auto pretty =
      api::run_report_from_json_string(api::to_json_string(original, 4));
  expect_reports_equal(compact, pretty);
}

TEST(ReportJson, DerivedBlockPresent) {
  const json::Value v = api::to_json(sample_report());
  const json::Value* derived = v.get("derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_GT(derived->at("throughput_eps").as_double(), 0.0);
  EXPECT_GT(derived->at("total_train_s").as_double(), 0.0);
}

TEST(ReportJson, PreOverlapArtifactsStillParse) {
  // Artifacts written before EpochBreakdown::overlap_s existed have no such
  // key; the reader must default it to 0 rather than throw.
  json::Value v = api::to_json(sample_report());
  json::Value epochs = json::Value::array();
  for (std::size_t i = 0; i < v.at("epochs").size(); ++i) {
    json::Value e = json::Value::object();
    for (const auto& [key, val] : v.at("epochs")[i].members())
      if (key != "overlap_s") e.set(key, val);
    epochs.push_back(std::move(e));
  }
  v.set("epochs", std::move(epochs));
  const api::RunReport parsed = api::run_report_from_json(v);
  for (const auto& e : parsed.epochs) EXPECT_EQ(e.overlap_s, 0.0);
}

TEST(ReportJson, PrePartitionCacheArtifactsStillParse) {
  // Artifacts written before the partition cache existed have no
  // "partition_cache" object; the reader defaults the counters to zero.
  json::Value v = api::to_json(sample_report());
  json::Value stripped = json::Value::object();
  for (const auto& [key, val] : v.members())
    if (key != "partition_cache") stripped.set(key, val);
  const api::RunReport parsed = api::run_report_from_json(stripped);
  EXPECT_EQ(parsed.partition_cache, api::PartitionCacheStats{});
}

// ---------------------------------------------------------------------------
// RunConfig (de)serialization.
// ---------------------------------------------------------------------------

api::RunConfig sample_config() {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.dataset.preset = "reddit";
  cfg.dataset.scale = 0.75;
  SyntheticSpec custom;
  custom.name = "custom \"shape\"";
  custom.n = 1234;
  custom.m = 45678;
  custom.communities = 7;
  custom.num_classes = 5;
  custom.feat_dim = 24;
  custom.p_intra = 0.875;
  custom.degree_skew = 1.75;
  custom.feature_noise = 1.25;
  custom.feature_signal = 0.5;
  custom.label_noise = 0.0625;
  custom.multilabel = true;
  custom.labels_per_node = 4;
  custom.train_frac = 0.5;
  custom.val_frac = 0.25;
  custom.seed = 99;
  cfg.dataset.custom = custom;
  cfg.partition.kind = api::PartitionSpec::Kind::kBfs;
  cfg.partition.nparts = 6;
  cfg.partition.seed = 17;
  cfg.trainer.num_layers = 4;
  cfg.trainer.hidden = 96;
  cfg.trainer.model = core::ModelKind::kGat;
  cfg.trainer.gat_heads = 3;
  cfg.trainer.dropout = 0.25f;
  cfg.trainer.lr = 0.0078125f;
  cfg.trainer.epochs = 42;
  cfg.trainer.sample_rate = 0.125f;
  cfg.trainer.variant = core::SamplingVariant::kBoundaryEdge;
  cfg.trainer.unbiased_scaling = false;
  cfg.trainer.eval_every = 7;
  cfg.trainer.seed = 1234567;
  cfg.trainer.cost.latency_s = 2.5e-5;
  cfg.trainer.cost.bytes_per_s = 3.0e7;
  cfg.trainer.simulate_host_swap = true;
  cfg.trainer.overlap = core::OverlapMode::kStream;
  cfg.trainer.inner_chunk_rows = 96;
  cfg.trainer.threads = 6;
  cfg.comm.overlap = core::OverlapMode::kStream;
  cfg.comm.inner_chunk_rows = 48;
  cfg.minibatch.lr = 0.5f;
  cfg.minibatch.batch_size = 777;
  cfg.minibatch.batches_per_epoch = 3;
  cfg.minibatch.fanout = 15;
  cfg.minibatch.layer_budget = 321;
  cfg.minibatch.num_clusters = 12;
  cfg.minibatch.clusters_per_batch = 5;
  cfg.minibatch.saint_budget = 888;
  cfg.cagnet_c = 2;
  return cfg;
}

void expect_configs_equal(const api::RunConfig& a, const api::RunConfig& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.custom_method, b.custom_method);
  EXPECT_EQ(a.dataset.preset, b.dataset.preset);
  EXPECT_EQ(a.dataset.scale, b.dataset.scale);
  ASSERT_EQ(a.dataset.custom.has_value(), b.dataset.custom.has_value());
  if (a.dataset.custom) {
    const auto& x = *a.dataset.custom;
    const auto& y = *b.dataset.custom;
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.n, y.n);
    EXPECT_EQ(x.m, y.m);
    EXPECT_EQ(x.communities, y.communities);
    EXPECT_EQ(x.num_classes, y.num_classes);
    EXPECT_EQ(x.feat_dim, y.feat_dim);
    EXPECT_EQ(x.p_intra, y.p_intra);
    EXPECT_EQ(x.degree_skew, y.degree_skew);
    EXPECT_EQ(x.feature_noise, y.feature_noise);
    EXPECT_EQ(x.feature_signal, y.feature_signal);
    EXPECT_EQ(x.label_noise, y.label_noise);
    EXPECT_EQ(x.multilabel, y.multilabel);
    EXPECT_EQ(x.labels_per_node, y.labels_per_node);
    EXPECT_EQ(x.train_frac, y.train_frac);
    EXPECT_EQ(x.val_frac, y.val_frac);
    EXPECT_EQ(x.seed, y.seed);
  }
  EXPECT_EQ(a.partition.kind, b.partition.kind);
  EXPECT_EQ(a.partition.nparts, b.partition.nparts);
  EXPECT_EQ(a.partition.seed, b.partition.seed);
  EXPECT_EQ(a.trainer.num_layers, b.trainer.num_layers);
  EXPECT_EQ(a.trainer.hidden, b.trainer.hidden);
  EXPECT_EQ(a.trainer.model, b.trainer.model);
  EXPECT_EQ(a.trainer.gat_heads, b.trainer.gat_heads);
  EXPECT_EQ(a.trainer.dropout, b.trainer.dropout);
  EXPECT_EQ(a.trainer.lr, b.trainer.lr);
  EXPECT_EQ(a.trainer.epochs, b.trainer.epochs);
  EXPECT_EQ(a.trainer.sample_rate, b.trainer.sample_rate);
  EXPECT_EQ(a.trainer.variant, b.trainer.variant);
  EXPECT_EQ(a.trainer.unbiased_scaling, b.trainer.unbiased_scaling);
  EXPECT_EQ(a.trainer.eval_every, b.trainer.eval_every);
  EXPECT_EQ(a.trainer.seed, b.trainer.seed);
  EXPECT_EQ(a.trainer.cost.latency_s, b.trainer.cost.latency_s);
  EXPECT_EQ(a.trainer.cost.bytes_per_s, b.trainer.cost.bytes_per_s);
  EXPECT_EQ(a.trainer.simulate_host_swap, b.trainer.simulate_host_swap);
  EXPECT_EQ(a.trainer.overlap, b.trainer.overlap);
  EXPECT_EQ(a.trainer.inner_chunk_rows, b.trainer.inner_chunk_rows);
  EXPECT_EQ(a.trainer.threads, b.trainer.threads);
  EXPECT_EQ(a.trainer.cache_mb, b.trainer.cache_mb);
  EXPECT_EQ(a.trainer.cache_staleness, b.trainer.cache_staleness);
  EXPECT_EQ(a.comm.overlap, b.comm.overlap);
  EXPECT_EQ(a.comm.inner_chunk_rows, b.comm.inner_chunk_rows);
  EXPECT_EQ(a.comm.cache_mb, b.comm.cache_mb);
  EXPECT_EQ(a.comm.cache_staleness, b.comm.cache_staleness);
  EXPECT_EQ(a.minibatch.lr, b.minibatch.lr);
  EXPECT_EQ(a.minibatch.batch_size, b.minibatch.batch_size);
  EXPECT_EQ(a.minibatch.batches_per_epoch, b.minibatch.batches_per_epoch);
  EXPECT_EQ(a.minibatch.fanout, b.minibatch.fanout);
  EXPECT_EQ(a.minibatch.layer_budget, b.minibatch.layer_budget);
  EXPECT_EQ(a.minibatch.num_clusters, b.minibatch.num_clusters);
  EXPECT_EQ(a.minibatch.clusters_per_batch, b.minibatch.clusters_per_batch);
  EXPECT_EQ(a.minibatch.saint_budget, b.minibatch.saint_budget);
  EXPECT_EQ(a.cagnet_c, b.cagnet_c);
}

TEST(ConfigJson, RoundTripIsExact) {
  const api::RunConfig original = sample_config();
  const api::RunConfig parsed =
      api::run_config_from_json_string(api::to_json_string(original));
  expect_configs_equal(original, parsed);
}

TEST(ConfigJson, DefaultsRoundTrip) {
  const api::RunConfig parsed =
      api::run_config_from_json_string(api::to_json_string(api::RunConfig{}));
  expect_configs_equal(api::RunConfig{}, parsed);
}

TEST(ConfigJson, MinimalDocumentKeepsDefaults) {
  // Hand-written configs spell out only what they change.
  const api::RunConfig cfg = api::run_config_from_json_string(
      R"({"method": "graph-saint", "trainer": {"epochs": 3}})");
  EXPECT_EQ(cfg.method, api::Method::kGraphSaint);
  EXPECT_EQ(cfg.trainer.epochs, 3);
  const api::RunConfig defaults;
  EXPECT_EQ(cfg.trainer.hidden, defaults.trainer.hidden);
  EXPECT_EQ(cfg.partition.nparts, defaults.partition.nparts);
  EXPECT_EQ(cfg.comm.overlap, defaults.comm.overlap);
}

TEST(ConfigJson, UnregisteredMethodNameBecomesCustom) {
  const api::RunConfig cfg = api::run_config_from_json_string(
      R"({"method": "my-experimental-method"})");
  EXPECT_EQ(cfg.method, api::Method::kCustom);
  EXPECT_EQ(cfg.custom_method, "my-experimental-method");
  EXPECT_THROW((void)api::resolve_method(cfg), CheckError);
}

TEST(ConfigJson, OverlapModeRoundTripsEveryValue) {
  for (const auto mode :
       {core::OverlapMode::kBlocking, core::OverlapMode::kStream}) {
    api::RunConfig cfg;
    cfg.comm.overlap = mode;
    cfg.trainer.overlap = mode;
    const api::RunConfig parsed =
        api::run_config_from_json_string(api::to_json_string(cfg));
    EXPECT_EQ(parsed.comm.overlap, mode);
    EXPECT_EQ(parsed.trainer.overlap, mode);
  }
}

TEST(ConfigJson, ChunkKnobAbsentKeepsUnchunkedDefault) {
  // Artifacts written before the chunked inner phase have no
  // inner_chunk_rows key in either block: both sides must stay 0.
  const api::RunConfig cfg = api::run_config_from_json_string(
      R"({"comm": {"overlap": "stream"}, "trainer": {"epochs": 2}})");
  EXPECT_EQ(cfg.comm.inner_chunk_rows, 0);
  EXPECT_EQ(cfg.trainer.inner_chunk_rows, 0);
}

TEST(ConfigJson, ThreadsKnobRoundTripsAndAbsentMeansSerial) {
  // The kernel thread-pool knob serializes as trainer.threads; artifacts
  // written before the pool landed have no such key and must load as the
  // serial default (1). The test-only oversubscribe bypass never
  // serializes.
  api::RunConfig cfg;
  cfg.trainer.threads = 4;
  cfg.trainer.threads_oversubscribe = true;
  const std::string doc = api::to_json_string(cfg);
  EXPECT_EQ(doc.find("threads_oversubscribe"), std::string::npos);
  const api::RunConfig parsed = api::run_config_from_json_string(doc);
  EXPECT_EQ(parsed.trainer.threads, 4);
  EXPECT_FALSE(parsed.trainer.threads_oversubscribe);
  const api::RunConfig legacy = api::run_config_from_json_string(
      R"({"trainer": {"epochs": 2, "inner_chunk_rows": 8}})");
  EXPECT_EQ(legacy.trainer.threads, 1);
}

TEST(ConfigJson, CacheStalenessSurvivesRoundTripWithoutCacheMb) {
  // Regression: the writer gated cache_staleness on cache_mb > 0, so a
  // config staging staleness ahead of enabling the cache (cache_mb == 0,
  // cache_staleness != 0) silently lost the staleness on round-trip —
  // replaying the artifact with the cache turned on then ran a different
  // (always-fresh) policy than the original config described.
  api::RunConfig cfg;
  cfg.comm.cache_staleness = 3;
  cfg.trainer.cache_staleness = 5;
  const api::RunConfig parsed =
      api::run_config_from_json_string(api::to_json_string(cfg));
  EXPECT_EQ(parsed.comm.cache_mb, 0);
  EXPECT_EQ(parsed.comm.cache_staleness, 3);
  EXPECT_EQ(parsed.trainer.cache_mb, 0);
  EXPECT_EQ(parsed.trainer.cache_staleness, 5);

  // And with the cache enabled both knobs still round-trip.
  cfg.comm.cache_mb = 8;
  cfg.trainer.cache_mb = 16;
  const api::RunConfig enabled =
      api::run_config_from_json_string(api::to_json_string(cfg));
  expect_configs_equal(cfg, enabled);
}

TEST(ConfigJson, LegacyOverlapBoolStillParses) {
  // The oldest artifacts serialized the knob as a bool: true was the (then
  // only) bulk pipeline, false was blocking. Both spellings must keep
  // loading, in both the comm block and the trainer block; bulk now loads
  // as stream, which executes the identical fp schedule.
  const api::RunConfig on = api::run_config_from_json_string(
      R"({"comm": {"overlap": true}, "trainer": {"overlap": true}})");
  EXPECT_EQ(on.comm.overlap, core::OverlapMode::kStream);
  EXPECT_EQ(on.trainer.overlap, core::OverlapMode::kStream);
  const api::RunConfig off = api::run_config_from_json_string(
      R"({"comm": {"overlap": false}, "trainer": {"overlap": false}})");
  EXPECT_EQ(off.comm.overlap, core::OverlapMode::kBlocking);
  EXPECT_EQ(off.trainer.overlap, core::OverlapMode::kBlocking);
}

TEST(ConfigJson, OverlapModeStringsParse) {
  const api::RunConfig cfg = api::run_config_from_json_string(
      R"({"comm": {"overlap": "stream"}, "trainer": {"overlap": "bulk"}})");
  EXPECT_EQ(cfg.comm.overlap, core::OverlapMode::kStream);
  // The retired "bulk" spelling loads as stream; the writer never emits it.
  EXPECT_EQ(cfg.trainer.overlap, core::OverlapMode::kStream);
  EXPECT_EQ(api::to_json_string(cfg).find("bulk"), std::string::npos);
  EXPECT_THROW((void)api::run_config_from_json_string(
                   R"({"comm": {"overlap": "warp"}})"),
               CheckError);
}

TEST(ReportJson, PreTailArtifactsStillParse) {
  // Artifacts written before EpochBreakdown::comm_tail_s existed have no
  // such key; the reader must default it to 0 rather than throw.
  json::Value v = api::to_json(sample_report());
  json::Value epochs = json::Value::array();
  for (std::size_t i = 0; i < v.at("epochs").size(); ++i) {
    json::Value e = json::Value::object();
    for (const auto& [key, val] : v.at("epochs")[i].members())
      if (key != "comm_tail_s") e.set(key, val);
    epochs.push_back(std::move(e));
  }
  v.set("epochs", std::move(epochs));
  const api::RunReport parsed = api::run_report_from_json(v);
  for (const auto& e : parsed.epochs) EXPECT_EQ(e.comm_tail_s, 0.0);
}

TEST(ConfigJson, ReplayReproducesARunExactly) {
  // The artifact promise: a config serialized next to a report replays to
  // the identical run (observer aside, everything that matters round-trips).
  api::RunConfig cfg;
  SyntheticSpec spec;
  spec.n = 600;
  spec.m = 5000;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.feat_dim = 8;
  spec.seed = 33;
  cfg.dataset.custom = spec;
  cfg.partition.nparts = 3;
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 4;
  cfg.trainer.sample_rate = 0.5f;
  cfg.comm.overlap = core::OverlapMode::kStream;

  const api::RunReport first = api::run(cfg);
  const api::RunConfig replayed =
      api::run_config_from_json_string(api::to_json_string(cfg));
  const api::RunReport second = api::run(replayed);
  EXPECT_EQ(first.train_loss, second.train_loss);
  EXPECT_EQ(first.final_val, second.final_val);
  EXPECT_EQ(first.final_test, second.final_test);
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_THROW(json::Value::parse("{\"a\": }"), CheckError);
  EXPECT_THROW(json::Value::parse("[1, 2"), CheckError);
  EXPECT_THROW(json::Value::parse("{} trailing"), CheckError);
  EXPECT_THROW(json::Value::parse("nul"), CheckError);
}

TEST(Json, EscapesRoundTrip) {
  json::Value v = json::Value::object();
  v.set("k", "line\nbreak\ttab \"quote\" back\\slash \x01 control");
  const json::Value parsed = json::Value::parse(v.dump());
  EXPECT_EQ(parsed.at("k").as_string(), v.at("k").as_string());
}

} // namespace
} // namespace bnsgcn
