#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "api/multiprocess.hpp"
#include "api/presets.hpp"
#include "api/serialize.hpp"
#include "common/rng.hpp"
#include "graph/dataset.hpp"
#include "op_runner.hpp"
#include "shared_log.hpp"

namespace perfbench {

using namespace bnsgcn;
using json::Value;

namespace {

constexpr double kScale = 0.5;
constexpr PartId kRanks = 3;
// One full training run per workload and seed: long enough that val_acc
// has converged (it climbs from chance at a seed-dependent epoch).
constexpr int kTrainEpochs = 40;
// Repeat runs retrain the first epochs of the same seed; they must match
// the full run bit for bit, and the loss after them is final_loss.
constexpr int kRepeatEpochs = 8;
constexpr int kSetupReps = 3;
constexpr int kSessionQueries = 25;
constexpr int kMinQueries = 100;
constexpr int kParityQueries = 5;
constexpr int kMaxFailedOps = 3;
constexpr double kOpDeadline_s = 75.0;
constexpr double kMiB = 1024.0 * 1024.0;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed ^ salt).next_u64();
}

SyntheticSpec graph_spec(std::uint64_t seed) {
  SyntheticSpec s = reddit_like(kScale);
  s.seed = mix(seed, 0x6E1);
  return s;
}

api::PartitionSpec partition_spec(std::uint64_t seed) {
  api::PartitionSpec p;
  p.kind = api::PartitionSpec::Kind::kMetis;
  p.nparts = kRanks;
  p.seed = mix(seed, 0x9A7);
  return p;
}

double elapsed_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Rank 0's observer: stamp the end of every epoch (and, when tracing,
/// turn consecutive stamps into an epoch span under the running op).
void stamp_epoch(const core::EpochSnapshot&) {
  const std::int64_t t = now_ns();
  if (tracing()) {
    const auto s = stamps();
    if (!s.empty()) record_span("api.epoch", s.back(), t);
  }
  add_stamp(t);
}

/// Steady-state epoch times of one op from its stamps: epoch 1 has no
/// start stamp, and the last epoch also runs the final evaluation.
std::vector<double> epoch_times(const std::vector<std::int64_t>& st) {
  std::vector<double> out;
  for (std::size_t i = 1; i + 1 < st.size(); ++i)
    out.push_back(static_cast<double>(st[i] - st[i - 1]) * 1e-9);
  return out;
}

Value array_of(const std::vector<double>& xs) {
  Value a = Value::array();
  for (const double x : xs) a.push_back(x);
  return a;
}

/// What the checks compare between runs of one seed: the loss sequence and
/// the per-epoch byte counts.
struct Fingerprint {
  std::vector<double> losses;
  std::vector<std::int64_t> bytes;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const api::RunReport& r) {
  Fingerprint f;
  f.losses = r.train_loss;
  for (const auto& e : r.epochs) {
    f.bytes.push_back(e.feature_bytes);
    f.bytes.push_back(e.grad_bytes);
    f.bytes.push_back(e.control_bytes);
  }
  return f;
}

double wire_mb_per_epoch(const api::RunReport& r) {
  double bytes = 0.0;
  for (const auto& e : r.epochs)
    bytes += static_cast<double>(e.feature_bytes + e.grad_bytes +
                                 e.control_bytes);
  return r.epochs.empty() ? 0.0 : bytes / kMiB / static_cast<double>(r.epochs.size());
}

/// Accumulates the checks of a run; any failure makes the run incorrect.
class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail) {
    Value c = Value::object();
    c.set("name", name);
    c.set("ok", ok);
    c.set("detail", detail);
    list_.push_back(std::move(c));
    all_ok_ = all_ok_ && ok;
  }
  [[nodiscard]] bool ok() const { return all_ok_; }
  [[nodiscard]] const Value& list() const { return list_; }

 private:
  Value list_ = Value::array();
  bool all_ok_ = true;
};

void check_losses(Checks& checks, const Fingerprint& f, const char* what) {
  bool finite = !f.losses.empty();
  for (const double l : f.losses) finite = finite && std::isfinite(l);
  const bool decreasing = finite && f.losses.back() < f.losses.front();
  char detail[160];
  std::snprintf(detail, sizeof detail, "%s: first %.6f last %.6f over %zu epochs",
                what, f.losses.empty() ? 0.0 : f.losses.front(),
                f.losses.empty() ? 0.0 : f.losses.back(), f.losses.size());
  checks.add("losses_finite_and_decreasing", decreasing, detail);
}

// ------------------------------------------------------------- training

/// The body of one measured training op: api::run over sockets.
Value train_op(const Setup& setup, const api::RunConfig& cfg) {
  Span span("api.run");
  const std::int64_t t0 = now_ns();
  const api::RunReport report = api::run(setup.ds, setup.part, cfg);
  Value v = Value::object();
  v.set("wall_s", elapsed_s(t0));
  v.set("report", api::to_json(report));
  return v;
}

/// Serve set-up: train the snapshot over sockets (the same runtime as the
/// training workloads) and ship rank 0's weights back with its report.
Value snapshot_op(const Setup& setup, const api::RunConfig& cfg) {
  Span span("api.train_snapshot");
  const std::int64_t t0 = now_ns();
  core::TrainerConfig tcfg = api::engine_config(cfg);
  core::WeightSnapshot snap;
  tcfg.capture_weights = &snap;
  core::BnsTrainer trainer(setup.ds, setup.part, tcfg);
  const std::string payload = api::run_ranks_piped(
      comm::TransportKind::kUds, kRanks, tcfg.cost,
      [&](comm::Fabric& fabric, PartId r) {
        set_span_rank(r);
        std::optional<Span> span_r;
        if (r == 0) span_r.emplace("core.trainer.train_rank");
        core::TrainResult tr = trainer.train_rank(fabric, r);
        span_r.reset();
        if (r != 0) return std::string();
        Value v = Value::object();
        v.set("report", api::to_json(api::RunReport::from_train_result(
                            std::move(tr), "bns", setup.ds.name)));
        Value w = Value::array();
        for (const Matrix& m : snap.params)
          for (const float x : m.flat()) w.push_back(static_cast<double>(x));
        v.set("weights", std::move(w));
        return v.dump();
      });
  Value v = Value::parse(payload);
  v.set("wall_s", elapsed_s(t0));
  return v;
}

core::WeightSnapshot weights_from(const Value& flat,
                                  const core::TrainerConfig& tcfg,
                                  const Dataset& ds) {
  core::WeightSnapshot snap;
  auto layers = core::build_model(tcfg, ds.feat_dim(), ds.num_classes, 0);
  std::size_t k = 0;
  for (auto& l : layers) {
    for (Matrix* p : l->params()) {
      Matrix m(p->rows(), p->cols());
      for (float& x : m.flat()) {
        if (k >= flat.size()) throw std::runtime_error("snapshot too short");
        x = static_cast<float>(flat[k++].as_double());
      }
      snap.params.push_back(std::move(m));
    }
  }
  if (k != flat.size()) throw std::runtime_error("snapshot size mismatch");
  return snap;
}

// -------------------------------------------------------------- serving

core::ServeOptions session_options(std::uint64_t seed, int session,
                                   int queries) {
  core::ServeOptions o;
  o.batch_size = 1;
  o.num_batches = queries;
  o.seed = mix(seed, 0x5E5) + static_cast<std::uint64_t>(session);
  o.record_logits = true;
  return o;
}

/// One closed-loop serving session: the engine's socket path, as
/// api::serve runs it, answering one query per batch.
Value serve_session(const Setup& setup, const core::ServeOptions& opts) {
  Span span("api.serve_session");
  const std::string payload = api::run_ranks_piped(
      comm::TransportKind::kUds, kRanks, comm::CostModel::scaled_pcie3(),
      [&](comm::Fabric& fabric, PartId r) {
        set_span_rank(r);
        std::optional<Span> span_r;
        if (r == 0) span_r.emplace("core.inference.serve_rank");
        core::ServeResult res = setup.engine->serve_rank(fabric, r, opts);
        span_r.reset();
        if (r != 0) return std::string();
        Value v = Value::object();
        Value lat = Value::array();
        std::int64_t wire = 0;
        for (const auto& b : res.batches) {
          lat.push_back(b.latency_s);
          wire += b.feature_bytes + b.control_bytes;
        }
        v.set("latency_s", std::move(lat));
        v.set("wall_s", res.wall_time_s);
        v.set("wire_bytes", wire);
        Value preds = Value::array();
        for (const int p : res.predictions) preds.push_back(p);
        v.set("predictions", std::move(preds));
        Value logits = Value::array();
        for (const float x : res.logits) logits.push_back(static_cast<double>(x));
        v.set("logits", std::move(logits));
        return v.dump();
      });
  return Value::parse(payload);
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

} // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> all = {
      {"train-bns", 0.1f, core::OverlapMode::kBlocking, 0, false},
      {"train-full", 1.0f, core::OverlapMode::kBlocking, 0, false},
      {"serve", 0.1f, core::OverlapMode::kStream, 4, true},
  };
  for (const auto& w : all)
    if (w.name == name) return &w;
  return nullptr;
}

api::RunConfig train_config(const WorkloadSpec& w, std::uint64_t seed,
                            int epochs) {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.dataset.custom = graph_spec(seed);
  cfg.partition = partition_spec(seed);
  cfg.trainer = api::preset_trainer_config("reddit");
  cfg.trainer.epochs = epochs;
  cfg.trainer.eval_every = 0;
  cfg.trainer.seed = mix(seed, 0x7A1);
  cfg.trainer.sample_rate = w.sample_rate;
  cfg.trainer.threads = 1;
  cfg.trainer.observer = stamp_epoch;
  cfg.comm.overlap = w.overlap;
  cfg.comm.cache_mb = w.cache_mb;
  cfg.comm.transport = comm::TransportKind::kUds;
  return cfg;
}


namespace {

/// What one run accumulates before it is written out.
struct Record {
  Checks checks;
  std::vector<double> setup_s, epoch_s, train_wall_s, op_ms, rss_mb;
  std::vector<double> untraced_op_s, traced_op_s;
  std::int64_t attempted = 0, failed = 0;
  Value errors = Value::array();
  double wire_mb_per_op = 0.0, final_loss = 0.0, val_acc = 0.0;
  double ops_per_s = 0.0;
  api::RunReport report;  // source of the api.report.* counters
};

Fingerprint prefix(const Fingerprint& f, int epochs) {
  Fingerprint p;
  const auto n = static_cast<std::size_t>(epochs);
  p.losses.assign(f.losses.begin(), f.losses.begin() + std::min(n, f.losses.size()));
  p.bytes.assign(f.bytes.begin(), f.bytes.begin() + std::min(3 * n, f.bytes.size()));
  return p;
}

/// Run one training op; on success return its report and record its
/// epochs (the serve workload's snapshot counts as set-up, not as ops).
std::optional<api::RunReport> training_op(Record& rec, const OpOutcome& o,
                                          int epochs, bool counts_as_ops) {
  if (counts_as_ops) rec.attempted += epochs;
  if (!o.ok) {
    if (counts_as_ops) rec.failed += epochs;
    rec.errors.push_back(o.error);
    return std::nullopt;
  }
  api::RunReport r = api::run_report_from_json(o.result.at("report"));
  for (const double e : epoch_times(stamps())) {
    rec.epoch_s.push_back(e);
    if (counts_as_ops) rec.op_ms.push_back(e * 1e3);
  }
  if (counts_as_ops) rec.rss_mb.push_back(o.peak_child_rss_mb);
  Fingerprint f = fingerprint_of(r);
  check_losses(rec.checks, f, epochs == kTrainEpochs ? "training run" : "repeat run");
  // The rule of perfbench/README.md: no modeled time becomes a metric.
  const bool measured = std::all_of(r.epochs.begin(), r.epochs.end(), [](const auto& e) {
    return e.timing == comm::TimingSource::kMeasured;
  });
  rec.checks.add("report_timings_measured", measured && !r.epochs.empty(),
                 "every epoch breakdown of the socket run is measured, not modeled");
  return r;
}

} // namespace

Value run_workload(const RunArgs& args) {
  const WorkloadSpec* wp = find_workload(args.workload);
  if (wp == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const WorkloadSpec& w = *wp;
  const bool trace = args.trace;
  Record rec;
  std::vector<Fingerprint> repeats;

  // ---- set-up: data generation and partitioning, repeated so setup_s is
  // a median. Serve adds its snapshot training and engine build below.
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    malloc_trim(0);
    auto s = std::make_unique<Setup>();
    const std::int64_t t0 = now_ns();
    {
      Span span("graph.generate");
      s->ds = make_synthetic(graph_spec(args.seed));
    }
    {
      Span span("partition.metis");
      s->part = api::make_partition(s->ds.graph, partition_spec(args.seed));
    }
    rec.setup_s.push_back(elapsed_s(t0));
    setup = std::move(s);
  }

  // ---- the full training run: api::run for kTrainEpochs epochs (serve:
  // the snapshot it will serve). The first kRepeatEpochs of it are the
  // reference the repeat runs must reproduce bit for bit.
  const api::RunConfig full_cfg = train_config(w, args.seed, kTrainEpochs);
  const api::RunConfig repeat_cfg = train_config(w, args.seed, kRepeatEpochs);
  const std::int64_t loop_t0 = now_ns();
  std::optional<Fingerprint> reference;
  {
    set_tracing(false);
    clear_stamps();
    const OpOutcome o = run_op(kOpDeadline_s, [&] {
      return w.serve ? snapshot_op(*setup, full_cfg) : train_op(*setup, full_cfg);
    });
    set_tracing(trace);
    if (w.serve && !o.ok) throw std::runtime_error("snapshot training failed: " + o.error);
    if (auto r = training_op(rec, o, kTrainEpochs, !w.serve)) {
      const double wall = o.result.at("wall_s").as_double();
      rec.train_wall_s.push_back(wall);
      rec.val_acc = r->final_val;
      rec.final_loss = r->train_loss.at(kRepeatEpochs - 1);
      if (!w.serve) rec.wire_mb_per_op = wire_mb_per_epoch(*r);
      reference = prefix(fingerprint_of(*r), kRepeatEpochs);
      rec.report = *r;
    }
    if (w.serve) {
      const std::int64_t t0 = now_ns();
      const core::TrainerConfig tcfg = api::engine_config(full_cfg);
      setup->weights = weights_from(o.result.at("weights"), tcfg, setup->ds);
      {
        Span span("core.inference_engine.build");
        setup->engine = std::make_unique<core::InferenceEngine>(
            setup->ds, setup->part, tcfg, setup->weights);
      }
      const double extra = o.result.at("wall_s").as_double() + elapsed_s(t0);
      for (double& s : rec.setup_s) s += extra;
    }
  }
  malloc_trim(0);

  // ---- repeat runs of the first kRepeatEpochs (training: until the time
  // budget is spent; serve: once, outside its timed loop). Under --trace
  // the ops alternate untraced and traced; their difference is the
  // tracing overhead.
  int n_repeat = 0, failed_ops = 0;
  const auto repeat_once = [&](bool traced_op) {
    set_tracing(traced_op);
    clear_stamps();
    const OpOutcome o = run_op(kOpDeadline_s, [&] { return train_op(*setup, repeat_cfg); });
    set_tracing(trace);
    ++n_repeat;
    if (auto r = training_op(rec, o, kRepeatEpochs, !w.serve)) {
      if (!w.serve) {
        const double wall = o.result.at("wall_s").as_double();
        (traced_op ? rec.traced_op_s : rec.untraced_op_s).push_back(wall);
      }
      repeats.push_back(fingerprint_of(*r));
      if (!reference) rec.final_loss = r->train_loss.back();
      if (traced_op || !trace) rec.report = *r;
    } else {
      ++failed_ops;
    }
  };

  if (!w.serve) {
    // One repeat makes the same-seed check; a traced run needs an
    // untraced and a traced one for the overhead.
    const std::size_t min_repeats = trace ? 2 : 1;
    while (failed_ops < kMaxFailedOps &&
           (repeats.size() < min_repeats || elapsed_s(loop_t0) < args.seconds))
      repeat_once(trace && n_repeat % 2 == 0);
    double sum = 0.0;
    for (const double e : rec.epoch_s) sum += e;
    rec.ops_per_s = sum > 0.0 ? static_cast<double>(rec.epoch_s.size()) / sum : 0.0;
  } else {
    const std::int64_t serve_t0 = now_ns();
    double serve_wall = 0.0;
    std::int64_t wire = 0, answered = 0;
    int session = 0;
    Value first_session;
    while (failed_ops < kMaxFailedOps &&
           (answered < kMinQueries || elapsed_s(serve_t0) < args.seconds)) {
      const bool traced_op = trace && session % 2 == 1;
      set_tracing(traced_op);
      const core::ServeOptions opts = session_options(args.seed, session, kSessionQueries);
      const OpOutcome o = run_op(kOpDeadline_s, [&] { return serve_session(*setup, opts); });
      set_tracing(trace);
      ++session;
      rec.attempted += kSessionQueries;
      if (!o.ok) {
        rec.failed += kSessionQueries;
        ++failed_ops;
        rec.errors.push_back(o.error);
        continue;
      }
      const Value& lat = o.result.at("latency_s");
      const auto n = static_cast<std::int64_t>(lat.size());
      for (std::size_t i = 0; i < lat.size(); ++i) rec.op_ms.push_back(lat[i].as_double() * 1e3);
      const double wall = o.result.at("wall_s").as_double();
      serve_wall += wall;
      (traced_op ? rec.traced_op_s : rec.untraced_op_s).push_back(wall);
      wire += o.result.at("wire_bytes").as_int64();
      answered += n;
      rec.failed += kSessionQueries - n;
      rec.rss_mb.push_back(o.peak_child_rss_mb);
      if (first_session.is_null()) first_session = o.result;
    }
    rec.ops_per_s = serve_wall > 0.0 ? static_cast<double>(answered) / serve_wall : 0.0;
    rec.wire_mb_per_op =
        answered > 0 ? static_cast<double>(wire) / kMiB / static_cast<double>(answered) : 0.0;

    // Socket predictions must equal the in-process mailbox engine's on the
    // same snapshot and query stream (outside the timed loop).
    bool same = false;
    std::string detail = "no successful session";
    if (!first_session.is_null()) {
      const core::ServeResult mbox =
          setup->engine->serve(session_options(args.seed, 0, kParityQueries));
      const Value& preds = first_session.at("predictions");
      const Value& logits = first_session.at("logits");
      same = mbox.predictions.size() == static_cast<std::size_t>(kParityQueries) &&
             mbox.logits.size() <= logits.size();
      for (std::size_t i = 0; same && i < mbox.predictions.size(); ++i)
        same = mbox.predictions[i] == static_cast<int>(preds[i].as_int64());
      for (std::size_t i = 0; same && i < mbox.logits.size(); ++i)
        same = same_bits(mbox.logits[i], static_cast<float>(logits[i].as_double()));
      detail = std::to_string(kParityQueries) +
               " queries: predictions and logits compared bit for bit";
    }
    rec.checks.add("socket_serve_matches_mailbox", same, detail);
    repeat_once(false);
  }

  // Every repeat of the seed reproduces the full run's first epochs.
  {
    bool same = !repeats.empty() && (reference.has_value() || repeats.size() >= 2);
    const Fingerprint& ref = reference ? *reference : repeats.front();
    for (const auto& f : repeats) same = same && f == ref;
    rec.checks.add("same_seed_repeats_identical", same,
                   std::to_string(repeats.size()) + " repeat run(s) of " +
                       std::to_string(kRepeatEpochs) +
                       " epochs against the full run: losses and byte counts");
  }

  Value out = Value::object();
  if (trace) {
    Value counters = Value::object();
    const OpOutcome o = run_op(2 * kOpDeadline_s, [&] {
      return run_probes(w, *setup, args.seed);
    });
    if (!o.ok) {
      rec.checks.add("probes_completed", false, o.error);
    } else {
      for (const auto& [k, v] : o.result.members()) counters.set(k, v);
    }
    const core::EpochBreakdown mean = rec.report.mean_epoch();
    counters.set("api.report.compute_s", mean.compute_s);
    counters.set("api.report.comm_wait_s", mean.comm_s);
    counters.set("api.report.reduce_s", mean.reduce_s);
    counters.set("api.report.sample_s", mean.sample_s);
    out.set("counters", std::move(counters));
    Value overhead = Value::object();
    overhead.set("untraced_op_s", array_of(rec.untraced_op_s));
    overhead.set("traced_op_s", array_of(rec.traced_op_s));
    out.set("tracing_overhead", std::move(overhead));
    Value spans_json = Value::array();
    for (const SpanRecord& s : spans()) {
      if (s.end_ns == 0) continue;
      Value v = Value::object();
      v.set("name", std::string(s.name));
      v.set("id", s.id);
      v.set("parent", s.parent);
      v.set("pid", s.pid);
      v.set("rank", s.rank);
      v.set("start_ns", s.start_ns);
      v.set("end_ns", s.end_ns);
      if (s.work > 0.0) v.set("work", s.work);
      spans_json.push_back(std::move(v));
    }
    out.set("spans", std::move(spans_json));
  }

  out.set("workload", w.name);
  out.set("seed", static_cast<std::int64_t>(args.seed));
  out.set("trace", trace);
  out.set("attempted", rec.attempted);
  out.set("failed", rec.failed);
  out.set("errors", std::move(rec.errors));
  out.set("correct", rec.checks.ok() && rec.attempted > rec.failed);
  out.set("checks", rec.checks.list());
  Value samples = Value::object();
  samples.set("setup_s", array_of(rec.setup_s));
  samples.set("epoch_s", array_of(rec.epoch_s));
  samples.set("train_wall_s", array_of(rec.train_wall_s));
  samples.set("op_ms", array_of(rec.op_ms));
  samples.set("rank_peak_rss_mb", array_of(rec.rss_mb));
  out.set("samples", std::move(samples));
  Value values = Value::object();
  values.set("wire_mb_per_op", rec.wire_mb_per_op);
  values.set("final_loss", rec.final_loss);
  values.set("val_acc", rec.val_acc);
  values.set("serve_qps", rec.ops_per_s);
  out.set("values", std::move(values));
  return out;
}

} // namespace perfbench
