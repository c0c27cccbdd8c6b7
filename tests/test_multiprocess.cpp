// Cross-process parity: a multi-process socket run (one forked OS process
// per rank, UDS or TCP loopback) must train bit-identically to the
// single-process mailbox run of the same config — same losses, same eval
// curve, same byte counts — while reporting measured (wall-clock) comm
// timing instead of the mailbox's simulated times. Also pins the
// deadlock-free shutdown contract at process level: a rank that dies
// mid-epoch must surface as a clean error on the parent, not a hang.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "api/multiprocess.hpp"
#include "api/run.hpp"
#include "api/serialize.hpp"
#include "comm/process_group.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn {
namespace {

using comm::TimingSource;
using comm::TransportKind;

Dataset small_dataset(std::uint64_t seed = 41) {
  SyntheticSpec spec;
  spec.name = "mp-test";
  spec.n = 700;
  spec.m = 7000;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.feat_dim = 12;
  spec.p_intra = 0.9;
  spec.feature_noise = 1.0;
  spec.seed = seed;
  return make_synthetic(spec);
}

api::RunConfig base_config(core::ModelKind model, NodeId chunk_rows) {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 3;
  cfg.trainer.seed = 5;
  cfg.trainer.sample_rate = 1.0f;
  cfg.trainer.eval_every = 2;
  cfg.trainer.model = model;
  cfg.trainer.gat_heads = model == core::ModelKind::kGat ? 2 : 1;
  cfg.comm.overlap = core::OverlapMode::kStream;
  cfg.comm.inner_chunk_rows = chunk_rows;
  return cfg;
}

/// Run `cfg` once on the mailbox and once on `kind`, same partitioning,
/// and require bit-identical training while the socket run reports
/// measured timing.
void expect_parity(const Dataset& ds, const Partitioning& part,
                   api::RunConfig cfg, TransportKind kind,
                   const char* what) {
  SCOPED_TRACE(what);
  cfg.comm.transport = TransportKind::kMailbox;
  const api::RunReport mbox = api::run(ds, part, cfg);
  cfg.comm.transport = kind;
  const api::RunReport sock = api::run(ds, part, cfg);

  // Bit parity: the socket backend folds in the same deterministic order
  // as the mailbox, so every numeric the schedule produces must match to
  // the last bit.
  EXPECT_EQ(sock.train_loss, mbox.train_loss);
  EXPECT_EQ(sock.final_val, mbox.final_val);
  EXPECT_EQ(sock.final_test, mbox.final_test);
  ASSERT_EQ(sock.curve.size(), mbox.curve.size());
  for (std::size_t i = 0; i < mbox.curve.size(); ++i) {
    EXPECT_EQ(sock.curve[i].val, mbox.curve[i].val);
    EXPECT_EQ(sock.curve[i].test, mbox.curve[i].test);
  }
  ASSERT_EQ(sock.epochs.size(), mbox.epochs.size());
  for (std::size_t i = 0; i < mbox.epochs.size(); ++i) {
    EXPECT_EQ(sock.epochs[i].feature_bytes, mbox.epochs[i].feature_bytes);
    EXPECT_EQ(sock.epochs[i].grad_bytes, mbox.epochs[i].grad_bytes);
    EXPECT_EQ(sock.epochs[i].control_bytes, mbox.epochs[i].control_bytes);
    // Timing source flips: mailbox simulates from byte counts, sockets
    // measure wall-clock spans.
    EXPECT_EQ(mbox.epochs[i].timing, TimingSource::kSimulated);
    EXPECT_EQ(sock.epochs[i].timing, TimingSource::kMeasured);
    EXPECT_GT(sock.epochs[i].comm_s, 0.0);
    EXPECT_LE(sock.epochs[i].overlap_s, sock.epochs[i].comm_s);
    EXPECT_GE(sock.epochs[i].overlap_s, 0.0);
    EXPECT_GE(sock.epochs[i].comm_tail_s, 0.0);
  }
  EXPECT_EQ(sock.memory.model_bytes, mbox.memory.model_bytes);
  EXPECT_EQ(sock.memory.full_bytes, mbox.memory.full_bytes);
}

TEST(Multiprocess, UdsSageParityStreamAndChunked) {
  const Dataset ds = small_dataset();
  for (const PartId nparts : {2, 4}) {
    const auto part = metis_like(ds.graph, nparts);
    for (const NodeId chunk : {NodeId{0}, NodeId{64}}) {
      const auto cfg = base_config(core::ModelKind::kSage, chunk);
      expect_parity(ds, part, cfg, TransportKind::kUds,
                    (std::string("sage uds m=") + std::to_string(nparts) +
                     " chunk=" + std::to_string(chunk))
                        .c_str());
    }
  }
}

TEST(Multiprocess, UdsGatParityStreamAndChunked) {
  const Dataset ds = small_dataset(43);
  for (const PartId nparts : {2, 4}) {
    const auto part = metis_like(ds.graph, nparts);
    for (const NodeId chunk : {NodeId{0}, NodeId{64}}) {
      const auto cfg = base_config(core::ModelKind::kGat, chunk);
      expect_parity(ds, part, cfg, TransportKind::kUds,
                    (std::string("gat uds m=") + std::to_string(nparts) +
                     " chunk=" + std::to_string(chunk))
                        .c_str());
    }
  }
}

TEST(Multiprocess, TcpParityOneConfig) {
  // TCP is config-compatible with UDS (same framing, loopback sockets);
  // one representative config keeps the suite fast while pinning the
  // address-family-specific bootstrap.
  const Dataset ds = small_dataset(47);
  const auto part = metis_like(ds.graph, 2);
  expect_parity(ds, part, base_config(core::ModelKind::kSage, 0),
                TransportKind::kTcp, "sage tcp m=2");
}

TEST(Multiprocess, DeadRankSurfacesCleanErrorNotHang) {
  // One rank throws just before the first forward exchange; its process
  // unwind closes the sockets, peers' blocking waits error out with
  // ShutdownError, every child exits, and the parent reports which rank
  // failed. The alarm turns a regression into a loud SIGALRM instead of
  // a silent CI timeout.
  const Dataset ds = small_dataset(53);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage, 0);
  cfg.comm.transport = TransportKind::kUds;
  cfg.trainer.fail_rank = 1;
  alarm(180);
  try {
    (void)api::run(ds, part, cfg);
    FAIL() << "dead rank went unnoticed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos)
        << e.what();
  }
  alarm(0);
}

TEST(Multiprocess, ReportLargerThanPipeCapacitySurvivesTheReportPipe) {
  // Regression for the parent's report-pipe read loop: a rank-0 report
  // bigger than the kernel pipe capacity (64 KiB on Linux) arrives in
  // several read() chunks while rank 0 is still alive and blocked in
  // write(). A single-read parent would truncate the JSON mid-token and
  // deadlock rank 0; the loop must drain to EOF and parse the whole
  // document. An epoch sweep inflates the per-epoch rows well past the
  // pipe capacity without meaningful extra compute (tiny graph).
  const Dataset ds = small_dataset(61);
  const auto part = metis_like(ds.graph, 2);
  auto cfg = base_config(core::ModelKind::kSage, 0);
  cfg.comm.transport = TransportKind::kUds;
  cfg.trainer.epochs = 400;
  cfg.trainer.eval_every = 0;  // keep the sweep cheap: no eval forwards
  alarm(180);
  const api::RunReport report = api::run(ds, part, cfg);
  alarm(0);
  ASSERT_EQ(report.epochs.size(), 400u);
  // The fix matters only if this report genuinely exceeds the pipe
  // capacity — assert it so dataset shrinkage cannot quietly defang the
  // test.
  EXPECT_GT(api::to_json_string(report).size(), 65536u);
  EXPECT_EQ(report.epochs.back().timing, TimingSource::kMeasured);
}

TEST(Multiprocess, MailboxThreadPathAlsoUnwindsOnDeadRank) {
  // Same injection through the in-process mailbox fabric: the failing
  // thread's shutdown() must poison the collectives so the sibling rank
  // threads unwind, and train() must rethrow the root cause (the injected
  // error), not a secondary ShutdownError.
  const Dataset ds = small_dataset(59);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage, 0);
  cfg.comm.transport = TransportKind::kMailbox;
  cfg.trainer.fail_rank = 2;
  alarm(180);
  try {
    (void)api::run(ds, part, cfg);
    FAIL() << "dead rank went unnoticed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected failure"),
              std::string::npos)
        << e.what();
  }
  alarm(0);
}

// ---- UDS group cleanup on failure -------------------------------------
// A failure after the socket directory exists (a listener that cannot be
// created midway through the group, a pipe that cannot be opened) must
// leave nothing under $TMPDIR. Each case runs in a forked child with a
// private $TMPDIR and an RLIMIT_NOFILE that leaves exactly `free_fds` fd
// numbers, so the failure is deterministic and the limit never touches
// the test process itself.

/// The RLIMIT_NOFILE soft limit that leaves exactly `free_fds` descriptor
/// numbers unused in this process.
rlim_t nofile_limit_leaving(int free_fds) {
  std::set<int> open;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  const int own = ::dirfd(dir); // closed again below: not really open
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const int fd = std::atoi(e->d_name);
    if (fd != own) open.insert(fd);
  }
  ::closedir(dir);
  int limit = 0;
  for (int left = free_fds; left > 0; ++limit)
    if (open.count(limit) == 0) --left;
  return static_cast<rlim_t>(limit);
}

/// Runs `body` in a forked child with $TMPDIR set to a fresh directory and
/// the fd limit lowered; returns the directory entries the child left
/// behind whose name starts with "bnsgcn-uds-".
template <typename Body>
std::vector<std::string> leftovers_after_failure(int free_fds, Body&& body) {
  namespace fs = std::filesystem;
  const char* base_env = std::getenv("TMPDIR");
  std::string tmpl = std::string(base_env != nullptr && *base_env != '\0'
                                     ? base_env
                                     : "/tmp") +
                     "/bnsgcn-cleanup-test-XXXXXX";
  EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string tmpdir = tmpl;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setenv("TMPDIR", tmpdir.c_str(), 1);
    rlimit lim{};
    ::getrlimit(RLIMIT_NOFILE, &lim);
    lim.rlim_cur = nofile_limit_leaving(free_fds);
    int code = ::setrlimit(RLIMIT_NOFILE, &lim) == 0 ? 2 : 3;
    try {
      body();
    } catch (const CheckError&) {
      code = 0; // the expected, named failure
    } catch (...) {
      code = 4;
    }
    ::_exit(code);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child did not fail with a CheckError (status " << status << ")";
  std::vector<std::string> left;
  for (const auto& e : fs::directory_iterator(tmpdir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("bnsgcn-uds-", 0) == 0) left.push_back(name);
  }
  fs::remove_all(tmpdir);
  return left;
}

TEST(LocalGroupCleanup, ListenerFailureMidGroupRemovesTheUdsDirectory) {
  // Three listeners fit, the fourth of six cannot be created.
  const auto left = leftovers_after_failure(3, [] {
    (void)comm::make_local_group(TransportKind::kUds, 6);
  });
  EXPECT_TRUE(left.empty()) << "leaked " << left.front();
}

TEST(LocalGroupCleanup, PipeFailureInRunRanksPipedRemovesTheUdsDirectory) {
  // All four listeners fit; the report pipe's two descriptors do not.
  const auto left = leftovers_after_failure(4, [] {
    (void)api::run_ranks_piped(TransportKind::kUds, 4, comm::CostModel{},
                               [](comm::Fabric&, PartId) {
                                 return std::string("unreachable");
                               });
  });
  EXPECT_TRUE(left.empty()) << "leaked " << left.front();
}

} // namespace
} // namespace bnsgcn
