#include "op_runner.hpp"

#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "shared_log.hpp"

namespace perfbench {

namespace {

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Reap `pid`, then every process left in its group (the worker's ranks,
/// reparented to this subreaper when the worker died first).
int reap_group(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  int other = 0;
  while (::waitpid(-pid, &other, 0) > 0 || errno == EINTR) {
  }
  return status;
}

/// Whether `pid` exits before the deadline; it is left unreaped.
bool exits_by(pid_t pid, std::int64_t t0, double deadline_s) {
  while (static_cast<double>(now_ns() - t0) * 1e-9 <= deadline_s) {
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == pid)
      return true;
    ::usleep(1000);
  }
  return false;
}

} // namespace

void become_subreaper() {
  if (::prctl(PR_SET_CHILD_SUBREAPER, 1) != 0)
    throw std::runtime_error("prctl(PR_SET_CHILD_SUBREAPER) failed");
}

OpOutcome run_op(double deadline_s,
                 const std::function<bnsgcn::json::Value()>& body) {
  OpOutcome out;
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  // Workers and their ranks inherit the harness's resident heap; returning
  // its free pages first keeps rank_peak_rss_mb from drifting with it.
  malloc_trim(0);
  const std::int64_t t0 = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    ::close(fds[0]);
    int code = 0;
    try {
      bnsgcn::json::Value v = body();
      rusage ru{};
      ::getrusage(RUSAGE_CHILDREN, &ru);
      bnsgcn::json::Value msg = bnsgcn::json::Value::object();
      msg.set("result", std::move(v));
      msg.set("child_maxrss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
      write_all(fds[1], msg.dump());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench worker] %s\n", e.what());
      code = 1;
    } catch (...) {
      code = 1;
    }
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  // Set the group from both sides, so a kill below cannot race the
  // child's own setpgid.
  ::setpgid(pid, pid);
  ::close(fds[1]);

  std::string payload;
  char buf[65536];
  bool eof = false, timed_out = false;
  while (!eof) {
    const double left_s =
        deadline_s - static_cast<double>(now_ns() - t0) * 1e-9;
    if (left_s <= 0.0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left_s * 1e3) + 1);
    if (pr <= 0) continue;  // timeout or EINTR: the loop head decides
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      payload.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      eof = true;
    } else if (errno != EINTR) {
      eof = true;
    }
  }
  ::close(fds[0]);
  // The pipe closes just before the worker exits; a worker that stalls
  // between the two still meets the deadline.
  if (!timed_out && !exits_by(pid, t0, deadline_s)) timed_out = true;
  if (timed_out) ::kill(-pid, SIGKILL);
  const int status = reap_group(pid);
  if (timed_out) {
    out.error = "deadline of " + std::to_string(deadline_s) + " s exceeded";
    return out;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || payload.empty()) {
    out.error = "worker exited with status " + std::to_string(status);
    return out;
  }
  try {
    bnsgcn::json::Value msg = bnsgcn::json::Value::parse(payload);
    out.peak_child_rss_mb =
        static_cast<double>(msg.at("child_maxrss_kb").as_int64()) / 1024.0;
    out.result = msg.at("result");
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = std::string("bad worker payload: ") + e.what();
  }
  return out;
}

} // namespace perfbench
