#pragma once

#include <string>
#include <vector>

#include "comm/socket_transport.hpp"
#include "common/types.hpp"

namespace bnsgcn::comm {

/// A same-host socket group, ready for P ranks to join: every rank's
/// listener is already bound and listening, so connects cannot race the
/// spawn order. UDS paths live in a fresh private directory under
/// $TMPDIR; TCP listeners bind ephemeral loopback ports (no fixed port
/// numbers — hermetic under parallel CI).
struct LocalGroup {
  SocketEndpoints endpoints;
  std::vector<int> listen_fds; // one per rank, in rank order
  std::string uds_dir;         // empty for tcp
};

/// Bind listeners for `nranks` ranks. kind must be kUds or kTcp.
[[nodiscard]] LocalGroup make_local_group(TransportKind kind, PartId nranks);

/// Close any listeners still open and remove the UDS directory. Safe to
/// call after the ranks have taken ownership of their listen fds (pass
/// `fds_taken = true` to leave fds alone).
void cleanup_local_group(LocalGroup& group, bool fds_taken);

/// Scope guard over cleanup_local_group: on every exit path it closes the
/// listeners still open in `group` and removes the UDS directory, so a
/// bind, pipe or fork failure midway leaks neither. release() hands the
/// group on intact (make_local_group returning it). A forked child must
/// leave through _exit, which skips the guard: the parent owns cleanup.
class LocalGroupGuard {
 public:
  explicit LocalGroupGuard(LocalGroup& group) : group_(&group) {}
  ~LocalGroupGuard() {
    if (group_ != nullptr) cleanup_local_group(*group_, /*fds_taken=*/false);
  }
  LocalGroupGuard(const LocalGroupGuard&) = delete;
  LocalGroupGuard& operator=(const LocalGroupGuard&) = delete;
  void release() { group_ = nullptr; }

 private:
  LocalGroup* group_;
};

} // namespace bnsgcn::comm
