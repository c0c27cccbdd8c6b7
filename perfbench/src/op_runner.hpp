#pragma once

// One benchmark operation in its own forked worker process, under a
// wall-clock deadline. A worker that outlives the deadline is killed with
// its whole process group (the rank processes it forked included) and the
// operation counts as failed; the harness never blocks on a hung peer.

#include <functional>
#include <string>

#include "common/json.hpp"

namespace perfbench {

struct OpOutcome {
  bool ok = false;
  std::string error;          // why it failed (empty when ok)
  bnsgcn::json::Value result; // the body's value (null unless ok)
  double peak_child_rss_mb = 0.0;  // largest process the worker reaped
};

/// Make the harness the reaper of orphaned rank processes, so a killed
/// worker's ranks can be waited for. Call once at start-up.
void become_subreaper();

/// Run `body` in a forked worker. The worker's return value crosses a pipe
/// as JSON. `deadline_s` bounds the whole operation.
[[nodiscard]] OpOutcome run_op(double deadline_s,
                               const std::function<bnsgcn::json::Value()>& body);

} // namespace perfbench
