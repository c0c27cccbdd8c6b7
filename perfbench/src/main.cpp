// perfbench harness binary. Runs one workload for one seed and writes the
// raw record (samples, counts, checks, spans) as JSON to --out; the
// wrapper perfbench/run.py builds this binary, reduces the record to the
// benchmark's metrics and prints them.
//
//   perfbench --workload train-bns --seed 1 --seconds 20 --trace 0 --out r.json

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/json.hpp"
#include "op_runner.hpp"
#include "shared_log.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string out_path;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: every option takes a value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::stoull(val);
    else if (key == "--seconds") args.seconds = std::stod(val);
    else if (key == "--trace") args.trace = val != "0";
    else if (key == "--out") out_path = val;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || out_path.empty() ||
      perfbench::find_workload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload train-bns|train-full|serve "
                 "--seed N --seconds S --trace 0|1 --out PATH\n");
    return 2;
  }
  try {
    perfbench::init_shared_log(args.trace);
    perfbench::become_subreaper();
    bnsgcn::json::write_file(out_path, perfbench::run_workload(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
