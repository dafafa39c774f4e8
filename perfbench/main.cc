// perfbench_measure — the benchmark's measuring process, one workload per
// process so each reports its own peak memory.
//
//   perfbench_measure --workload W --seed N --seconds S --trace 0|1
//                    --workdir DIR [--ringsimd PATH]
//
// Prints exactly one result line (JSON) as the last line of stdout and
// exits 0; any other exit code means no result. perfbench/run.py builds
// this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/workloads.h"

namespace {

constexpr char kUsage[] =
    "usage: perfbench_measure --workload compartments|fleet_paged|serve_mixed --seed N\n"
    "                        --seconds S --trace 0|1 --workdir DIR [--ringsimd PATH]\n";

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        return false;
      }
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--ringsimd") {
      args->ringsimd = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (args.workload == "compartments") {
    return perfbench::RunCompartments(args);
  }
  if (args.workload == "fleet_paged") {
    return perfbench::RunFleetPaged(args);
  }
  if (args.workload == "serve_mixed") {
    return perfbench::RunServeMixed(args);
  }
  std::fprintf(stderr, "perfbench_measure: unknown workload '%s'\n%s", args.workload.c_str(),
               kUsage);
  return 2;
}
