// perfbench: the repository benchmark. Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--perturb 1]
// Prints one JSON result as the last line of standard output; exits 0
// only when every operation's answer matched its oracle.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wisc_edb|mvv_server|reach_datalog|"
               "kb_write --seed N --seconds S --trace 0|1 [--out DIR] "
               "[--perturb 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--perturb") {
      args.perturb = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds < 1) return Usage();
  std::unique_ptr<perfbench::Workload> workload;
  if (args.workload == "wisc_edb") {
    workload = perfbench::MakeWisconsinEdb(args);
  } else if (args.workload == "mvv_server") {
    workload = perfbench::MakeMvvServer(args);
  } else if (args.workload == "reach_datalog") {
    workload = perfbench::MakeReachDatalog(args);
  } else if (args.workload == "kb_write") {
    workload = perfbench::MakeKbWrite(args);
  } else {
    return Usage();
  }
  return perfbench::RunBenchmark(workload.get(), args);
}
