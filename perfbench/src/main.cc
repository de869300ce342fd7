// Host-time benchmark for vaFS: runs one workload with one seed and prints
// its report (see perfbench/README.md).
//
//   perfbench --workload vod_node|ingest_edit|cluster_16 --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// Exits 0 when every correctness check passed, 1 when one failed and 2 on
// a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload vod_node|ingest_edit|cluster_16 --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using vafs::perfbench::BenchOptions;
  BenchOptions options;
  options.process_start = vafs::perfbench::Clock::now();
  // The shell must not change what is measured: the wall-clock engine runs
  // one worker and sector payloads stay in memory.
  setenv("VAFS_WORKERS", "1", 1);
  unsetenv("VAFS_DISK_IMAGE");

  if (argc % 2 == 0) {
    return Usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0.0) {
    return Usage();
  }

  vafs::perfbench::Report report;
  if (options.workload == "vod_node") {
    RunVodNode(options, &report);
  } else if (options.workload == "ingest_edit") {
    RunIngestEdit(options, &report);
  } else if (options.workload == "cluster_16") {
    RunCluster16(options, &report);
  } else {
    return Usage();
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
