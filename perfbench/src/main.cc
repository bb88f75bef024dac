// perfbench: the benchmark of record.
//
//   perfbench --workload scan|serve --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// Prints the run record, then one JSON line: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics. Exits
// non-zero when any statement fails or any answer check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "workload.h"

int main(int argc, char** argv) {
  mosaic::SetLogLevel(mosaic::LogLevel::kWarning);
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--work-dir") {
      opt.work_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  perfbench::Report report;
  if (opt.workload == "scan") {
    perfbench::RunScan(opt, &report);
  } else if (opt.workload == "serve") {
    perfbench::RunServe(opt, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  return report.Finish();
}
