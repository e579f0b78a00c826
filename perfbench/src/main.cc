// Benchmark binary: one closed-loop client thread against an unsharded
// JsonCollection. Usage:
//   fsdm_perfbench --workload <ingest_wal|point_mix|imc_analytic>
//                  --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                  [--tiny] [--inject-wrong-answer]
// Prints one JSON result object as the last stdout line; exits non-zero on
// a usage error or any oracle miss. See ../README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "measure.h"

namespace {

int Usage(const char* why) {
  fprintf(stderr,
          "fsdm_perfbench: %s\nusage: fsdm_perfbench --workload "
          "<ingest_wal|point_mix|imc_analytic> --seed <n> --seconds <s> "
          "--trace <0|1> --workdir <dir> [--tiny] [--inject-wrong-answer]\n",
          why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fsdm::perfbench::Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--inject-wrong-answer") {
      cfg.inject_wrong_answer = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir") {
      cfg.workdir = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.workdir.empty()) return Usage("--workdir is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  // Seed 0 would make every generator stream identical to seed 1's
  // fallback state; keep the streams distinct.
  cfg.seed = cfg.seed * 0x9E3779B97F4A7C15ull + 1;
  std::filesystem::create_directories(cfg.workdir);

  if (cfg.workload == "ingest_wal") return fsdm::perfbench::RunIngestWal(cfg);
  if (cfg.workload == "point_mix") return fsdm::perfbench::RunPointMix(cfg);
  if (cfg.workload == "imc_analytic") {
    return fsdm::perfbench::RunImcAnalytic(cfg);
  }
  return Usage(("unknown workload '" + cfg.workload + "'").c_str());
}
