#ifndef FSDM_PERFBENCH_LAYERS_H_
#define FSDM_PERFBENCH_LAYERS_H_

// Per-layer half of the traced run: replays a workload's own documents
// through each layer's public entry point, timed from outside the engine
// (no spans inside src/). Every layer metric is a median over passes of
// whole-sample means, or an exact count.

#include <filesystem>
#include <string>
#include <vector>

#include "measure.h"

namespace fsdm::perfbench {

struct LayerInputs {
  /// The workload's documents in generation order; doc i has key i.
  std::vector<std::string> docs;
  /// replacements[i] is a new version of docs[i] (the workload's writes).
  std::vector<std::string> replacements;
  /// A pristine copy of the workload's log: OSON decode and Wal::Open
  /// replay it, and recovery from it gives the collection whose
  /// CheckConsistency() is timed.
  std::filesystem::path wal_copy;
  /// Empty directory the suite may use for its own logs.
  std::filesystem::path scratch;
  /// Configure the suite's collections like the workload's.
  bool search_index = true;
  /// Also time the eleven NOBENCH query shapes over an IMC of `docs`
  /// (workloads that time them in their own loop say false).
  bool queries = true;
  /// Also derive imc.docs_reencoded_per_doc_changed from one Replace batch
  /// (workloads that measure it in their own loop say false).
  bool imc_refresh = true;
};

void RunLayerSuite(const LayerInputs& in, Report* report);

/// query.q01_us ... query.q11_us from per-query samples (index q-1).
void EmitQueryMetrics(const std::vector<std::vector<double>>& us_by_query,
                      Report* report);

}  // namespace fsdm::perfbench

#endif  // FSDM_PERFBENCH_LAYERS_H_
