#ifndef FSDM_PERFBENCH_NOBENCH_QUERIES_H_
#define FSDM_PERFBENCH_NOBENCH_QUERIES_H_

// The eleven NOBENCH query shapes come from the paper-figure benches'
// fixture (bench/nobench.h). This file adds what the benchmark needs around
// them: a fixture over a collection the benchmark configures itself, and a
// canonical rendering of query answers for the oracles.

#include <memory>
#include <string>

#include "bench/nobench.h"

namespace fsdm::perfbench {

using benchutil::NbAccess;
using benchutil::NbDataset;

inline constexpr int kNobenchQueries = 11;

/// Wraps `coll`, created in `ds->db`, as the fixture's collection, and
/// samples the predicate parameters from `doc` the way NbDataset::Build
/// does; fields `doc` lacks keep neutral defaults.
void AdoptCollection(std::unique_ptr<collection::JsonCollection> coll,
                     const std::string& doc, NbDataset* ds);

/// Plan for query `q` (1-based) of benchutil::NobenchQueries().
Result<rdbms::OperatorPtr> NobenchQuery(int q, const NbDataset& ds,
                                        const NbAccess& access);

/// Top-level "num" of a generated NOBENCH document (it precedes the nested
/// object's "num" in generation order); -1 when absent.
int64_t TopLevelNum(const std::string& doc);

/// Drains `op` and returns its rows rendered, sorted and joined: equal
/// strings mean equal answers regardless of row order. The access's
/// document column is left out (text in one mode, an OSON image in the
/// other); selections are compared by the keys they return.
Result<std::string> CanonicalAnswer(rdbms::Operator* op,
                                    const NbAccess& access);

}  // namespace fsdm::perfbench

#endif  // FSDM_PERFBENCH_NOBENCH_QUERIES_H_
