// tests/reference_rock.h — the paper-literal ROCK reference that every
// differential suite compares the production path against.
//
// ReferenceCluster is RockClusterer::Cluster spelled out with the
// reference of every layer: the serial all-pairs θ-neighbor sweep (§3.1,
// graph/neighbors.h), then the hashed merge engine, which computes links
// with the Fig. 4 scatter (graph/links.h) and runs the Fig. 3 merge over
// per-cluster hash tables (core/merge_hashed.cc). It runs serially
// whatever the options' thread counts say; the production path must
// reproduce its MergeRecords, clustering, stats and criterion bit for bit
// at any thread count.
//
// ReadStoreRows rebuilds a disk pipeline's sample (PipelineResult::
// sample_rows) from its store, so the pipeline's clustering can be checked
// against ReferenceCluster on the very points it clustered.

#ifndef ROCK_TESTS_REFERENCE_ROCK_H_
#define ROCK_TESTS_REFERENCE_ROCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/merge_engine.h"
#include "core/options.h"
#include "core/rock.h"
#include "data/disk_store.h"
#include "data/transaction.h"
#include "graph/neighbors.h"
#include "similarity/similarity.h"

namespace rock {

/// ComputeNeighbors → RunHashedMergeEngine over all points of `sim`.
inline Result<RockResult> ReferenceCluster(const PointSimilarity& sim,
                                           const RockOptions& options) {
  ROCK_RETURN_IF_ERROR(options.Validate());
  Result<NeighborGraph> graph = ComputeNeighbors(sim, options.theta);
  ROCK_RETURN_IF_ERROR(graph.status());
  return internal::RunHashedMergeEngine(*graph, options);
}

/// The store rows at the sorted positions `rows`, in store order.
inline Result<TransactionDataset> ReadStoreRows(
    const std::string& store_path, const std::vector<uint64_t>& rows) {
  auto reader = TransactionStoreReader::Open(store_path);
  ROCK_RETURN_IF_ERROR(reader.status());
  TransactionDataset out;
  size_t next = 0;
  for (uint64_t row = 0; next < rows.size() && reader->Next(); ++row) {
    if (row == rows[next]) {
      out.AddTransaction(reader->transaction());
      ++next;
    }
  }
  ROCK_RETURN_IF_ERROR(reader->status());
  if (next != rows.size()) {
    return Status::InvalidArgument("sample row past the end of the store");
  }
  return out;
}

}  // namespace rock

#endif  // ROCK_TESTS_REFERENCE_ROCK_H_
