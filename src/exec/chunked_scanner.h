#ifndef STATDB_EXEC_CHUNKED_SCANNER_H_
#define STATDB_EXEC_CHUNKED_SCANNER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/partial_stats.h"
#include "exec/thread_pool.h"

namespace statdb {

/// Half-open row range [begin, end) assigned to one scan task.
struct ScanChunk {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Splits [0, rows) into up to `num_chunks` contiguous ranges whose
/// boundaries fall on multiples of `cells_per_page`, so no two chunks
/// share a storage page and each worker's reads are whole-page. Returns
/// fewer (possibly zero) chunks when the column is small.
std::vector<ScanChunk> SplitPageAligned(uint64_t rows, size_t cells_per_page,
                                        size_t num_chunks);

/// Reads the non-missing numeric cells of rows [begin, end) of one
/// column, in row order. Must be safe to call from multiple threads
/// concurrently (ConcreteView::ReadNumericRange is the canonical
/// binding). Kept as a callback so the execution layer stays below
/// core/ in the dependency DAG.
using ColumnRangeReader =
    std::function<Result<std::vector<double>>(uint64_t begin, uint64_t end)>;

/// Reads the row-aligned numeric pairs of rows [begin, end) of two
/// columns, dropping pairs with either cell missing (pairwise deletion,
/// matching the serial bivariate path).
using PairRangeReader = std::function<Status(
    uint64_t begin, uint64_t end, std::vector<double>* xs,
    std::vector<double>* ys)>;

/// What a parallel column scan should accumulate beyond the always-on
/// DescriptiveStats.
struct ColumnScanSpec {
  /// Build the per-shard value-count maps (mode / distinct / histogram).
  bool want_counts = false;
  /// Keep the column values themselves (order-dependent functions —
  /// median, quantiles — and incremental-maintainer arming need them).
  /// Chunks are concatenated in row order, so `values` is bit-identical
  /// to the serial ReadNumericColumn result.
  bool keep_values = false;
  /// Fill ColumnScanResult::chunk_stats (per-chunk wall time and rows)
  /// for query tracing. Off by default so the untraced hot path pays no
  /// clock reads.
  bool time_chunks = false;
};

/// Wall time and volume of one scan task (spec.time_chunks only). Each
/// task writes its own pre-sized slot, so no synchronization is needed
/// beyond the pool's join barrier.
struct ChunkScanStat {
  uint64_t rows = 0;    // non-missing cells this chunk yielded
  std::chrono::steady_clock::time_point start;  // when the task began
  double wall_ms = 0;   // read + fold wall time on the worker
};

/// Merged result of one parallel pass over a column.
struct ColumnScanResult {
  DescriptiveStats desc;  // count/sum/mean/m2/min/max, merged pairwise
  ValueCounts counts;     // populated when spec.want_counts
  std::vector<double> values;  // populated when spec.keep_values
  size_t chunks = 0;           // how many scan tasks actually ran
  std::vector<ChunkScanStat> chunk_stats;  // spec.time_chunks only
};

/// The leaf fold of every column scan: span-kernel DescriptiveStats over
/// [data, data + n) plus, with `want_counts`, the per-value counts. Every
/// ParallelScanColumn chunk runs exactly this, so a one-chunk (dop 1)
/// scan and a fold of the same values held in memory agree bit for bit.
/// `values`, `chunks` and `chunk_stats` stay empty.
ColumnScanResult FoldColumnSpan(const double* data, size_t n,
                                bool want_counts);

/// Splits one view column into page-aligned chunks, scans them on
/// `pool`'s workers (each folding its rows into private partial states),
/// and merges the partials in chunk order at the join barrier. With a
/// null pool (or a single chunk) the scan runs inline on the caller.
Result<ColumnScanResult> ParallelScanColumn(uint64_t rows,
                                            size_t cells_per_page,
                                            const ColumnRangeReader& reader,
                                            const ColumnScanSpec& spec,
                                            ThreadPool* pool);

/// Same shape for a two-column pass: per-chunk co-moment states merged in
/// chunk order. Used by the parallel bivariate path (correlation,
/// covariance, regression).
Result<ComomentStats> ParallelScanPairs(uint64_t rows, size_t cells_per_page,
                                        const PairRangeReader& reader,
                                        ThreadPool* pool);

}  // namespace statdb

#endif  // STATDB_EXEC_CHUNKED_SCANNER_H_
