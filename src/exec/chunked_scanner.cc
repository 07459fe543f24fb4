#include "exec/chunked_scanner.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "simd/kernels.h"

namespace statdb {

std::vector<ScanChunk> SplitPageAligned(uint64_t rows, size_t cells_per_page,
                                        size_t num_chunks) {
  std::vector<ScanChunk> chunks;
  if (rows == 0 || cells_per_page == 0 || num_chunks == 0) return chunks;
  uint64_t cpp = cells_per_page;
  uint64_t pages = (rows + cpp - 1) / cpp;
  uint64_t pages_per_chunk = (pages + num_chunks - 1) / num_chunks;
  for (uint64_t first = 0; first < pages; first += pages_per_chunk) {
    ScanChunk c;
    c.begin = first * cpp;
    c.end = std::min<uint64_t>(rows, (first + pages_per_chunk) * cpp);
    chunks.push_back(c);
  }
  return chunks;
}

ColumnScanResult FoldColumnSpan(const double* data, size_t n,
                                bool want_counts) {
  ColumnScanResult out;
  // Span-batched kernel (simd/kernels.h): same count/min/max as the
  // serial fold, moments within the documented 4-lane tolerance.
  out.desc = simd::DescribeSpan(data, n);
  if (want_counts) {
    out.counts.Reserve(n);
    for (size_t i = 0; i < n; ++i) out.counts.Add(data[i]);
  }
  return out;
}

namespace {

Status ScanOneChunk(const ScanChunk& chunk, const ColumnRangeReader& reader,
                    const ColumnScanSpec& spec, ColumnScanResult* out,
                    ChunkScanStat* stat) {
  std::chrono::steady_clock::time_point start;
  if (stat != nullptr) start = std::chrono::steady_clock::now();
  STATDB_ASSIGN_OR_RETURN(std::vector<double> data,
                          reader(chunk.begin, chunk.end));
  *out = FoldColumnSpan(data.data(), data.size(), spec.want_counts);
  if (stat != nullptr) {
    stat->rows = data.size();
    stat->start = start;
    stat->wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  if (spec.keep_values) {
    out->values = std::move(data);
  }
  return Status::OK();
}

}  // namespace

Result<ColumnScanResult> ParallelScanColumn(uint64_t rows,
                                            size_t cells_per_page,
                                            const ColumnRangeReader& reader,
                                            const ColumnScanSpec& spec,
                                            ThreadPool* pool) {
  // Over-decompose relative to the worker count so a slow chunk (cold
  // pages, eviction pressure) cannot straggle the whole pass.
  size_t num_chunks = pool == nullptr ? 1 : pool->size() * 4;
  std::vector<ScanChunk> chunks =
      SplitPageAligned(rows, cells_per_page, num_chunks);

  ColumnScanResult result;
  result.chunks = chunks.size();
  std::vector<ColumnScanResult> partials(chunks.size());
  if (spec.time_chunks) result.chunk_stats.resize(chunks.size());
  auto stat_of = [&result](size_t i) -> ChunkScanStat* {
    return result.chunk_stats.empty() ? nullptr : &result.chunk_stats[i];
  };
  if (pool == nullptr || chunks.size() <= 1) {
    for (size_t i = 0; i < chunks.size(); ++i) {
      STATDB_RETURN_IF_ERROR(
          ScanOneChunk(chunks[i], reader, spec, &partials[i], stat_of(i)));
    }
  } else {
    std::vector<std::function<Status()>> tasks;
    tasks.reserve(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
      tasks.push_back([&chunks, &reader, &spec, &partials, stat_of, i]() {
        return ScanOneChunk(chunks[i], reader, spec, &partials[i],
                            stat_of(i));
      });
    }
    STATDB_RETURN_IF_ERROR(pool->RunAll(std::move(tasks)));
  }

  // Barrier: merge in chunk order, so the merged state (and the
  // concatenated values) are deterministic regardless of which worker
  // finished first.
  for (const ColumnScanResult& p : partials) result.desc.Merge(p.desc);
  if (spec.keep_values && partials.size() == 1) {
    result.values = std::move(partials.front().values);  // no copy
  } else if (spec.keep_values) {
    size_t total = 0;
    for (const ColumnScanResult& p : partials) total += p.values.size();
    result.values.reserve(total);
    for (const ColumnScanResult& p : partials) {
      result.values.insert(result.values.end(), p.values.begin(),
                           p.values.end());
    }
  }
  if (spec.want_counts) {
    if (pool != nullptr && partials.size() > 1) {
      // On a mostly-distinct column the count merge costs as much as the
      // scan itself; a single-threaded fold here would cap the whole
      // pass at ~2x (Amdahl). Values are hash-partitioned into the same
      // shard of every partial, so one task per shard folds its slice
      // of all partials with no cross-shard writes.
      std::vector<std::function<Status()>> merges;
      merges.reserve(ValueCounts::kShards);
      for (size_t s = 0; s < ValueCounts::kShards; ++s) {
        merges.push_back([&result, &partials, s]() {
          size_t total = 0;
          for (const ColumnScanResult& p : partials) {
            total += p.counts.shards[s].size();
          }
          result.counts.shards[s].reserve(total);
          for (const ColumnScanResult& p : partials) {
            result.counts.MergeShard(p.counts, s);
          }
          return Status::OK();
        });
      }
      STATDB_RETURN_IF_ERROR(pool->RunAll(std::move(merges)));
    } else {
      for (const ColumnScanResult& p : partials) result.counts.Merge(p.counts);
    }
  }
  return result;
}

Result<ComomentStats> ParallelScanPairs(uint64_t rows, size_t cells_per_page,
                                        const PairRangeReader& reader,
                                        ThreadPool* pool) {
  size_t num_chunks = pool == nullptr ? 1 : pool->size() * 4;
  std::vector<ScanChunk> chunks =
      SplitPageAligned(rows, cells_per_page, num_chunks);

  std::vector<ComomentStats> partials(chunks.size());
  auto scan_chunk = [&chunks, &reader, &partials](size_t i) -> Status {
    std::vector<double> xs, ys;
    STATDB_RETURN_IF_ERROR(reader(chunks[i].begin, chunks[i].end, &xs, &ys));
    // Span-batched co-moment kernel; simd::Comoments mirrors
    // ComomentStats field-for-field (simd sits below exec in the DAG).
    simd::Comoments cm = simd::ComomentSpan(xs.data(), ys.data(), xs.size());
    partials[i].n = cm.n;
    partials[i].mean_x = cm.mean_x;
    partials[i].mean_y = cm.mean_y;
    partials[i].m2x = cm.m2x;
    partials[i].m2y = cm.m2y;
    partials[i].cxy = cm.cxy;
    return Status::OK();
  };
  if (pool == nullptr || chunks.size() <= 1) {
    for (size_t i = 0; i < chunks.size(); ++i) {
      STATDB_RETURN_IF_ERROR(scan_chunk(i));
    }
  } else {
    std::vector<std::function<Status()>> tasks;
    tasks.reserve(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
      tasks.push_back([scan_chunk, i]() { return scan_chunk(i); });
    }
    STATDB_RETURN_IF_ERROR(pool->RunAll(std::move(tasks)));
  }

  ComomentStats merged;
  for (const ComomentStats& p : partials) merged.Merge(p);
  return merged;
}

}  // namespace statdb
