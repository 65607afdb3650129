#include "src/runtime/parallel_scan.h"

#include <optional>
#include <vector>

#include "src/common/check.h"

namespace osdp {

namespace {

ThreadPool& PoolOf(const ParallelScanOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : ThreadPool::Default();
}

size_t ShardsOf(const ParallelScanOptions& opts, const ThreadPool& pool) {
  if (opts.num_shards != 0) return opts.num_shards;
  return pool.num_threads() == 0 ? 1 : pool.num_threads();
}

// The per-shard cancellation poll: throws AbortedError when the caller's
// token fired or deadline passed. One branch when no control is attached.
void PollAbort(const ParallelScanOptions& opts) {
  if (opts.control != nullptr) opts.control->ThrowIfAborted();
}

// Runs fn(shard_index, row_begin, row_end) over shards of [0, num_rows)
// whose interior edges are multiples of `alignment` (a multiple of 64, so
// shards always own whole mask words). The shard edges are deterministic,
// so per-shard outputs indexed by shard_index merge deterministically
// regardless of scheduling.
template <typename Fn>
void ForEachShard(size_t num_rows, const ParallelScanOptions& opts,
                  size_t alignment, const Fn& fn) {
  ThreadPool& pool = PoolOf(opts);
  const std::vector<size_t> edges =
      AlignedShards(num_rows, ShardsOf(opts, pool), alignment);
  const size_t shards = edges.size() - 1;
  pool.ParallelForBlocked(0, shards, 1, [&](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      PollAbort(opts);
      fn(s, edges[s], edges[s + 1]);
    }
  });
}

// Per-shard CountAndWords of `a` (ANDed with `b` when non-null), summed in
// shard order.
size_t ParallelCountWords(const RowMask& a, const uint64_t* b,
                          const ParallelScanOptions& opts) {
  ThreadPool& pool = PoolOf(opts);
  const std::vector<size_t> edges =
      AlignedShards(a.size(), ShardsOf(opts, pool), 64);
  const size_t shards = edges.size() - 1;
  std::vector<size_t> partial(shards, 0);
  pool.ParallelForBlocked(0, shards, 1, [&](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      PollAbort(opts);
      partial[s] = CountAndWords(a.words(), b, edges[s] >> 6,
                                 (edges[s + 1] + 63) >> 6);
    }
  });
  size_t total = 0;
  for (size_t n : partial) total += n;
  return total;
}

}  // namespace

RowMask ParallelEvalMask(const CompiledPredicate& pred, const Table& table,
                         const ParallelScanOptions& opts) {
  RowMask out(table.num_rows());
  // Chunk-aligned shards: a shard's typed inner loops never straddle a
  // chunk edge, so each shard is one ForEachSpan span per chunk it owns.
  // Still 64-aligned, so bit-identity to the serial scan is untouched.
  ForEachShard(table.num_rows(), opts, kChunkRows,
               [&](size_t /*shard*/, size_t begin, size_t end) {
                 pred.EvalRangeInto(table, begin, end, &out);
               });
  return out;
}

size_t ParallelCount(const RowMask& mask, const ParallelScanOptions& opts) {
  return ParallelCountWords(mask, nullptr, opts);
}

size_t ParallelCountAnd(const RowMask& a, const RowMask& b,
                        const ParallelScanOptions& opts) {
  OSDP_CHECK(a.size() == b.size());
  return ParallelCountWords(a, b.words(), opts);
}

namespace {

enum class CombineOp { kAnd, kOr, kAndNot };

void ParallelCombine(RowMask* mask, const RowMask& other, CombineOp op,
                     const ParallelScanOptions& opts) {
  OSDP_CHECK(mask->size() == other.size());
  uint64_t* dst = mask->mutable_words();
  const uint64_t* src = other.words();
  ForEachShard(mask->size(), opts, /*alignment=*/64,
               [&](size_t /*shard*/, size_t begin, size_t end) {
                 const size_t wlo = begin >> 6;
                 const size_t whi = (end + 63) >> 6;
                 switch (op) {
                   case CombineOp::kAnd:
                     for (size_t wi = wlo; wi < whi; ++wi) dst[wi] &= src[wi];
                     break;
                   case CombineOp::kOr:
                     for (size_t wi = wlo; wi < whi; ++wi) dst[wi] |= src[wi];
                     break;
                   case CombineOp::kAndNot:
                     for (size_t wi = wlo; wi < whi; ++wi) dst[wi] &= ~src[wi];
                     break;
                 }
               });
}

}  // namespace

void ParallelAndWith(RowMask* mask, const RowMask& other,
                     const ParallelScanOptions& opts) {
  ParallelCombine(mask, other, CombineOp::kAnd, opts);
}

void ParallelOrWith(RowMask* mask, const RowMask& other,
                    const ParallelScanOptions& opts) {
  ParallelCombine(mask, other, CombineOp::kOr, opts);
}

void ParallelAndNotWith(RowMask* mask, const RowMask& other,
                        const ParallelScanOptions& opts) {
  ParallelCombine(mask, other, CombineOp::kAndNot, opts);
}

Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& mask,
                                      const RowMask* and_mask,
                                      const ParallelScanOptions& opts) {
  OSDP_CHECK(and_mask == nullptr || and_mask->size() == mask.size());
  ThreadPool& pool = PoolOf(opts);
  // Chunk-aligned like ParallelEvalMask: shard accumulation loops stay
  // within chunk spans.
  const std::vector<size_t> edges =
      AlignedShards(mask.size(), ShardsOf(opts, pool), kChunkRows);
  const size_t shards = edges.size() - 1;
  const size_t bins = prepared.num_bins();
  std::vector<std::vector<uint64_t>> partial(shards,
                                             std::vector<uint64_t>(bins, 0));
  pool.ParallelForBlocked(0, shards, 1, [&](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      PollAbort(opts);
      prepared.AccumulateRange(mask, and_mask, edges[s], edges[s + 1],
                               partial[s].data());
    }
  });

  // Integer partial counts sum exactly in any order, so the merged
  // histogram equals the serial row-order accumulation bit for bit; the
  // conversion to doubles is exact below 2^53 rows.
  std::vector<uint64_t>& total = partial[0];
  for (size_t s = 1; s < shards; ++s) {
    for (size_t b = 0; b < bins; ++b) total[b] += partial[s][b];
  }
  return Histogram(std::vector<double>(total.begin(), total.end()));
}

Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& selected,
                                      const ParallelScanOptions& opts) {
  return ParallelAccumulateHistogram(prepared, selected, nullptr, opts);
}

Result<Histogram> ParallelComputeHistogramMasked(
    const Table& table, const HistogramQuery& query, const RowMask& mask,
    const ParallelScanOptions& opts) {
  if (mask.size() != table.num_rows()) {
    return Status::InvalidArgument("mask size != table rows");
  }
  OSDP_ASSIGN_OR_RETURN(PreparedHistogramQuery prepared,
                        PreparedHistogramQuery::Prepare(table, query));

  // Shard-parallel WHERE evaluation, then one accumulation pass that ANDs
  // it with `mask` word by word.
  std::optional<RowMask> where_mask;
  if (prepared.where() != nullptr) {
    where_mask = ParallelEvalMask(*prepared.where(), table, opts);
  }
  return ParallelAccumulateHistogram(
      prepared, mask, where_mask ? &*where_mask : nullptr, opts);
}

}  // namespace osdp
