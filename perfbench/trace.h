// In-memory span recorder for the traced run.
//
// A span is one call into a library layer: its kind, start, end, the span
// that was open on the same thread when it started (its parent), and the id
// of the query it served (0 for work that serves no single query, such as an
// ingest). Spans go to a per-thread buffer with no locking on the hot path and
// are collected once every recording thread has been joined.
//
// A layer's self time is its span's duration minus the durations of its
// direct children. Parents are tracked per thread: a query executed on a pool
// worker has its spans there, with no parent, and the batch it belongs to is
// found through its query id.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

struct SpanBuffer;

/// The layer calls the pipeline times. Names are "<layer>.<call>".
enum class SpanKind : uint16_t {
  kBatch,             // load.batch: one AnswerBatch (root); query_id = first
                      // query of the batch, value = its query count
  kIngest,            // load.ingest: one write (root, benchmark glue)
  kPredicateCompile,  // data.predicate_compile: CompiledPredicate::Compile
  kHistPrepare,       // hist.prepare: PreparedHistogramQuery::Prepare
  kReserve,           // accounting.reserve: BudgetReservation::Acquire
  kMaskLookup,        // runtime.mask_cache.lookup: MaskCache::LookupOrCompute
  kEvalMask,          // runtime.parallel_scan.eval_mask: ParallelEvalMask
  kCombine,           // runtime.parallel_scan.combine: ParallelAndWith (+Count)
  kAccumulate,        // runtime.parallel_scan.accumulate
  kCountNoise,        // mech.one_sided_laplace: SampleOneSidedLaplace
  kMechOsdpLaplaceL1,  // mech.osdp_laplace_l1: RunMechanism(kOsdpLaplaceL1)
  kMechDawaEngine,    // mech.dawa_engine: RunMechanism(kDawa), d <= 4096
  kMechDawaHalf,      // mech.dawa_half: RunMechanism(kDawa), d > 4096
  kMechDawaz,         // mech.dawaz: RunMechanism(kDawaz)
  kMechHierarchical,  // mech.hierarchical: RunMechanism(kHierarchical)
  kMechOther,         // mech.other: RunMechanism, any other mechanism
  kCommit,            // accounting.commit: Commit + SharedLedger::Record
  kTableAppend,       // data.table_builder.append: TableBuilder::Append
  kTableSnapshot,     // data.table_builder.snapshot: BuildSnapshot
  kSnapshotPublish,   // data.snapshot_store.publish: SnapshotStore::Publish
  kNumKinds,
};

/// "<layer>.<call>" name of a span kind.
const char* SpanName(SpanKind kind);

/// One recorded span. `parent` indexes the same thread's span list (-1 for
/// a root); `value` carries a per-kind quantity (rows scanned by an
/// eval_mask).
struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t query_id = 0;
  uint64_t value = 0;
  int32_t parent = -1;
  SpanKind kind = SpanKind::kBatch;
  bool failed = false;
  bool cache_hit = false;
};

/// \brief Collects spans from any number of threads.
///
/// Thread-compatible by construction: each thread appends to its own buffer,
/// registered under a mutex the first time it records into this tracer.
/// Spans() and Clear() must run while no thread is recording.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief Opens a span on construction and closes it on destruction. A
  /// null tracer records nothing and reads no clock.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind, uint64_t query_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_failed(bool failed);
    void set_cache_hit(bool hit);
    void set_value(uint64_t value);

   private:
    SpanBuffer* buffer_ = nullptr;
    int32_t index_ = -1;
  };

  /// Every thread's spans, one list per thread, parents indexing within it.
  std::vector<const std::vector<SpanRecord>*> Spans() const;

  /// Drops every recorded span (buffers stay registered).
  void Clear();

 private:
  SpanBuffer* BufferForThisThread();

  const uint64_t id_;
  mutable std::mutex mu_;
  std::deque<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
