// LayerPipeline: the QueryService request path rebuilt from each layer's
// public calls, so the benchmark can time every call from outside.
//
// It does what QueryService::AnswerBatch and QueryService::Ingest do, in the
// same order and with the same seeding rule: compile or prepare each request
// against the captured snapshot (src/data, src/hist), reserve both budgets in
// batch order (src/accounting), resolve WHERE masks through a MaskCache and
// the sharded scans (src/runtime), release through OsdpEngine::RunMechanism
// (src/core -> src/mech), then commit and record the ledger entry. A batch's
// queries execute across the pool, one chunk per query, as in the service.
//
// Two configurations serve the benchmark:
//   * the traced run: the service's pool and cache size, with a Tracer that
//     records a span around every layer call;
//   * the replay oracle: an inline pool, no cache, no tracer. Its answers must
//     match the service's bit for bit under QuerySeed(root, session, seq,
//     generation) — which shows both that the service is deterministic and
//     that the traced pipeline does the service's work.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/accounting/concurrent.h"
#include "src/core/engine.h"
#include "src/data/snapshot_store.h"
#include "src/data/table_builder.h"
#include "src/runtime/mask_cache.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "trace.h"

namespace perfbench {

class LayerPipeline {
 public:
  struct Options {
    /// Pool every scan and mechanism runs on (not owned; required).
    osdp::ThreadPool* pool = nullptr;
    /// Mask-cache byte budget; 0 = no cache.
    size_t mask_cache_bytes = 64ull << 20;
    /// Root seed of the per-query noise streams.
    uint64_t root_seed = 0;
    /// Service-wide lifetime budget.
    double service_epsilon = 1.0;
    /// Span recorder; nullptr records nothing.
    Tracer* tracer = nullptr;
  };

  /// One analyst session, used by one client thread at a time.
  struct Session {
    Session(uint64_t id, std::string analyst, double epsilon)
        : id(id), analyst(std::move(analyst)), budget(epsilon) {}
    const uint64_t id;
    const std::string analyst;
    osdp::SharedBudget budget;
    uint64_t next_seq = 0;  // guarded by the pipeline's reserve mutex
  };

  /// A request bound to one snapshot's table (borrows it: the snapshot must
  /// outlive the Prepared).
  struct Prepared {
    std::optional<osdp::CompiledPredicate> count_pred;
    std::optional<osdp::PreparedHistogramQuery> hist;
    osdp::EngineMechanism mechanism = osdp::EngineMechanism::kOsdpLaplaceL1;
    double epsilon = 0.0;
    std::string label;
  };

  /// Builds generation 0 from `base` classified by `policy`.
  static osdp::Result<std::unique_ptr<LayerPipeline>> Create(
      const osdp::Table& base, const osdp::Policy& policy, Options options);

  /// Validates and binds `request` against `snap` (data / hist layers).
  osdp::Result<Prepared> Prepare(const osdp::ServiceRequest& request,
                                 const osdp::Snapshot& snap,
                                 uint64_t query_id) const;

  /// Computes the answer of `prepared` over `snap` with the noise stream
  /// `seed` (runtime and mech layers); no budget is touched.
  osdp::Result<osdp::ServiceAnswer> Execute(const Prepared& prepared,
                                            const osdp::Snapshot& snap,
                                            uint64_t seed, uint64_t query_id);

  /// QueryService::AnswerBatch, layer by layer.
  std::vector<osdp::Result<osdp::ServiceAnswer>> AnswerBatch(
      Session* session, const std::vector<osdp::ServiceRequest>& batch);

  /// QueryService::Ingest, layer by layer. Thread-safe.
  osdp::Result<uint64_t> Ingest(const osdp::RowBatch& batch);

  osdp::SnapshotPtr current() const { return store_.Current(); }
  osdp::MaskCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  LayerPipeline(osdp::OsdpEngine engine, osdp::TableBuilder builder,
                osdp::Policy policy, Options options);

  std::shared_ptr<const osdp::RowMask> WhereMask(
      const osdp::CompiledPredicate& pred, const osdp::Snapshot& snap,
      const osdp::ParallelScanOptions& scan, uint64_t query_id, bool* hit);

  osdp::OsdpEngine engine_;
  osdp::Policy policy_;
  Options options_;
  osdp::MaskCache cache_;
  osdp::SharedBudget service_budget_;
  osdp::SharedLedger ledger_;
  std::mutex reserve_mu_;
  std::atomic<uint64_t> next_query_id_{1};

  osdp::SnapshotStore store_;
  std::mutex ingest_mu_;
  osdp::TableBuilder builder_;  // guarded by ingest_mu_
};

/// The RunMechanism span kind of a release: kDawa is split by the route
/// DawaPositions::kAuto takes (kEvery with the cost engine up to 4096 bins,
/// kHalfOverlap above).
SpanKind MechanismSpan(osdp::EngineMechanism mechanism, size_t bins);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
