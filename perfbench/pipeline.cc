#include "pipeline.h"

#include <utility>

#include "src/common/distributions.h"
#include "src/runtime/parallel_scan.h"

namespace perfbench {

using osdp::CompiledPredicate;
using osdp::EngineMechanism;
using osdp::Result;
using osdp::RowMask;
using osdp::ServiceAnswer;
using osdp::Snapshot;
using osdp::Status;
using Scope = Tracer::Scope;

SpanKind MechanismSpan(EngineMechanism mechanism, size_t bins) {
  switch (mechanism) {
    case EngineMechanism::kOsdpLaplaceL1:
      return SpanKind::kMechOsdpLaplaceL1;
    case EngineMechanism::kDawa:
      return bins > 4096 ? SpanKind::kMechDawaHalf : SpanKind::kMechDawaEngine;
    case EngineMechanism::kDawaz:
      return SpanKind::kMechDawaz;
    case EngineMechanism::kHierarchical:
      return SpanKind::kMechHierarchical;
    default:
      return SpanKind::kMechOther;
  }
}

Result<std::unique_ptr<LayerPipeline>> LayerPipeline::Create(
    const osdp::Table& base, const osdp::Policy& policy, Options options) {
  osdp::OsdpEngine::Options eopts;
  eopts.total_epsilon = options.service_epsilon;
  OSDP_ASSIGN_OR_RETURN(osdp::OsdpEngine engine,
                        osdp::OsdpEngine::Create(base, policy, eopts));
  OSDP_ASSIGN_OR_RETURN(
      osdp::TableBuilder builder,
      osdp::TableBuilder::FromSnapshot(*engine.snapshot(), policy));
  return std::unique_ptr<LayerPipeline>(new LayerPipeline(
      std::move(engine), std::move(builder), policy, options));
}

LayerPipeline::LayerPipeline(osdp::OsdpEngine engine,
                             osdp::TableBuilder builder, osdp::Policy policy,
                             Options options)
    : engine_(std::move(engine)),
      policy_(std::move(policy)),
      options_(options),
      cache_(osdp::MaskCache::Options{options.mask_cache_bytes}),
      service_budget_(options.service_epsilon),
      store_(engine_.snapshot()),
      builder_(std::move(builder)) {
  // QueryService routes the mechanisms' deterministic stages onto its pool.
  engine_.set_mech_pool(options_.pool);
}

Result<LayerPipeline::Prepared> LayerPipeline::Prepare(
    const osdp::ServiceRequest& request, const Snapshot& snap,
    uint64_t query_id) const {
  Prepared prepared;
  if (const auto* count = std::get_if<osdp::CountRequest>(&request)) {
    if (count->epsilon <= 0.0) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    Scope span(options_.tracer, SpanKind::kPredicateCompile, query_id);
    Result<CompiledPredicate> compiled =
        CompiledPredicate::Compile(count->where, snap.table.schema());
    span.set_failed(!compiled.ok());
    if (!compiled.ok()) return compiled.status();
    prepared.count_pred = std::move(compiled).ValueOrDie();
    prepared.epsilon = count->epsilon;
    prepared.label = "count query";
    return prepared;
  }
  const auto& hist = std::get<osdp::HistogramRequest>(request);
  if (hist.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  Scope span(options_.tracer, SpanKind::kHistPrepare, query_id);
  Result<osdp::PreparedHistogramQuery> bound =
      osdp::PreparedHistogramQuery::Prepare(snap.table, hist.query);
  span.set_failed(!bound.ok());
  if (!bound.ok()) return bound.status();
  prepared.hist = std::move(bound).ValueOrDie();
  prepared.mechanism = hist.mechanism;
  prepared.epsilon = hist.epsilon;
  prepared.label = std::string("histogram/") +
                   osdp::EngineMechanismToString(hist.mechanism);
  return prepared;
}

std::shared_ptr<const RowMask> LayerPipeline::WhereMask(
    const CompiledPredicate& pred, const Snapshot& snap,
    const osdp::ParallelScanOptions& scan, uint64_t query_id, bool* hit) {
  Scope span(options_.tracer, SpanKind::kMaskLookup, query_id);
  std::shared_ptr<const RowMask> mask = cache_.LookupOrCompute(
      pred, snap.generation,
      [&] {
        Scope eval(options_.tracer, SpanKind::kEvalMask, query_id);
        eval.set_value(snap.table.num_rows());
        return osdp::ParallelEvalMask(pred, snap.table, scan);
      },
      hit);
  span.set_cache_hit(*hit);
  return mask;
}

Result<ServiceAnswer> LayerPipeline::Execute(const Prepared& prepared,
                                             const Snapshot& snap,
                                             uint64_t seed,
                                             uint64_t query_id) {
  Tracer* tracer = options_.tracer;
  const osdp::ParallelScanOptions scan{options_.pool, 0};
  osdp::Rng rng(seed);
  ServiceAnswer answer;
  answer.generation = snap.generation;

  if (prepared.count_pred.has_value()) {
    const std::shared_ptr<const RowMask> where =
        WhereMask(*prepared.count_pred, snap, scan, query_id,
                  &answer.cache_hit);
    double count = 0.0;
    {
      Scope span(tracer, SpanKind::kCombine, query_id);
      RowMask matching = *where;
      osdp::ParallelAndWith(&matching, snap.non_sensitive, scan);
      count = static_cast<double>(osdp::ParallelCount(matching, scan));
    }
    Scope span(tracer, SpanKind::kCountNoise, query_id);
    answer.count =
        count + osdp::SampleOneSidedLaplace(rng, 1.0 / prepared.epsilon);
    return answer;
  }

  // Only the histogram(s) the mechanism reads, exactly as the service does.
  const osdp::PreparedHistogramQuery& query = *prepared.hist;
  const EngineMechanism mech = prepared.mechanism;
  const bool need_x = mech == EngineMechanism::kLaplace ||
                      mech == EngineMechanism::kDawa ||
                      mech == EngineMechanism::kDawaz ||
                      mech == EngineMechanism::kHierarchical;
  const bool need_xns = mech == EngineMechanism::kOsdpLaplace ||
                        mech == EngineMechanism::kOsdpLaplaceL1 ||
                        mech == EngineMechanism::kDawaz;
  std::shared_ptr<const RowMask> where;
  if (query.where() != nullptr) {
    where = WhereMask(*query.where(), snap, scan, query_id, &answer.cache_hit);
  }
  osdp::Histogram x(query.num_bins());
  if (need_x) {
    Scope span(tracer, SpanKind::kAccumulate, query_id);
    if (where != nullptr) {
      x = osdp::ParallelAccumulateHistogram(query, *where, scan);
    } else {
      const RowMask all_rows(snap.table.num_rows(), /*value=*/true);
      x = osdp::ParallelAccumulateHistogram(query, all_rows, scan);
    }
  }
  osdp::Histogram xns(query.num_bins());
  if (need_xns) {
    if (where != nullptr) {
      RowMask selected;
      {
        Scope span(tracer, SpanKind::kCombine, query_id);
        selected = *where;
        osdp::ParallelAndWith(&selected, snap.non_sensitive, scan);
      }
      Scope span(tracer, SpanKind::kAccumulate, query_id);
      xns = osdp::ParallelAccumulateHistogram(query, selected, scan);
    } else {
      Scope span(tracer, SpanKind::kAccumulate, query_id);
      xns = osdp::ParallelAccumulateHistogram(query, snap.non_sensitive, scan);
    }
  }
  Scope span(tracer, MechanismSpan(mech, query.num_bins()), query_id);
  Result<osdp::Histogram> released =
      engine_.RunMechanism(x, xns, prepared.epsilon, mech, rng);
  span.set_failed(!released.ok());
  if (!released.ok()) return released.status();
  answer.histogram = std::move(released).ValueOrDie();
  return answer;
}

std::vector<Result<ServiceAnswer>> LayerPipeline::AnswerBatch(
    Session* session, const std::vector<osdp::ServiceRequest>& batch) {
  Tracer* tracer = options_.tracer;
  std::vector<Result<ServiceAnswer>> results(
      batch.size(), Result<ServiceAnswer>(Status::Internal("not executed")));
  // Query ids of a batch are consecutive; the batch span carries the first
  // and the count, so spans can be grouped by batch.
  const uint64_t first_query_id =
      next_query_id_.fetch_add(batch.size(), std::memory_order_relaxed);
  Scope batch_span(tracer, SpanKind::kBatch, first_query_id);
  batch_span.set_value(batch.size());
  const osdp::SnapshotPtr snap = store_.Current();

  struct Slot {
    uint64_t query_id = 0;
    std::optional<Prepared> prepared;
    osdp::BudgetReservation reservation;
    uint64_t seq = 0;
  };
  std::vector<Slot> slots(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    slots[i].query_id = first_query_id + i;
    Result<Prepared> r = Prepare(batch[i], *snap, slots[i].query_id);
    if (r.ok()) {
      slots[i].prepared = std::move(r).ValueOrDie();
    } else {
      results[i] = r.status();
    }
  }
  {
    std::lock_guard<std::mutex> lock(reserve_mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      Slot& slot = slots[i];
      if (!slot.prepared.has_value()) continue;
      Scope span(tracer, SpanKind::kReserve, slot.query_id);
      Result<osdp::BudgetReservation> reservation =
          osdp::BudgetReservation::Acquire(
              &session->budget, slot.prepared->label, &service_budget_,
              slot.prepared->label + " (" + session->analyst + ")",
              slot.prepared->epsilon);
      span.set_failed(!reservation.ok());
      if (!reservation.ok()) {
        results[i] = reservation.status();
        slot.prepared.reset();
        continue;
      }
      slot.reservation = std::move(reservation).ValueOrDie();
      slot.seq = session->next_seq++;
    }
  }
  // Execution fans out over the pool exactly as in the service: one chunk
  // per query, the calling thread participating.
  options_.pool->ParallelForBlocked(0, batch.size(), 1, [&](size_t lo,
                                                            size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Slot& slot = slots[i];
      if (!slot.prepared.has_value()) continue;
      try {
        Result<ServiceAnswer> answer = Execute(
            *slot.prepared, *snap,
            osdp::QueryService::QuerySeed(options_.root_seed, session->id,
                                          slot.seq, snap->generation),
            slot.query_id);
        if (answer.ok()) {
          answer->seq = slot.seq;
          Scope span(tracer, SpanKind::kCommit, slot.query_id);
          slot.reservation.Commit();
          ledger_.Record(policy_, slot.prepared->epsilon,
                         slot.prepared->label + " (" + session->analyst + ")",
                         snap->generation);
        }
        results[i] = std::move(answer);
      } catch (const std::exception& e) {
        results[i] = Status::Internal(
            std::string("query execution failed: ") + e.what());
      }
      slot.prepared.reset();
    }
  });
  return results;
}

Result<uint64_t> LayerPipeline::Ingest(const osdp::RowBatch& batch) {
  Tracer* tracer = options_.tracer;
  std::lock_guard<std::mutex> lock(ingest_mu_);
  Scope root(tracer, SpanKind::kIngest, 0);
  {
    Scope span(tracer, SpanKind::kTableAppend, 0);
    const Status appended = builder_.Append(batch);
    span.set_failed(!appended.ok());
    if (!appended.ok()) return appended;
  }
  if (batch.num_rows() == 0) return store_.Current()->generation;
  const uint64_t generation = store_.Current()->generation + 1;
  osdp::SnapshotPtr next;
  {
    Scope span(tracer, SpanKind::kTableSnapshot, 0);
    next = builder_.BuildSnapshot(generation);
  }
  Scope span(tracer, SpanKind::kSnapshotPublish, 0);
  store_.Publish(std::move(next));
  return generation;
}

}  // namespace perfbench
