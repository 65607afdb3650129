#include "trace.h"

#include <atomic>
#include <chrono>

namespace perfbench {

struct SpanBuffer {
  std::vector<SpanRecord> spans;
  int32_t open = -1;  // innermost open span on this thread
};

namespace {

std::atomic<uint64_t> next_tracer_id{1};

// The calling thread's buffer in the tracer it last recorded into. Tracers
// are told apart by id, never by address, so a tracer allocated where an old
// one lived does not inherit its buffer.
thread_local uint64_t tls_tracer_id = 0;
thread_local SpanBuffer* tls_buffer = nullptr;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kBatch: return "load.batch";
    case SpanKind::kIngest: return "load.ingest";
    case SpanKind::kPredicateCompile: return "data.predicate_compile";
    case SpanKind::kHistPrepare: return "hist.prepare";
    case SpanKind::kReserve: return "accounting.reserve";
    case SpanKind::kMaskLookup: return "runtime.mask_cache.lookup";
    case SpanKind::kEvalMask: return "runtime.parallel_scan.eval_mask";
    case SpanKind::kCombine: return "runtime.parallel_scan.combine";
    case SpanKind::kAccumulate: return "runtime.parallel_scan.accumulate";
    case SpanKind::kCountNoise: return "mech.one_sided_laplace";
    case SpanKind::kMechOsdpLaplaceL1: return "mech.osdp_laplace_l1";
    case SpanKind::kMechDawaEngine: return "mech.dawa_engine";
    case SpanKind::kMechDawaHalf: return "mech.dawa_half";
    case SpanKind::kMechDawaz: return "mech.dawaz";
    case SpanKind::kMechHierarchical: return "mech.hierarchical";
    case SpanKind::kMechOther: return "mech.other";
    case SpanKind::kCommit: return "accounting.commit";
    case SpanKind::kTableAppend: return "data.table_builder.append";
    case SpanKind::kTableSnapshot: return "data.table_builder.snapshot";
    case SpanKind::kSnapshotPublish: return "data.snapshot_store.publish";
    case SpanKind::kNumKinds: break;
  }
  return "?";
}

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

Tracer::~Tracer() = default;

SpanBuffer* Tracer::BufferForThisThread() {
  if (tls_tracer_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<SpanBuffer>());
    buffers_.back()->spans.reserve(1 << 16);
    tls_buffer = buffers_.back().get();
    tls_tracer_id = id_;
  }
  return tls_buffer;
}

std::vector<const std::vector<SpanRecord>*> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const std::vector<SpanRecord>*> out;
  for (const auto& b : buffers_) out.push_back(&b->spans);
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    b->spans.clear();
    b->open = -1;
  }
}

Tracer::Scope::Scope(Tracer* tracer, SpanKind kind, uint64_t query_id) {
  if (tracer == nullptr) return;
  buffer_ = tracer->BufferForThisThread();
  index_ = static_cast<int32_t>(buffer_->spans.size());
  SpanRecord span;
  span.kind = kind;
  span.query_id = query_id;
  span.parent = buffer_->open;
  buffer_->open = index_;
  span.start_ns = NowNs();
  buffer_->spans.push_back(span);
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  SpanRecord& span = buffer_->spans[index_];
  span.end_ns = NowNs();
  buffer_->open = span.parent;
}

void Tracer::Scope::set_failed(bool failed) {
  if (buffer_ != nullptr) buffer_->spans[index_].failed = failed;
}

void Tracer::Scope::set_cache_hit(bool hit) {
  if (buffer_ != nullptr) buffer_->spans[index_].cache_hit = hit;
}

void Tracer::Scope::set_value(uint64_t value) {
  if (buffer_ != nullptr) buffer_->spans[index_].value = value;
}

}  // namespace perfbench
