#include "src/obs/trace.h"

#include <sstream>

namespace osdp {
namespace obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kAdmit:
      return "admit";
    case Stage::kValidate:
      return "validate";
    case Stage::kReserve:
      return "reserve";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kScan:
      return "scan";
    case Stage::kMechanism:
      return "mechanism";
    case Stage::kBudgetCharge:
      return "budget_charge";
  }
  return "unknown";
}

void TraceRing::Push(const Trace& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slots_.empty()) {
    ++pushed_;
    return;
  }
  slots_[pushed_ % slots_.size()] = trace;
  ++pushed_;
}

uint64_t TraceRing::pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pushed_;
}

std::vector<Trace> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Trace> out;
  if (slots_.empty() || pushed_ == 0) return out;
  const size_t live = pushed_ < slots_.size()
                          ? static_cast<size_t>(pushed_)
                          : slots_.size();
  out.reserve(live);
  // Oldest first: when the ring has wrapped, the oldest live trace sits at
  // the next write position.
  const size_t start = pushed_ < slots_.size() ? 0 : pushed_ % slots_.size();
  for (size_t i = 0; i < live; ++i) {
    out.push_back(slots_[(start + i) % slots_.size()]);
  }
  return out;
}

std::string TraceRing::DumpText() const {
  const std::vector<Trace> traces = Snapshot();
  std::ostringstream out;
  for (const Trace& t : traces) {
    out << "session=" << t.session << " seq=" << t.seq
        << " gen=" << t.generation << " status=" << t.status_code
        << (t.is_histogram ? " histogram" : " count")
        << (t.cache_hit ? " cache_hit" : "") << " total_ns=" << t.total_ns
        << " |";
    for (uint8_t i = 0; i < t.num_events; ++i) {
      out << " " << StageName(t.events[i].stage) << "="
          << t.events[i].duration_ns;
    }
    out << "\n";
  }
  return out.str();
}

std::string TraceRing::DumpJson() const {
  const std::vector<Trace> traces = Snapshot();
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < traces.size(); ++i) {
    const Trace& t = traces[i];
    if (i) out << ", ";
    out << "{\"session\": " << t.session << ", \"seq\": " << t.seq
        << ", \"generation\": " << t.generation
        << ", \"status\": " << t.status_code << ", \"cache_hit\": "
        << (t.cache_hit ? "true" : "false") << ", \"is_histogram\": "
        << (t.is_histogram ? "true" : "false")
        << ", \"start_ns\": " << t.start_ns
        << ", \"total_ns\": " << t.total_ns << ", \"stages\": {";
    for (uint8_t e = 0; e < t.num_events; ++e) {
      if (e) out << ", ";
      out << '"' << StageName(t.events[e].stage)
          << "\": " << t.events[e].duration_ns;
    }
    out << "}}";
  }
  out << "]";
  return out.str();
}

}  // namespace obs
}  // namespace osdp
