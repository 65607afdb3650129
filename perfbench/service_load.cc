// service_load: closed-loop load benchmark of the public QueryService API.
//
//   service_load --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>] [--corrupt none|answer|epsilon]
//
// --trace 0 (end-to-end run). Set-up (table generation, OsdpEngine::Create,
// QueryService::Create, cache warm-up) runs five times and the median of its
// CPU time is setup_s. Then each client thread — one session each — submits
// its pre-generated batches one at a time for --seconds, while a paced
// open-loop writer calls Ingest where the workload has one. Telemetry is off
// (Options::metrics_enabled = false). Set-up, throughput and batch latencies
// are CPU times (see CostClock) taken to the host-speed probe's reference
// speed (see HostProbe); the raw CPU and wall-clock figures are printed on
// comment lines. peak_rss_mb is the peak resident size after set-up.
//
// --trace 1 (traced run). The same untraced service phase, then the same
// request stream driven through LayerPipeline with a span around every layer
// call; prints the per-layer metrics.
//
// Every run ends with the correctness gate: a deterministic sample of the
// delivered answers is replayed serially through the pipeline with an inline
// pool and no cache and must match bit for bit; Σ ε delivered must equal the
// service budget spent and the ledger must hold one entry per delivered
// answer. A failed gate exits 3; a bad argument or a configuration with more
// threads than processors exits 2. --corrupt alters one sampled answer or the
// ε tally before the gate, so a test can check that the gate fires.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": ..,
//    "metrics": {name: {"value": .., "unit": ..}}}

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "pipeline.h"
#include "src/benchdata/table_gen.h"
#include "src/common/distributions.h"
#include "src/hist/histogram_query.h"
#include "src/mech/dawa.h"
#include "src/mech/interval_costs.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using osdp::Result;
using osdp::ServiceAnswer;
using osdp::ServiceRequest;

constexpr int kSetupReps = 5;
constexpr int kSetupProbes = 8;  // HostProbe runs before each set-up
constexpr double kServiceEpsilon = 1e7;
constexpr double kSessionEpsilon = 1e6;
// Per session, the replay gate keeps the first kHeadCounts count answers and
// kHeadHists histogram answers, every answer at a geometric checkpoint, and
// the last answer. The first kHeadHists histogram answers are also the
// hist_mean_abs_error set: fixed for a seed wherever generations do not
// depend on timing.
constexpr uint64_t kHeadCounts = 24;
constexpr uint64_t kHeadHists = 80;
constexpr double kCheckpointGrowth = 1.25;
constexpr int kDawaSharePairs = 41;
constexpr uint64_t kWrittenQueries = 10000;
constexpr int kExitGate = 3;
constexpr int kExitUsage = 2;

double RequestEpsilon(const ServiceRequest& r) {
  if (const auto* c = std::get_if<osdp::CountRequest>(&r)) return c->epsilon;
  return std::get<osdp::HistogramRequest>(r).epsilon;
}

// ------------------------------------------------------------ recording ---

// A delivered answer kept for the replay gate.
struct Kept {
  uint64_t session = 0;
  const ServiceRequest* request = nullptr;
  ServiceAnswer answer;
  bool error_set = false;
};

// Decides, as a session's answers arrive in seq order, which ones to keep.
class Sampler {
 public:
  explicit Sampler(uint64_t session) : session_(session) {}

  void Offer(const ServiceRequest& request, ServiceAnswer answer) {
    const bool is_count = answer.histogram == std::nullopt;
    const uint64_t type_ordinal = is_count ? counts_++ : hists_++;
    Kept k{session_, &request, std::move(answer),
           !is_count && type_ordinal < kHeadHists};
    const bool head = type_ordinal < (is_count ? kHeadCounts : kHeadHists);
    const bool checkpoint = ordinal_ == next_checkpoint_;
    if (checkpoint) {
      next_checkpoint_ = std::max<uint64_t>(
          next_checkpoint_ + 1,
          static_cast<uint64_t>(next_checkpoint_ * kCheckpointGrowth));
    }
    ++ordinal_;
    if (head || checkpoint) {
      kept_.push_back(std::move(k));
      last_.reset();
    } else {
      last_ = std::move(k);
    }
  }

  std::vector<Kept> Finish() {
    if (last_.has_value()) kept_.push_back(std::move(*last_));
    last_.reset();
    return std::move(kept_);
  }

 private:
  uint64_t session_;
  uint64_t ordinal_ = 0;
  uint64_t counts_ = 0;
  uint64_t hists_ = 0;
  uint64_t next_checkpoint_ = 0;
  std::vector<Kept> kept_;
  std::optional<Kept> last_;
};

// What one phase observed.
struct Observed {
  std::vector<double> count_ms, hist_ms, ingest_ms, writer_lag_ms;
  // CPU time spent answering each batch (see CostClock), as measured and at
  // the probe's reference speed (see HostProbe).
  std::vector<double> count_cpu_ms, hist_cpu_ms, count_ref_ms, hist_ref_ms;
  std::vector<double> probe_ns;  // HostProbe runs between batches
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t queries = 0;  // query slots submitted
  uint64_t delivered = 0;
  double eps_delivered = 0.0;
  double batch_ns = 0.0;      // Σ client-observed AnswerBatch wall time
  double batch_cpu_ns = 0.0;  // Σ CPU time spent answering batches
  double batch_ref_ns = 0.0;  // the same at the reference speed
  double wall_s = 0.0;
  std::vector<Kept> kept;

  void Merge(Observed&& o) {
    for (auto [to, from] : {std::pair{&count_ms, &o.count_ms},
                            std::pair{&hist_ms, &o.hist_ms},
                            std::pair{&count_cpu_ms, &o.count_cpu_ms},
                            std::pair{&hist_cpu_ms, &o.hist_cpu_ms},
                            std::pair{&count_ref_ms, &o.count_ref_ms},
                            std::pair{&hist_ref_ms, &o.hist_ref_ms},
                            std::pair{&probe_ns, &o.probe_ns},
                            std::pair{&ingest_ms, &o.ingest_ms},
                            std::pair{&writer_lag_ms, &o.writer_lag_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    attempted += o.attempted;
    failed += o.failed;
    queries += o.queries;
    delivered += o.delivered;
    eps_delivered += o.eps_delivered;
    batch_ns += o.batch_ns;
    batch_cpu_ns += o.batch_cpu_ns;
    batch_ref_ns += o.batch_ref_ns;
    for (Kept& k : o.kept) kept.push_back(std::move(k));
  }
};

// Records one answered batch into `obs` / `sampler`: its wall time t1 - t0,
// the CPU time cpu_ns spent answering it, and that time multiplied by
// `scale`, the factor to the reference speed.
void RecordBatch(const Batch& batch,
                 std::vector<Result<ServiceAnswer>> results, uint64_t t0,
                 uint64_t t1, uint64_t cpu_ns, double scale, Sampler* sampler,
                 Observed* obs) {
  const double ms = static_cast<double>(t1 - t0) * 1e-6;
  const double cpu_ms = static_cast<double>(cpu_ns) * 1e-6;
  (batch.is_count ? obs->count_ms : obs->hist_ms).push_back(ms);
  (batch.is_count ? obs->count_cpu_ms : obs->hist_cpu_ms).push_back(cpu_ms);
  (batch.is_count ? obs->count_ref_ms : obs->hist_ref_ms)
      .push_back(cpu_ms * scale);
  obs->batch_ns += static_cast<double>(t1 - t0);
  obs->batch_cpu_ns += static_cast<double>(cpu_ns);
  obs->batch_ref_ns += static_cast<double>(cpu_ns) * scale;
  for (size_t i = 0; i < results.size(); ++i) {
    ++obs->attempted;
    ++obs->queries;
    if (!results[i].ok()) {
      ++obs->failed;
      continue;
    }
    ++obs->delivered;
    obs->eps_delivered += RequestEpsilon(batch.requests[i]);
    sampler->Offer(batch.requests[i], std::move(*results[i]));
  }
}

// ------------------------------------------------------------ statistics ---

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// -------------------------------------------------------------- CPU time ---

uint64_t ReadClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ProcessCpuNs() { return ReadClockNs(CLOCK_PROCESS_CPUTIME_ID); }

// The CPU time a client's batches cost. Time the virtual processor was taken
// by the hypervisor, or the thread waited for a processor another program
// held, is not CPU time of this process; how fast the processor ran while it
// was this process's still is (see HostProbe).
//
// With one client, a batch costs the CPU time of the whole process (the
// client and the pool workers running its chunks) minus the writer thread's.
// With several clients the pool must be inline, and a batch costs its client
// thread's CPU time.
class CostClock {
 public:
  CostClock() = default;
  CostClock(bool whole_process, std::optional<clockid_t> writer)
      : whole_process_(whole_process), writer_(writer) {}

  uint64_t Now() const {
    if (!whole_process_) return ReadClockNs(CLOCK_THREAD_CPUTIME_ID);
    // Reading the writer's clock first brings its running time up to date,
    // so the process total read next counts it too.
    const uint64_t writer = writer_ ? ReadClockNs(*writer_) : 0;
    return ProcessCpuNs() - writer;
  }

 private:
  bool whole_process_ = false;
  std::optional<clockid_t> writer_;
};

// ------------------------------------------------------------ host speed ---

// On a shared host the other guests slow every CPU-bound step of this one,
// CPU time included, by up to ~1.9x for minutes at a time, and the guest sees
// no steal time for it. HostProbe times a fixed workload of the benchmark's
// own beside the measured work, and the end-to-end times are reported at the
// probe's reference speed: value × kProbeReferenceNs / (median time of the
// probes run just before).
//
// Compute-bound and memory-bound steps slow by different factors, so the
// probe mixes three kernels and its time is the geometric mean of theirs:
//   Scan     range predicates over two 1M-row columns into a bit mask
//            (predicate scans);
//   Combine  AND and count of two 1M-bit masks, then a masked 64-bin
//            histogram of a 1M-row column (mask combine, accumulation);
//   Compute  a dependent floating-point chain and prefix-sum tree updates
//            (mechanisms).
constexpr size_t kScanRows = size_t{1} << 20;
constexpr size_t kScanSliceRows = size_t{1} << 15;
constexpr size_t kCombineRows = size_t{1} << 20;
constexpr size_t kCombineSliceRows = size_t{1} << 17;
constexpr size_t kTreeSize = size_t{1} << 14;
constexpr int kComputeSteps = 8000;
constexpr uint64_t kProbePeriodNs = 50000000;  // at most one probe per 50 ms
constexpr size_t kRecentProbes = 3;
// The reference speed: the probe taking 250 µs, about what it took on a
// 4-vCPU Sapphire Rapids guest of a busy host.
constexpr double kProbeReferenceNs = 250000.0;

class HostProbe {
 public:
  HostProbe()
      : scan_a_(kScanRows), scan_b_(kScanRows), mask_a_(kCombineRows / 64),
        mask_b_(kCombineRows / 64), column_(kCombineRows), tree_(kTreeSize) {
    uint64_t z = 0x9E3779B97F4A7C15ull;
    auto next = [&z] { return z = Mix(z, 1); };
    for (size_t i = 0; i < kScanRows; ++i) {
      scan_a_[i] = static_cast<int32_t>(next() % 10000);
      scan_b_[i] = static_cast<float>(next() % 1000000) * 0.5f;
    }
    for (size_t i = 0; i < mask_a_.size(); ++i) {
      mask_a_[i] = next();
      mask_b_[i] = next();
    }
    for (uint8_t& v : column_) v = static_cast<uint8_t>(next() % 100);
  }

  // Resident size of the probe's buffers.
  static double Mb() {
    return static_cast<double>(kScanRows * (sizeof(int32_t) + sizeof(float)) +
                               kCombineRows / 64 * 2 * sizeof(uint64_t) +
                               kCombineRows + kTreeSize * sizeof(double)) /
           (1024.0 * 1024.0);
  }

  // Runs the three kernels once on the calling thread; returns the
  // geometric mean of their CPU times.
  double Run() {
    const uint64_t t0 = ReadClockNs(CLOCK_THREAD_CPUTIME_ID);
    Scan();
    const uint64_t t1 = ReadClockNs(CLOCK_THREAD_CPUTIME_ID);
    Combine();
    const uint64_t t2 = ReadClockNs(CLOCK_THREAD_CPUTIME_ID);
    Compute();
    const uint64_t t3 = ReadClockNs(CLOCK_THREAD_CPUTIME_ID);
    ++round_;
    return std::cbrt(static_cast<double>(t1 - t0) *
                     static_cast<double>(t2 - t1) *
                     static_cast<double>(t3 - t2));
  }

  uint64_t sink() const { return sink_; }

 private:
  void Scan() {
    const size_t lo = round_ % (kScanRows / kScanSliceRows) * kScanSliceRows;
    uint64_t count = 0;
    for (size_t w = lo; w < lo + kScanSliceRows; w += 64) {
      uint64_t word = 0;
      for (size_t j = 0; j < 64; ++j) {
        const bool hit = scan_a_[w + j] >= 2000 && scan_a_[w + j] < 7000 &&
                         scan_b_[w + j] >= 1e5f && scan_b_[w + j] < 4e5f;
        word |= static_cast<uint64_t>(hit) << j;
      }
      count += static_cast<uint64_t>(__builtin_popcountll(word));
    }
    sink_ += count;
  }

  void Combine() {
    uint64_t count = 0;
    for (size_t i = 0; i < mask_a_.size(); ++i) {
      count += static_cast<uint64_t>(
          __builtin_popcountll(mask_a_[i] & mask_b_[i]));
    }
    uint64_t hist[64] = {};
    const size_t lo =
        round_ % (kCombineRows / kCombineSliceRows) * kCombineSliceRows;
    for (size_t w = lo / 64; w < (lo + kCombineSliceRows) / 64; ++w) {
      uint64_t bits = mask_a_[w] & mask_b_[w];
      while (bits != 0) {
        const size_t row = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        ++hist[column_[row] & 63];
        bits &= bits - 1;
      }
    }
    sink_ += count + hist[round_ & 63];
  }

  void Compute() {
    double x = 1.0 + static_cast<double>(round_ & 1023) * 1e-6;
    uint64_t r = round_ + 1;
    for (int i = 0; i < kComputeSteps; ++i) {
      x = x * 0.999999 + 1.0 / (x + 3.0);
      r = r * 6364136223846793005ull + 1442695040888963407ull;
      for (size_t k = (r >> 50) + 1; k <= kTreeSize; k += k & (~k + 1)) {
        tree_[k - 1] += x;
      }
    }
    sink_ += static_cast<uint64_t>(x + tree_[r % kTreeSize]);
  }

  std::vector<int32_t> scan_a_;
  std::vector<float> scan_b_;
  std::vector<uint64_t> mask_a_, mask_b_;
  std::vector<uint8_t> column_;
  std::vector<double> tree_;
  uint64_t round_ = 0;
  uint64_t sink_ = 0;
};

// The system under load: the service, or the traced pipeline.
struct Target {
  std::function<std::vector<Result<ServiceAnswer>>(
      size_t client, const std::vector<ServiceRequest>&)>
      answer;
  std::function<Result<uint64_t>(const osdp::Table&)> ingest;
  std::vector<uint64_t> sessions;  // per client
};

// The measured phase: the closed-loop clients, plus the paced writer if the
// workload has one, for `seconds`. Client c runs probes[c] between batches.
Observed RunPhase(const Workload& w, const Target& target, double seconds,
                  std::vector<HostProbe>* probes) {
  const size_t clients = w.spec.clients;
  std::vector<Observed> per_client(clients);
  std::vector<std::optional<Sampler>> samplers(clients);
  for (size_t c = 0; c < clients; ++c) samplers[c].emplace(target.sessions[c]);
  Observed writer_obs;
  std::atomic<bool> go{false};
  std::atomic<size_t> clients_running{clients};
  CostClock cost;  // written before `go`, read after
  std::atomic<uint64_t> t_start{0};
  std::atomic<uint64_t> t_last{0};
  const uint64_t span_ns = static_cast<uint64_t>(seconds * 1e9);

  auto note_end = [&t_last](uint64_t t) {
    uint64_t prev = t_last.load();
    while (prev < t && !t_last.compare_exchange_weak(prev, t)) {
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t deadline = t_start.load() + span_ns;
      const std::vector<Batch>& stream = w.streams[c];
      uint64_t now = NowNs();
      uint64_t next_probe = now;
      // A batch is scaled by the median of the client's last three probes,
      // so a host that speeds up or slows down within the run is followed.
      std::vector<double> recent;
      double scale = 1.0;
      for (size_t i = 0; now < deadline; ++i) {
        if (now >= next_probe) {
          recent.push_back((*probes)[c].Run());
          per_client[c].probe_ns.push_back(recent.back());
          if (recent.size() > kRecentProbes) recent.erase(recent.begin());
          scale = kProbeReferenceNs / Quantile(recent, 0.5);
          next_probe = NowNs() + kProbePeriodNs;
        }
        const Batch& batch = stream[i % stream.size()];
        const uint64_t cpu0 = cost.Now();
        const uint64_t t0 = NowNs();
        auto results = target.answer(c, batch.requests);
        now = NowNs();
        const uint64_t cpu1 = cost.Now();
        RecordBatch(batch, std::move(results), t0, now,
                    cpu1 > cpu0 ? cpu1 - cpu0 : 0, scale, &*samplers[c],
                    &per_client[c]);
      }
      note_end(now);
      clients_running.fetch_sub(1);
    });
  }
  if (w.spec.writer) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t start = t_start.load();
      const uint64_t period =
          static_cast<uint64_t>(kIngestPeriodMs * 1e6);
      for (size_t k = 0; k < w.ingest_batches.size(); ++k) {
        const uint64_t due = start + k * period;
        if (due >= start + span_ns) break;
        // The writer owns a processor of the thread budget and busy-waits on
        // it: a thread woken from sleep on a halted virtual processor can
        // start milliseconds late, and that lateness belongs to the
        // generator, not to the service.
        while (NowNs() < due) {
        }
        const uint64_t t0 = NowNs();
        const bool ok = target.ingest(w.ingest_batches[k]).ok();
        const uint64_t t1 = NowNs();
        ++writer_obs.attempted;
        if (!ok) ++writer_obs.failed;
        writer_obs.writer_lag_ms.push_back(static_cast<double>(t0 - due) *
                                           1e-6);
        writer_obs.ingest_ms.push_back(static_cast<double>(t1 - due) * 1e-6);
        note_end(t1);
      }
      // The clients read this thread's CPU clock until they are done, and
      // the clock of a thread that has ended cannot be read.
      while (clients_running.load() > 0) std::this_thread::yield();
    });
  }
  std::optional<clockid_t> writer_clock;
  if (w.spec.writer) {
    clockid_t id;
    if (pthread_getcpuclockid(threads.back().native_handle(), &id) == 0) {
      writer_clock = id;
    }
  }
  cost = CostClock(clients == 1, writer_clock);
  t_start.store(NowNs());
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  Observed all;
  for (size_t c = 0; c < clients; ++c) {
    per_client[c].kept = samplers[c]->Finish();
    all.Merge(std::move(per_client[c]));
  }
  all.Merge(std::move(writer_obs));
  all.wall_s = static_cast<double>(t_last.load() - t_start.load()) * 1e-9;
  return all;
}

// ------------------------------------------------------------- resources ---

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Aggregate CPU time counters of /proc/stat, in clock ticks.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTimes t;
  stat >> cpu;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// The share of CPU time the hypervisor gave to other guests: a run with a
// high share was measured on a contended host.
double StealShare(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

size_t NumProcessors() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

// ---------------------------------------------------------------- set-up ---

struct Service {
  osdp::Table base;
  std::unique_ptr<osdp::QueryService> service;
  Observed warmup;
};

Service SetUp(const Workload& w, osdp::ThreadPool* pool) {
  Service s;
  osdp::CensusTableOptions topts;
  topts.num_rows = w.spec.base_rows;
  topts.seed = BaseTableSeed(w.seed);
  s.base = osdp::MakeCensusTable(topts);
  osdp::OsdpEngine::Options eopts;
  eopts.total_epsilon = kServiceEpsilon;
  osdp::OsdpEngine engine =
      *osdp::OsdpEngine::Create(s.base, BenchPolicy(), eopts);
  osdp::QueryService::Options sopts;
  sopts.per_session_epsilon = kSessionEpsilon;
  sopts.pool = pool;
  sopts.seed = ServiceRootSeed(w.seed);
  sopts.metrics_enabled = false;
  s.service = *osdp::QueryService::Create(std::move(engine), sopts);
  const uint64_t session = s.service->OpenSession("warmup");
  Sampler sampler(session);
  for (const Batch& batch : w.warmup) {
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    auto results = s.service->AnswerBatch(session, batch.requests);
    const uint64_t t1 = NowNs();
    RecordBatch(batch, std::move(results), t0, t1, ProcessCpuNs() - cpu0, 1.0,
                &sampler, &s.warmup);
  }
  s.warmup.kept = sampler.Finish();
  return s;
}

// ------------------------------------------------------ correctness gate ---

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameAnswer(const ServiceAnswer& a, const ServiceAnswer& b) {
  if (a.histogram.has_value() != b.histogram.has_value()) return false;
  if (!a.histogram.has_value()) return SameBits(a.count, b.count);
  if (a.histogram->size() != b.histogram->size()) return false;
  for (size_t i = 0; i < a.histogram->size(); ++i) {
    if (!SameBits((*a.histogram)[i], (*b.histogram)[i])) return false;
  }
  return true;
}

struct GateResult {
  bool ok = true;
  size_t replayed = 0;
  double abs_error_sum = 0.0;  // Σ |released - exact| over the error set
  double exact_sum = 0.0;      // Σ exact over the error set
};

// Replays every kept answer through the inline, cache-less pipeline,
// rebuilding generation g as the base table plus the first g writer batches.
GateResult ReplayGate(const Workload& w, const osdp::Table& base,
                      const std::vector<Kept>& kept) {
  GateResult gate;
  osdp::ThreadPool inline_pool(0);
  LayerPipeline::Options opts;
  opts.pool = &inline_pool;
  opts.mask_cache_bytes = 0;
  opts.root_seed = ServiceRootSeed(w.seed);
  opts.service_epsilon = kServiceEpsilon;
  auto oracle = LayerPipeline::Create(base, BenchPolicy(), opts);
  if (!oracle.ok()) {
    std::fprintf(stderr, "gate: oracle: %s\n",
                 oracle.status().ToString().c_str());
    gate.ok = false;
    return gate;
  }
  std::vector<const Kept*> order;
  for (const Kept& k : kept) order.push_back(&k);
  std::stable_sort(order.begin(), order.end(),
                   [](const Kept* a, const Kept* b) {
                     return a->answer.generation < b->answer.generation;
                   });
  for (const Kept* kp : order) {
    const Kept& k = *kp;
    const uint64_t g = k.answer.generation;
    while ((*oracle)->current()->generation < g) {
      const uint64_t next = (*oracle)->current()->generation;
      if (next >= w.ingest_batches.size() ||
          !(*oracle)->Ingest(w.ingest_batches[next]).ok()) {
        std::fprintf(stderr, "gate: cannot rebuild generation %llu\n",
                     static_cast<unsigned long long>(g));
        gate.ok = false;
        return gate;
      }
    }
    const osdp::SnapshotPtr snap = (*oracle)->current();
    Result<LayerPipeline::Prepared> prepared =
        (*oracle)->Prepare(*k.request, *snap, 0);
    const uint64_t seed = osdp::QueryService::QuerySeed(
        opts.root_seed, k.session, k.answer.seq, g);
    Result<ServiceAnswer> replay =
        prepared.ok() ? (*oracle)->Execute(*prepared, *snap, seed, 0)
                      : Result<ServiceAnswer>(prepared.status());
    ++gate.replayed;
    if (!replay.ok() || !SameAnswer(*replay, k.answer)) {
      std::fprintf(stderr,
                   "gate: answer (session %llu, seq %llu, generation %llu) "
                   "differs from its serial replay\n",
                   static_cast<unsigned long long>(k.session),
                   static_cast<unsigned long long>(k.answer.seq),
                   static_cast<unsigned long long>(g));
      gate.ok = false;
      continue;
    }
    if (k.error_set) {
      const auto& query = std::get<osdp::HistogramRequest>(*k.request).query;
      const osdp::Histogram exact = *osdp::ComputeHistogram(snap->table, query);
      for (size_t i = 0; i < exact.size(); ++i) {
        gate.abs_error_sum += std::fabs((*k.answer.histogram)[i] - exact[i]);
        gate.exact_sum += exact[i];
      }
    }
  }
  return gate;
}

// Σ ε delivered must equal the budget spent, with one ledger entry per
// delivered answer.
bool ConservationGate(const osdp::QueryService& service, uint64_t delivered,
                      double eps_delivered) {
  const double spent = kServiceEpsilon - service.remaining_budget();
  const bool eps_ok = std::fabs(spent - eps_delivered) <=
                      1e-9 * std::max(1.0, eps_delivered);
  const bool ledger_ok = service.ledger().size() == delivered;
  if (!eps_ok) {
    std::fprintf(stderr, "gate: ε delivered %.17g != service ε spent %.17g\n",
                 eps_delivered, spent);
  }
  if (!ledger_ok) {
    std::fprintf(stderr, "gate: %zu ledger entries for %llu delivered\n",
                 service.ledger().size(),
                 static_cast<unsigned long long>(delivered));
  }
  return eps_ok && ledger_ok;
}

// ----------------------------------------------------------- trace report ---

struct KindStats {
  uint64_t calls = 0;
  uint64_t failed = 0;
  double self_ns = 0.0;
  double total_ns = 0.0;
  uint64_t hits = 0;
  double hit_self_ns = 0.0;
  double miss_self_ns = 0.0;
  uint64_t value = 0;
};

struct TraceReport {
  std::vector<KindStats> kinds =
      std::vector<KindStats>(static_cast<size_t>(SpanKind::kNumKinds));
  double all_self_ns = 0.0;
  // Per batch, the wall time during which at least one of its queries was
  // inside a layer call, summed over batches.
  double covered_ns = 0.0;
  uint64_t batch_queries = 0;
};

bool IsRoot(SpanKind k) {
  return k == SpanKind::kBatch || k == SpanKind::kIngest;
}

TraceReport Aggregate(const Tracer& tracer) {
  TraceReport r;
  struct BatchSpan {
    uint64_t first_query;
    uint64_t queries;
  };
  std::vector<BatchSpan> batches;
  for (const std::vector<SpanRecord>* spans : tracer.Spans()) {
    std::vector<double> child_ns(spans->size(), 0.0);
    for (const SpanRecord& s : *spans) {
      if (s.parent >= 0) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans->size(); ++i) {
      const SpanRecord& s = (*spans)[i];
      const double total = static_cast<double>(s.end_ns - s.start_ns);
      const double self = total - child_ns[i];
      KindStats& k = r.kinds[static_cast<size_t>(s.kind)];
      ++k.calls;
      k.failed += s.failed ? 1 : 0;
      k.self_ns += self;
      k.total_ns += total;
      k.value += s.value;
      if (s.cache_hit) {
        ++k.hits;
        k.hit_self_ns += self;
      } else {
        k.miss_self_ns += self;
      }
      r.all_self_ns += self;
      if (s.kind == SpanKind::kBatch) {
        batches.push_back({s.query_id, s.value});
        r.batch_queries += s.value;
      }
    }
  }
  std::sort(batches.begin(), batches.end(),
            [](const BatchSpan& a, const BatchSpan& b) {
              return a.first_query < b.first_query;
            });
  // (batch index, start, end) of every layer call that served a query.
  std::vector<std::tuple<size_t, uint64_t, uint64_t>> calls;
  for (const std::vector<SpanRecord>* spans : tracer.Spans()) {
    for (const SpanRecord& s : *spans) {
      if (IsRoot(s.kind) || s.query_id == 0) continue;
      auto it = std::upper_bound(
          batches.begin(), batches.end(), s.query_id,
          [](uint64_t q, const BatchSpan& b) { return q < b.first_query; });
      if (it == batches.begin()) continue;
      --it;
      if (s.query_id >= it->first_query + it->queries) continue;
      calls.emplace_back(static_cast<size_t>(it - batches.begin()), s.start_ns,
                         s.end_ns);
    }
  }
  std::sort(calls.begin(), calls.end());
  for (size_t i = 0; i < calls.size();) {
    const size_t batch = std::get<0>(calls[i]);
    uint64_t lo = std::get<1>(calls[i]);
    uint64_t hi = std::get<2>(calls[i]);
    for (++i; i < calls.size() && std::get<0>(calls[i]) == batch; ++i) {
      if (std::get<1>(calls[i]) > hi) {
        r.covered_ns += static_cast<double>(hi - lo);
        lo = std::get<1>(calls[i]);
      }
      hi = std::max(hi, std::get<2>(calls[i]));
    }
    r.covered_ns += static_cast<double>(hi - lo);
  }
  return r;
}

// Writes the spans of ingests and of the first kWrittenQueries queries (the
// metrics aggregate every span; the file is for reading one run by eye).
void WriteSpans(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread\tindex\tname\tstart_ns\tend_ns\tparent\tquery_id\t"
                  "failed\tcache_hit\tvalue\n");
  size_t thread = 0;
  for (const std::vector<SpanRecord>* spans : tracer.Spans()) {
    for (size_t i = 0; i < spans->size(); ++i) {
      const SpanRecord& s = (*spans)[i];
      if (s.query_id > kWrittenQueries) continue;
      std::fprintf(f, "%zu\t%zu\t%s\t%llu\t%llu\t%d\t%llu\t%d\t%d\t%llu\n",
                   thread, i, SpanName(s.kind),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.query_id),
                   s.failed ? 1 : 0, s.cache_hit ? 1 : 0,
                   static_cast<unsigned long long>(s.value));
    }
    ++thread;
  }
  std::fclose(f);
}

// The DAWA engine-build share, timed from outside: IntervalCostEngine and
// SolveL1Partition (which builds the same engine, then runs the partition DP)
// as pairs on one thread over the stage-1 noisy histogram Dawa feeds them,
// alternating which runs first. Median of the per-pair build/solve ratios.
double DawaBuildShare(
    const Workload& w, const osdp::Table& base,
    const std::vector<const osdp::HistogramRequest*>& inputs) {
  if (inputs.empty()) return 0.0;
  const osdp::DawaOptions dawa;
  std::vector<double> ratios;
  for (int p = 0; p < kDawaSharePairs; ++p) {
    const osdp::HistogramRequest& req = *inputs[p % inputs.size()];
    const osdp::Histogram x = *osdp::ComputeHistogram(base, req.query);
    const double eps1 = dawa.partition_budget_ratio * req.epsilon;
    const double eps2 = req.epsilon - eps1;
    osdp::Rng rng(Mix(w.seed, 0xDA3A + p));
    std::vector<double> noisy(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      noisy[i] = x[i] + osdp::SampleLaplace(rng, 2.0 / eps1);
    }
    double build_ns = 0.0;
    double solve_ns = 0.0;
    volatile double sink = 0.0;
    for (int half = 0; half < 2; ++half) {
      if ((half == 0) == (p % 2 == 0)) {
        const uint64_t t0 = NowNs();
        const osdp::IntervalCostEngine engine(noisy);
        sink = sink + engine.Deviation(0, 1);
        build_ns = static_cast<double>(NowNs() - t0);
      } else {
        const uint64_t t0 = NowNs();
        const osdp::L1PartitionSolution sol = osdp::SolveL1Partition(
            noisy, 2.0 / eps2, osdp::DawaPositions::kEvery,
            osdp::DawaCostImpl::kEngine);
        sink = sink + sol.cost;
        solve_ns = static_cast<double>(NowNs() - t0);
      }
    }
    ratios.push_back(build_ns / solve_ns);
  }
  return Quantile(ratios, 0.5);
}

// ---------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::vector<Metric> LayerMetrics(const TraceReport& r,
                                 const osdp::MaskCache::Stats& cache,
                                 double dawa_share, double pool_util,
                                 uint64_t pool_chunks, uint64_t pool_peak_queue,
                                 double unattributed, double writer_lag_ms,
                                 double ingest_p50_ms, double ingest_p95_ms,
                                 double rss_growth_mb) {
  auto kind = [&r](SpanKind k) -> const KindStats& {
    return r.kinds[static_cast<size_t>(k)];
  };
  auto mean_self = [&](SpanKind k, double scale) {
    const KindStats& s = kind(k);
    return s.calls ? s.self_ns / static_cast<double>(s.calls) * scale : 0.0;
  };
  auto us = [&](SpanKind k) { return mean_self(k, 1e-3); };
  auto ms = [&](SpanKind k) { return mean_self(k, 1e-6); };
  using K = SpanKind;
  const KindStats& lookup = kind(K::kMaskLookup);
  const KindStats& eval = kind(K::kEvalMask);
  const uint64_t misses = lookup.calls - lookup.hits;
  std::vector<Metric> m = {
      {"data.predicate_compile_us", us(K::kPredicateCompile), "us"},
      {"hist.prepare_us", us(K::kHistPrepare), "us"},
      {"runtime.mask_cache.lookups", static_cast<double>(lookup.calls),
       "count"},
      {"runtime.mask_cache.hit_ratio",
       lookup.calls ? static_cast<double>(lookup.hits) / lookup.calls : 0.0,
       "fraction"},
      {"runtime.mask_cache.hit_us",
       lookup.hits ? lookup.hit_self_ns / lookup.hits * 1e-3 : 0.0, "us"},
      {"runtime.mask_cache.miss_overhead_us",
       misses ? lookup.miss_self_ns / misses * 1e-3 : 0.0, "us"},
      {"runtime.mask_cache.evictions", static_cast<double>(cache.evictions),
       "count"},
      {"runtime.parallel_scan.eval_mask_ms", ms(K::kEvalMask), "ms"},
      {"runtime.parallel_scan.rows_per_s",
       eval.total_ns > 0 ? static_cast<double>(eval.value) / eval.total_ns * 1e9
                         : 0.0,
       "1/s"},
      {"runtime.parallel_scan.combine_us", us(K::kCombine), "us"},
      {"runtime.parallel_scan.accumulate_ms", ms(K::kAccumulate), "ms"},
      {"mech.osdp_laplace_l1_ms", ms(K::kMechOsdpLaplaceL1), "ms"},
      {"mech.dawa_engine_ms", ms(K::kMechDawaEngine), "ms"},
      {"mech.dawa_half_ms", ms(K::kMechDawaHalf), "ms"},
      {"mech.dawaz_ms", ms(K::kMechDawaz), "ms"},
      {"mech.hierarchical_ms", ms(K::kMechHierarchical), "ms"},
      {"mech.dawa_build_share", dawa_share, "fraction"},
      {"accounting.reserve_us", us(K::kReserve), "us"},
      {"accounting.commit_us", us(K::kCommit), "us"},
      {"data.table_builder.append_ms", ms(K::kTableAppend), "ms"},
      {"data.table_builder.snapshot_ms", ms(K::kTableSnapshot), "ms"},
      {"data.snapshot_store.publish_us", us(K::kSnapshotPublish), "us"},
      {"load.writer_lag_ms", writer_lag_ms, "ms"},
      {"load.ingest_p50_ms", ingest_p50_ms, "ms"},
      {"load.ingest_p95_ms", ingest_p95_ms, "ms"},
      {"load.rss_growth_mb", rss_growth_mb, "MB"},
      {"runtime.thread_pool.utilization", pool_util, "fraction"},
      {"runtime.thread_pool.chunks", static_cast<double>(pool_chunks), "count"},
      {"runtime.thread_pool.peak_queue_depth",
       static_cast<double>(pool_peak_queue), "count"},
      {"runtime.query_service.unattributed_frac", unattributed, "fraction"},
  };
  // Self-time shares: per layer (the name's first component) and per call.
  std::map<std::string, double> layer_ns;
  for (size_t k = 0; k < r.kinds.size(); ++k) {
    const std::string name = SpanName(static_cast<SpanKind>(k));
    layer_ns[name.substr(0, name.find('.'))] += r.kinds[k].self_ns;
  }
  const double all = r.all_self_ns > 0 ? r.all_self_ns : 1.0;
  for (const char* layer : {"data", "hist", "runtime", "mech", "accounting"}) {
    m.push_back({std::string("layer.") + layer + ".self_share",
                 layer_ns[layer] / all, "fraction"});
  }
  for (size_t k = 0; k < r.kinds.size(); ++k) {
    const std::string name = SpanName(static_cast<SpanKind>(k));
    m.push_back(
        {name + ".calls", static_cast<double>(r.kinds[k].calls), "count"});
    m.push_back(
        {name + ".failed", static_cast<double>(r.kinds[k].failed), "count"});
    m.push_back({name + ".self_share", r.kinds[k].self_ns / all, "fraction"});
  }
  return m;
}

// ------------------------------------------------------------------ main ---

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  std::string corrupt = "none";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0.0) || a->seconds > 600.0) {
        return false;
      }
    } else if (key == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      a->trace = t == "1";
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else if (key == "--corrupt") {
      a->corrupt = v;
      if (a->corrupt != "none" && a->corrupt != "answer" &&
          a->corrupt != "epsilon") {
        return false;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !FindSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: service_load --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--corrupt none|answer|epsilon]\nworkloads:");
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return kExitUsage;
  }

  // Every thread that executes work counts: clients and pool workers (a
  // client also runs chunks of its own parallel loops) and the writer.
  const size_t nproc = NumProcessors();
  const size_t threads =
      spec.clients + spec.pool_workers + (spec.writer ? 1 : 0);
  std::printf(
      "# config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"clients\": %zu, \"writer\": %d, \"pool_workers\": %zu, "
      "\"executing_threads\": %zu, \"nproc\": %zu, \"build_type\": \"%s\", "
      "\"base_rows\": %zu}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, spec.clients, spec.writer ? 1 : 0,
      spec.pool_workers, threads, nproc, PERFBENCH_BUILD_TYPE, spec.base_rows);
  if (threads > nproc) {
    std::fprintf(stderr, "refusing: %zu executing threads > %zu processors\n",
                 threads, nproc);
    return kExitUsage;
  }
  if (spec.clients > 1 && spec.pool_workers > 0) {
    std::fprintf(stderr,
                 "refusing: the CPU time of a batch cannot be told apart when "
                 "%zu clients share pool workers\n",
                 spec.clients);
    return kExitUsage;
  }

  const Workload w = GenerateWorkload(spec, args.seed, args.seconds);
  osdp::ThreadPool pool(spec.pool_workers);
  std::vector<HostProbe> probes(spec.clients);

  // Set-up CPU time, as measured and at the reference speed of the probes
  // run just before it.
  std::vector<double> setup_s, setup_ref_s;
  std::vector<double> setup_probe_ns;
  Service svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc = Service();  // release the previous repetition first
    std::vector<double> before;
    for (int i = 0; i < kSetupProbes; ++i) before.push_back(probes[0].Run());
    setup_probe_ns.insert(setup_probe_ns.end(), before.begin(), before.end());
    const uint64_t cpu0 = ProcessCpuNs();
    svc = SetUp(w, &pool);
    setup_s.push_back(static_cast<double>(ProcessCpuNs() - cpu0) * 1e-9);
    setup_ref_s.push_back(setup_s.back() * kProbeReferenceNs /
                          Quantile(before, 0.5));
  }
  const double setup_hwm_mb = PeakRssMb();
  // The probes' buffers are the benchmark's, not the service's.
  const double setup_rss_mb =
      setup_hwm_mb - HostProbe::Mb() * static_cast<double>(probes.size());
  osdp::QueryService& service = *svc.service;

  Target service_target;
  for (size_t c = 0; c < spec.clients; ++c) {
    service_target.sessions.push_back(
        service.OpenSession("client-" + std::to_string(c)));
  }
  service_target.answer = [&](size_t c, const std::vector<ServiceRequest>& b) {
    return service.AnswerBatch(service_target.sessions[c], b);
  };
  service_target.ingest = [&](const osdp::Table& t) {
    return service.Ingest(t);
  };
  const CpuTimes cpu_before = ReadCpuTimes();
  Observed phase = RunPhase(w, service_target, args.seconds, &probes);
  const double steal = StealShare(cpu_before, ReadCpuTimes());
  const double rss_growth_mb = PeakRssMb() - setup_hwm_mb;
  const double queries_per_s =
      phase.wall_s > 0 ? static_cast<double>(phase.delivered) / phase.wall_s
                       : 0.0;
  const double queries_per_cpu_s =
      phase.batch_cpu_ns > 0
          ? static_cast<double>(phase.delivered) / phase.batch_cpu_ns * 1e9
          : 0.0;
  const double queries_per_ref_s =
      phase.batch_ref_ns > 0
          ? static_cast<double>(phase.delivered) / phase.batch_ref_ns * 1e9
          : 0.0;
  const double batch_ns_per_query =
      phase.queries ? phase.batch_ns / static_cast<double>(phase.queries) : 0.0;
  const double writer_lag_ms = Mean(phase.writer_lag_ms);
  const std::vector<double> count_cpu_ms = phase.count_cpu_ms;
  const std::vector<double> hist_cpu_ms = phase.hist_cpu_ms;
  const std::vector<double> count_ref_ms = phase.count_ref_ms;
  const std::vector<double> hist_ref_ms = phase.hist_ref_ms;
  const std::vector<double> ingest_ms = phase.ingest_ms;
  const double setup_probe_ns_p50 = Quantile(setup_probe_ns, 0.5);
  const double phase_probe_ns_p50 = Quantile(phase.probe_ns, 0.5);
  uint64_t sink = 0;
  for (const HostProbe& p : probes) sink ^= p.sink();
  std::printf(
      "# probe {\"setup_us\": %.2f, \"phase_us\": %.2f, \"phase_runs\": %zu, "
      "\"reference_us\": %.2f, \"sink\": %llu}\n",
      setup_probe_ns_p50 * 1e-3, phase_probe_ns_p50 * 1e-3,
      phase.probe_ns.size(), kProbeReferenceNs * 1e-3,
      static_cast<unsigned long long>(sink));
  std::printf(
      "# cpu {\"setup_s\": %.4f, \"queries_per_cpu_s\": %.1f, "
      "\"count_cpu_p50_ms\": %.4f, \"count_cpu_p95_ms\": %.4f, "
      "\"hist_cpu_p50_ms\": %.4f, \"hist_cpu_p95_ms\": %.4f}\n",
      Quantile(setup_s, 0.5), queries_per_cpu_s, Quantile(count_cpu_ms, 0.5),
      Quantile(count_cpu_ms, 0.95), Quantile(hist_cpu_ms, 0.5),
      Quantile(hist_cpu_ms, 0.95));
  std::printf(
      "# samples {\"count_batches\": %zu, \"hist_batches\": %zu, "
      "\"ingests\": %zu, \"delivered\": %llu, \"measured_s\": %.3f, "
      "\"steal_share\": %.4f}\n",
      count_cpu_ms.size(), hist_cpu_ms.size(), ingest_ms.size(),
      static_cast<unsigned long long>(phase.delivered), phase.wall_s, steal);
  // Wall-clock figures, for reading only: on a shared host they follow
  // what the other tenants run.
  std::printf(
      "# wall {\"queries_per_s\": %.1f, \"count_p50_ms\": %.4f, "
      "\"count_p95_ms\": %.4f, \"hist_p50_ms\": %.4f, "
      "\"hist_p95_ms\": %.4f}\n",
      queries_per_s, Quantile(phase.count_ms, 0.5),
      Quantile(phase.count_ms, 0.95), Quantile(phase.hist_ms, 0.5),
      Quantile(phase.hist_ms, 0.95));

  uint64_t attempted = phase.attempted;
  uint64_t failed = phase.failed;
  Observed total;  // everything the service delivered, for the gate
  total.Merge(std::move(svc.warmup));
  total.Merge(std::move(phase));

  // ---- traced run ----
  std::vector<Metric> layer_metrics;
  std::vector<Kept> traced_kept;
  if (args.trace) {
    osdp::ThreadPool traced_pool(spec.pool_workers);
    traced_pool.set_metrics_enabled(true);
    Tracer tracer;
    LayerPipeline::Options popts;
    popts.pool = &traced_pool;
    popts.root_seed = ServiceRootSeed(w.seed);
    popts.service_epsilon = kServiceEpsilon;
    popts.tracer = &tracer;
    auto pipeline = LayerPipeline::Create(svc.base, BenchPolicy(), popts);
    if (!pipeline.ok()) {
      std::fprintf(stderr, "pipeline: %s\n",
                   pipeline.status().ToString().c_str());
      return kExitGate;
    }
    // Sessions mirror the service's: the warm-up session first, then one per
    // client.
    std::vector<std::unique_ptr<LayerPipeline::Session>> sessions;
    sessions.push_back(std::make_unique<LayerPipeline::Session>(
        1, "warmup", kSessionEpsilon));
    for (const Batch& batch : w.warmup) {
      (*pipeline)->AnswerBatch(sessions[0].get(), batch.requests);
    }
    tracer.Clear();
    Target traced;
    for (size_t c = 0; c < spec.clients; ++c) {
      sessions.push_back(std::make_unique<LayerPipeline::Session>(
          2 + c, "client-" + std::to_string(c), kSessionEpsilon));
      traced.sessions.push_back(sessions.back()->id);
    }
    traced.answer = [&](size_t c, const std::vector<ServiceRequest>& b) {
      return (*pipeline)->AnswerBatch(sessions[1 + c].get(), b);
    };
    traced.ingest = [&](const osdp::Table& t) {
      return (*pipeline)->Ingest(t);
    };
    const osdp::ThreadPool::Stats before = traced_pool.stats();
    Observed traced_phase = RunPhase(w, traced, args.seconds, &probes);
    const osdp::ThreadPool::Stats after = traced_pool.stats();
    attempted += traced_phase.attempted;
    failed += traced_phase.failed;
    traced_kept = std::move(traced_phase.kept);

    const TraceReport report = Aggregate(tracer);
    if (!args.trace_out.empty()) WriteSpans(tracer, args.trace_out);
    // The share of the untraced service's per-query time that no traced
    // layer call covers: service glue, queueing, and waiting on the pool.
    const double covered_per_query =
        report.batch_queries
            ? report.covered_ns / static_cast<double>(report.batch_queries)
            : 0.0;
    const double unattributed =
        batch_ns_per_query > 0 ? 1.0 - covered_per_query / batch_ns_per_query
                               : 0.0;
    // ThreadPool::Stats::utilization over the traced phase alone. The pool's
    // busy time counts the chunks its callers drain and counts a nested
    // loop's chunks inside the chunk that runs them, so under nesting the
    // value can exceed 1.
    const double util =
        traced_pool.num_threads() && traced_phase.wall_s > 0
            ? static_cast<double>(after.busy_ns - before.busy_ns) /
                  (static_cast<double>(traced_pool.num_threads()) *
                   traced_phase.wall_s * 1e9)
            : 0.0;

    // The DAWA inputs the traced run released through the engine route.
    std::vector<const osdp::HistogramRequest*> dawa_inputs;
    if (report.kinds[static_cast<size_t>(SpanKind::kMechDawaEngine)].calls) {
      for (const Batch& batch : w.streams[0]) {
        for (const ServiceRequest& r : batch.requests) {
          const auto* h = std::get_if<osdp::HistogramRequest>(&r);
          if (h != nullptr && h->mechanism == osdp::EngineMechanism::kDawa &&
              MechanismSpan(h->mechanism, h->query.domain.size()) ==
                  SpanKind::kMechDawaEngine) {
            dawa_inputs.push_back(h);
          }
        }
        if (dawa_inputs.size() >= kDawaSharePairs) break;
      }
    }
    const double dawa_share = DawaBuildShare(w, svc.base, dawa_inputs);
    layer_metrics = LayerMetrics(
        report, (*pipeline)->cache_stats(), dawa_share, util,
        after.chunks_executed - before.chunks_executed, after.peak_queue_depth,
        unattributed, writer_lag_ms, Quantile(ingest_ms, 0.5),
        Quantile(ingest_ms, 0.95), rss_growth_mb);
  }

  // ---- correctness gate ----
  std::vector<Kept> kept = std::move(total.kept);
  double eps_tally = total.eps_delivered;
  if (args.corrupt == "answer" && !kept.empty()) {
    ServiceAnswer& a = kept.front().answer;
    double& v = a.histogram.has_value() ? (*a.histogram)[0] : a.count;
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1;
    std::memcpy(&v, &bits, sizeof bits);
  } else if (args.corrupt == "epsilon") {
    eps_tally += 1e-3;
  }
  const bool conserved = ConservationGate(service, total.delivered, eps_tally);
  for (Kept& k : traced_kept) kept.push_back(std::move(k));
  const GateResult gate = ReplayGate(w, svc.base, kept);
  const bool correct = conserved && gate.ok;
  std::printf(
      "# gate {\"replayed\": %zu, \"conserved\": %s, \"replay_ok\": %s}\n",
      gate.replayed, conserved ? "true" : "false", gate.ok ? "true" : "false");

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = std::move(layer_metrics);
  } else {
    metrics = {
        {"setup_s", Quantile(setup_ref_s, 0.5), "s"},
        {"queries_per_cpu_s", queries_per_ref_s, "1/s"},
        {"count_cpu_p50_ms", Quantile(count_ref_ms, 0.5), "ms"},
        {"count_cpu_p95_ms", Quantile(count_ref_ms, 0.95), "ms"},
        {"hist_cpu_p50_ms", Quantile(hist_ref_ms, 0.5), "ms"},
        {"hist_cpu_p95_ms", Quantile(hist_ref_ms, 0.95), "ms"},
        // Mean absolute per-bin error in units of the mean exact bin count,
        // so the error of wide and narrow WHERE clauses weigh alike.
        {"hist_mean_abs_error",
         gate.exact_sum > 0 ? gate.abs_error_sum / gate.exact_sum : 0.0,
         "fraction"},
        {"peak_rss_mb", setup_rss_mb, "MB"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : kExitGate;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
