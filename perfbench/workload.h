// Workloads of the service load benchmark: their fixed shape (table size,
// clients, pool, writer) and a seeded generator for everything they submit.
//
// Every input is a pure function of (workload, seed) and is generated before
// the measured phase: the clients' request streams, the warm-up batches, and
// the writer's row batches. The base table is generated during set-up from
// the seed this module derives (BaseTableSeed).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/table.h"
#include "src/policy/policy.h"
#include "src/runtime/query_service.h"

namespace perfbench {

/// One AnswerBatch of a stream: all counts or all histogram releases.
struct Batch {
  bool is_count = true;
  std::vector<osdp::ServiceRequest> requests;
};

/// The fixed shape of a workload.
struct WorkloadSpec {
  std::string name;
  size_t base_rows = 0;
  size_t clients = 0;
  size_t pool_workers = 0;
  /// A paced open-loop writer runs beside the clients.
  bool writer = false;
};

/// The writer publishes one batch of kIngestRows rows every kIngestPeriodMs.
constexpr size_t kIngestRows = 2000;
constexpr double kIngestPeriodMs = 20.0;

/// Everything a run submits, generated from (spec, seed).
struct Workload {
  WorkloadSpec spec;
  uint64_t seed = 0;
  /// One stream per client; a client that reaches the end starts over.
  std::vector<std::vector<Batch>> streams;
  /// Run once during set-up, in their own session (fills the mask cache).
  std::vector<Batch> warmup;
  /// Writer batches in publish order: generation g of the dataset is the
  /// base table plus ingest_batches[0..g).
  std::vector<osdp::Table> ingest_batches;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// The spec of workload `name`; false if there is no such workload.
bool FindSpec(const std::string& name, WorkloadSpec* spec);

/// Generates the workload's inputs. `seconds` sizes only the writer's batch
/// list (one batch per period of the measured phase); batch i itself depends
/// on (seed, i) alone.
Workload GenerateWorkload(const WorkloadSpec& spec, uint64_t seed,
                          double seconds);

/// Seed of the workload's base table.
uint64_t BaseTableSeed(uint64_t seed);

/// Root seed of the service's per-query noise streams.
uint64_t ServiceRootSeed(uint64_t seed);

/// The sensitivity policy of every workload: opt_in = 0 OR age < 18.
osdp::Policy BenchPolicy();

/// A byte-exact rendering of the workload's inputs (literal and ε bits,
/// domains, a digest of every writer batch); equal renderings mean equal
/// inputs.
std::string SerializeWorkload(const Workload& workload);

/// A 64-bit mixer (SplitMix64 finaliser) for deriving seeds.
uint64_t Mix(uint64_t a, uint64_t b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
