// Benchmark of the parallel mechanism stage: seconds per interval-cost
// engine build (serial reference vs per-level sharded on the ThreadPool) and
// per end-to-end partition solve (build + DP), across domain sizes and a
// thread grid. Every pooled cell is cross-checked bit-identical against its
// serial reference — the full deviation table for the engine, cost and
// buckets for the solve — and the bench exits non-zero on any divergence,
// making it a determinism gate as well as a profile.
//
// The thread axis counts executing threads: a pool of w workers runs
// ParallelForBlocked on w + 1 threads, because the caller drains chunks too.
// The engine build's share of a solve is not derived here from separately
// timed runs; perfbench reports it as mech.dawa_build_share, the median
// ratio over build/solve pairs timed back to back.
//
// Knobs:
//   OSDP_BENCH_MAX_D    caps the domain grid (default 262144 = 2^18;
//                       set 4096 for a CI smoke run)
//   OSDP_BENCH_THREADS  comma-separated grid of executing threads, each
//                       >= 1 (default "1,2,4"; 1 = the inline pool, distinct
//                       from the no-pool serial reference, which the JSON
//                       marks "pooled": false)
//   OSDP_BENCH_REPS     repetitions per cell (best-of; default scales with d)
//   OSDP_BENCH_JSON     output path (default BENCH_mech_parallel.json)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/env.h"
#include "src/common/random.h"
#include "src/eval/table_printer.h"
#include "src/mech/dawa.h"
#include "src/mech/interval_costs.h"
#include "src/runtime/thread_pool.h"

using namespace osdp;

namespace {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spiky integer-valued histogram (Adult-like), same generator as
// bench_dawa_partition so the serial columns line up across benches.
std::vector<double> SpikyData(size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(d);
  for (auto& v : x) {
    v = rng.NextBernoulli(0.1)
            ? static_cast<double>(rng.NextBounded(1 << 20))
            : 0.0;
  }
  return x;
}

struct Measurement {
  std::string op;  // engine_build | dawa_solve
  size_t d;
  long long exec_threads;  // pool workers + the caller; 1 for the reference
  bool pooled;             // false = serial reference (no pool)
  double sec;
};

// Full-table comparison of two engines over every level and start position.
bool EnginesIdentical(const IntervalCostEngine& a, const IntervalCostEngine& b,
                      size_t d) {
  for (size_t len = 1; len <= d; len <<= 1) {
    for (size_t s = 0; s + len <= d; ++s) {
      if (a.Deviation(s, s + len) != b.Deviation(s, s + len)) return false;
    }
  }
  return a.Sum(0, d) == b.Sum(0, d);
}

bool SolutionsIdentical(const L1PartitionSolution& a,
                        const L1PartitionSolution& b) {
  if (a.cost != b.cost || a.buckets.size() != b.buckets.size()) return false;
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    if (a.buckets[i].begin != b.buckets[i].begin ||
        a.buckets[i].end != b.buckets[i].end) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const char* max_d_env = std::getenv("OSDP_BENCH_MAX_D");
  long long max_d_parsed = 0;
  const size_t max_d = ParseInt64Strict(max_d_env, &max_d_parsed) &&
                               max_d_parsed > 0
                           ? static_cast<size_t>(max_d_parsed)
                           : 262144;
  const std::vector<long long> thread_grid = bench::ParseThreadGrid();

  std::vector<size_t> domains;
  for (size_t d = 4096; d <= 262144; d *= 4) {
    if (d <= max_d) domains.push_back(d);
  }
  if (domains.empty()) domains.push_back(max_d);

  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (long long t : thread_grid) {
    pools.push_back(std::make_unique<ThreadPool>(static_cast<size_t>(t - 1)));
  }

  const double bucket_charge = 8.0;
  std::vector<Measurement> results;
  bool all_identical = true;

  std::printf("=== parallel mechanism stage: serial reference vs pool ===\n");
  std::printf("(domain grid capped at %zu; hardware_concurrency=%u)\n\n",
              max_d, std::thread::hardware_concurrency());

  for (size_t d : domains) {
    const std::vector<double> x = SpikyData(d, 0xDA3A + d);
    const int reps = bench::Reps(d <= 16384 ? 5 : (d <= 65536 ? 3 : 2));

    // --- interval-cost engine build: serial reference, then the grid. ---
    double serial_build = 1e300;
    std::unique_ptr<IntervalCostEngine> serial_engine;
    for (int rep = 0; rep < reps; ++rep) {
      const double t0 = NowSec();
      serial_engine = std::make_unique<IntervalCostEngine>(x);
      serial_build = std::min(serial_build, NowSec() - t0);
    }
    results.push_back({"engine_build", d, 1, false, serial_build});
    for (size_t p = 0; p < pools.size(); ++p) {
      double best = 1e300;
      std::unique_ptr<IntervalCostEngine> parallel_engine;
      for (int rep = 0; rep < reps; ++rep) {
        const double t0 = NowSec();
        parallel_engine = std::make_unique<IntervalCostEngine>(x, pools[p].get());
        best = std::min(best, NowSec() - t0);
      }
      results.push_back({"engine_build", d, thread_grid[p], true, best});
      if (!EnginesIdentical(*serial_engine, *parallel_engine, d)) {
        std::printf(
            "MISMATCH: engine build diverged at d=%zu exec_threads=%lld\n",
            d, thread_grid[p]);
        all_identical = false;
      }
    }

    // --- end-to-end partition solve (build + DP). ---
    double serial_solve = 1e300;
    L1PartitionSolution serial_solution;
    for (int rep = 0; rep < reps; ++rep) {
      const double t0 = NowSec();
      serial_solution = SolveL1Partition(x, bucket_charge,
                                         DawaPositions::kEvery,
                                         DawaCostImpl::kEngine);
      serial_solve = std::min(serial_solve, NowSec() - t0);
    }
    results.push_back({"dawa_solve", d, 1, false, serial_solve});
    for (size_t p = 0; p < pools.size(); ++p) {
      double best = 1e300;
      L1PartitionSolution parallel_solution;
      for (int rep = 0; rep < reps; ++rep) {
        const double t0 = NowSec();
        parallel_solution =
            SolveL1Partition(x, bucket_charge, DawaPositions::kEvery,
                             DawaCostImpl::kEngine, pools[p].get());
        best = std::min(best, NowSec() - t0);
      }
      results.push_back({"dawa_solve", d, thread_grid[p], true, best});
      if (!SolutionsIdentical(serial_solution, parallel_solution)) {
        std::printf(
            "MISMATCH: partition solve diverged at d=%zu exec_threads=%lld\n",
            d, thread_grid[p]);
        all_identical = false;
      }
    }
  }

  // Summary table: every pooled cell against its serial reference.
  auto serial_sec = [&](const std::string& op, size_t d) -> double {
    for (const Measurement& m : results) {
      if (!m.pooled && m.op == op && m.d == d) return m.sec;
    }
    return 0.0;
  };
  TextTable text({"op", "d", "exec threads (workers + caller)", "serial s",
                  "pooled s", "speedup"});
  for (const Measurement& m : results) {
    if (!m.pooled) continue;
    const double ts = serial_sec(m.op, m.d);
    text.AddRow({m.op, std::to_string(m.d), std::to_string(m.exec_threads),
                 TextTable::Fmt(ts, 4), TextTable::Fmt(m.sec, 4),
                 TextTable::Fmt(ts / m.sec, 2) + "x"});
  }
  std::printf("\n%s\n", text.ToString().c_str());
  std::printf("cross-check: %s\n",
              all_identical
                  ? "all parallel cells bit-identical to serial"
                  : "MISMATCH DETECTED");

  // JSON artefact.
  const char* json_env = std::getenv("OSDP_BENCH_JSON");
  const std::string json_path =
      json_env ? json_env : "BENCH_mech_parallel.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"mech_parallel\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"bit_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"d\": %zu, \"exec_threads\": %lld, "
                 "\"pooled\": %s, \"sec\": %.6g}%s\n",
                 m.op.c_str(), m.d, m.exec_threads,
                 m.pooled ? "true" : "false", m.sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu measurements)\n", json_path.c_str(),
              results.size());
  return all_identical ? 0 : 2;
}
