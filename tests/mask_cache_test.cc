// The MaskCache test battery — the correctness definition of the result-
// caching subsystem. Unit tests pin the cache mechanics (fingerprint ×
// generation keying, deep-equality collision rejection, LRU eviction under a
// byte budget, stats accounting); the service-level property suites pin the
// only property that ultimately matters: a cache-enabled QueryService is
// observationally bit-identical to a cache-disabled twin — for every query,
// across sessions, thread counts, word-boundary table sizes, generations,
// and eviction pressure. Runs under the TSan and ASan+UBSan CI jobs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchdata/table_gen.h"
#include "src/common/random.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "src/runtime/mask_cache.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"

namespace osdp {
namespace {

// ------------------------------------------------------------- unit tests ---

RowMask PatternMask(size_t rows, uint64_t seed) {
  RowMask m(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (((i * 0x9E3779B97F4A7C15ULL) ^ seed) & 1) m.Set(i);
  }
  return m;
}

std::shared_ptr<const std::string> Canon(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(MaskCacheTest, KeyedByFingerprintAndGeneration) {
  MaskCache cache({/*max_bytes=*/1 << 20, /*num_shards=*/4});
  const RowMask mask_a = PatternMask(100, 1);
  const RowMask mask_b = PatternMask(100, 2);
  int computes = 0;
  bool hit = true;

  auto got = cache.LookupOrComputeKeyed(
      7, Canon("A"), 0, [&] { ++computes; return mask_a; }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(computes, 1);
  EXPECT_TRUE(*got == mask_a);

  // Same key: served from cache, compute not called.
  got = cache.LookupOrComputeKeyed(
      7, Canon("A"), 0, [&] { ++computes; return mask_b; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes, 1);
  EXPECT_TRUE(*got == mask_a);

  // Same fingerprint, later generation: a distinct entry.
  got = cache.LookupOrComputeKeyed(
      7, Canon("A"), 1, [&] { ++computes; return mask_b; }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(computes, 2);
  EXPECT_TRUE(*got == mask_b);

  // Generation 0 entry is still live (no in-place invalidation).
  got = cache.LookupOrComputeKeyed(
      7, Canon("A"), 0, [&] { ++computes; return mask_b; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(*got == mask_a);

  const MaskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(MaskCacheTest, FingerprintCollisionIsRejectedByDeepEquality) {
  // Two keys with the SAME 64-bit fingerprint but different canonical bytes
  // must never alias: the deep structural check turns the collision into a
  // miss, and both entries coexist under the shared hash.
  MaskCache cache({1 << 20, 1});
  const RowMask mask_a = PatternMask(64, 1);
  const RowMask mask_b = PatternMask(64, 2);
  bool hit = true;

  cache.LookupOrComputeKeyed(42, Canon("pred A"), 0,
                             [&] { return mask_a; }, &hit);
  EXPECT_FALSE(hit);
  auto got = cache.LookupOrComputeKeyed(42, Canon("pred B"), 0,
                                        [&] { return mask_b; }, &hit);
  EXPECT_FALSE(hit) << "colliding fingerprint served the wrong mask";
  EXPECT_TRUE(*got == mask_b);

  // Both survive and resolve to their own values.
  got = cache.LookupOrComputeKeyed(42, Canon("pred A"), 0,
                                   [&] { return mask_b; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(*got == mask_a);
  got = cache.LookupOrComputeKeyed(42, Canon("pred B"), 0,
                                   [&] { return mask_a; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(*got == mask_b);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(MaskCacheTest, LruEvictsLeastRecentlyUsedUnderByteBudget) {
  // One shard; budget fits exactly two entries (64-row mask = 1 word = 8
  // bytes, 1-byte canonical, 128 overhead → 137 bytes each).
  MaskCache cache({300, 1});
  const RowMask mask = PatternMask(64, 3);
  int computes = 0;
  bool hit = false;
  const auto lookup = [&](const std::string& key) {
    cache.LookupOrComputeKeyed(
        std::hash<std::string>{}(key), Canon(key), 0,
        [&] { ++computes; return mask; }, &hit);
    return hit;
  };

  EXPECT_FALSE(lookup("A"));
  EXPECT_FALSE(lookup("B"));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(lookup("A"));  // touch A: B is now least recently used
  EXPECT_FALSE(lookup("C"));  // evicts B
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(lookup("A")) << "touched entry was evicted instead of LRU";
  EXPECT_FALSE(lookup("B")) << "evicted entry still served";
  EXPECT_EQ(computes, 4);
  EXPECT_LE(cache.stats().bytes, 300u);
}

TEST(MaskCacheTest, OversizedEntryIsServedButNeverStored) {
  // A mask bigger than the whole shard budget computes every time and leaves
  // the cache untouched (no thrash, no accounting drift).
  MaskCache cache({64, 1});
  const RowMask mask = PatternMask(10000, 4);
  int computes = 0;
  bool hit = true;
  for (int i = 0; i < 3; ++i) {
    auto got = cache.LookupOrComputeKeyed(
        9, Canon("big"), 0, [&] { ++computes; return mask; }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_TRUE(*got == mask);
  }
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(MaskCacheTest, ZeroBudgetDisablesCaching) {
  MaskCache cache({0, 4});
  EXPECT_FALSE(cache.enabled());
  const RowMask mask = PatternMask(64, 5);
  int computes = 0;
  bool hit = true;
  for (int i = 0; i < 2; ++i) {
    cache.LookupOrComputeKeyed(1, Canon("k"), 0,
                               [&] { ++computes; return mask; }, &hit);
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(MaskCacheTest, TypedLookupSharesEntriesAcrossCommutedSpellings) {
  // The typed API keyed by CompiledPredicate::Fingerprint(): And(a, b)
  // compiled from either spelling resolves to one entry, and the shared
  // mask is bit-identical to what the second spelling would have computed.
  CensusTableOptions topts;
  topts.num_rows = 321;
  topts.seed = 0xCAFE;
  const Table table = MakeCensusTable(topts);
  const Predicate a = Predicate::Le("age", Value(40));
  const Predicate b = Predicate::Eq("opt_in", Value(1));
  const CompiledPredicate ab =
      *CompiledPredicate::Compile(Predicate::And(a, b), table.schema());
  const CompiledPredicate ba =
      *CompiledPredicate::Compile(Predicate::And(b, a), table.schema());

  MaskCache cache({1 << 20, 4});
  bool hit = true;
  auto first = cache.LookupOrCompute(
      ab, 0, [&] { return ab.EvalMask(table); }, &hit);
  EXPECT_FALSE(hit);
  auto second = cache.LookupOrCompute(
      ba, 0, [&] { return ba.EvalMask(table); }, &hit);
  EXPECT_TRUE(hit) << "commuted spelling missed the shared entry";
  EXPECT_TRUE(first.get() == second.get());
  EXPECT_TRUE(*second == ba.EvalMask(table));
}

// -------------------------------------------------- service-level battery ---

Policy TestPolicy() {
  return Policy::SensitiveWhen(
      Predicate::Or(Predicate::Eq("opt_in", Value(0)),
                    Predicate::Lt("age", Value(18))),
      "opt_out_or_minor");
}

OsdpEngine TestEngine(double total_epsilon, size_t rows) {
  CensusTableOptions topts;
  topts.num_rows = rows;
  topts.seed = 0x9A;
  OsdpEngine::Options opts;
  opts.total_epsilon = total_epsilon;
  return *OsdpEngine::Create(MakeCensusTable(topts), TestPolicy(), opts);
}

// A small pool of distinct requests so random batches repeat queries across
// sessions; index 1 is a commuted spelling of index 0 (same cache entry).
std::vector<ServiceRequest> RequestPool() {
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  const Predicate a = Predicate::Le("age", Value(40));
  const Predicate b = Predicate::Eq("opt_in", Value(1));
  std::vector<ServiceRequest> pool;
  pool.emplace_back(CountRequest{Predicate::And(a, b), 1e-4});
  pool.emplace_back(CountRequest{Predicate::And(b, a), 1e-4});
  pool.emplace_back(CountRequest{Predicate::Le("age", Value(40)), 1e-4});
  pool.emplace_back(CountRequest{
      Predicate::In("race", {Value("C1"), Value("C2")}), 1e-4});
  pool.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain, b}, 1e-4,
                       EngineMechanism::kOsdpLaplaceL1});
  pool.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain, std::nullopt}, 1e-4,
                       EngineMechanism::kOsdpLaplaceL1});
  pool.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain, a}, 1e-4,
                       EngineMechanism::kLaplace});
  return pool;
}

// Drives a cache-enabled service and a cache-disabled twin through identical
// random multi-session traffic (batches drawn from RequestPool, an ingest
// between rounds) and asserts every answer pair is bit-identical. Returns
// the cached service's final stats for the caller's pressure assertions.
MaskCache::Stats RunCachedVsColdTwins(size_t rows, size_t threads,
                                      size_t cache_bytes, uint64_t rng_seed) {
  ThreadPool cached_pool(threads);
  ThreadPool cold_pool(threads);
  QueryService::Options copts;
  copts.per_session_epsilon = 1e6;
  copts.pool = &cached_pool;
  copts.mask_cache_bytes = cache_bytes;
  QueryService::Options uopts = copts;
  uopts.pool = &cold_pool;
  uopts.mask_cache_bytes = 0;

  auto cached = *QueryService::Create(TestEngine(1e7, rows), copts);
  auto cold = *QueryService::Create(TestEngine(1e7, rows), uopts);

  constexpr int kSessions = 3;
  std::vector<QueryService::SessionId> cached_sessions, cold_sessions;
  for (int s = 0; s < kSessions; ++s) {
    const std::string analyst = "analyst-" + std::to_string(s);
    cached_sessions.push_back(cached->OpenSession(analyst));
    cold_sessions.push_back(cold->OpenSession(analyst));
  }

  const std::vector<ServiceRequest> pool = RequestPool();
  Rng rng(rng_seed);
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < kSessions; ++s) {
      std::vector<ServiceRequest> batch;
      const size_t len = 4 + rng.NextBounded(6);
      for (size_t q = 0; q < len; ++q) {
        batch.push_back(pool[rng.NextBounded(pool.size())]);
      }
      const auto cached_answers = cached->AnswerBatch(cached_sessions[s], batch);
      const auto cold_answers = cold->AnswerBatch(cold_sessions[s], batch);
      for (size_t q = 0; q < batch.size(); ++q) {
        EXPECT_EQ(cached_answers[q].ok(), cold_answers[q].ok());
        if (!cached_answers[q].ok() || !cold_answers[q].ok()) continue;
        const ServiceAnswer& hot = *cached_answers[q];
        const ServiceAnswer& ref = *cold_answers[q];
        EXPECT_FALSE(ref.cache_hit) << "cache-disabled twin reported a hit";
        EXPECT_EQ(hot.generation, ref.generation);
        EXPECT_EQ(hot.count, ref.count)
            << "rows=" << rows << " threads=" << threads << " round=" << round
            << " session=" << s << " q=" << q;
        EXPECT_EQ(hot.histogram.has_value(), ref.histogram.has_value());
        if (hot.histogram.has_value() && ref.histogram.has_value()) {
          EXPECT_EQ(hot.histogram->counts(), ref.histogram->counts())
              << "rows=" << rows << " threads=" << threads
              << " round=" << round << " session=" << s << " q=" << q;
        }
      }
    }
    if (round == 1) {
      // Move the dataset: both twins publish the identical next generation.
      CensusTableOptions bopts;
      bopts.num_rows = 77;  // word-boundary hostile on purpose
      bopts.seed = 0xB0 + static_cast<uint64_t>(round);
      const Table batch = MakeCensusTable(bopts);
      EXPECT_EQ(*cached->Ingest(batch), 1u);
      EXPECT_EQ(*cold->Ingest(batch), 1u);
    }
  }
  return cached->cache_stats();
}

TEST(MaskCacheServiceTest, CachedAnswersBitIdenticalToColdPath) {
  // The tentpole property: random batches across sessions, thread counts
  // {1, 2, 7}, and word-boundary table sizes — every cached answer equals
  // the cold-path answer bit for bit, and the cache actually served hits
  // (round 2 repeats round 1's keys against the same generation).
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    for (size_t rows : {size_t{63}, size_t{64}, size_t{65}, size_t{1000}}) {
      const MaskCache::Stats stats = RunCachedVsColdTwins(
          rows, threads, /*cache_bytes=*/1 << 20,
          /*rng_seed=*/0xA11CE ^ (rows * 31 + threads));
      EXPECT_GT(stats.hits, 0u) << "rows=" << rows << " threads=" << threads;
    }
  }
}

TEST(MaskCacheServiceTest, GenerationIsolationAfterIngest) {
  // After an Ingest, the first query of the new generation must recompute
  // (cache_hit = false) and reflect the new snapshot: with a huge ε the
  // one-sided noise is in (-1, 0], so the answer pins the true non-sensitive
  // matching count of whichever table the mask was computed over — a stale
  // mask would be caught by value, not just by flag.
  QueryService::Options opts;
  opts.per_session_epsilon = 1e7;
  auto engine = TestEngine(1e8, 200);
  const Policy policy = TestPolicy();
  Table accumulated = engine.snapshot()->table;
  auto service = *QueryService::Create(std::move(engine), opts);
  const auto session = service->OpenSession("alice");
  const Predicate where = Predicate::Le("age", Value(40));

  const auto truth = [&](const Table& t) {
    RowMask m =
        CompiledPredicate::Compile(where, t.schema())->EvalMask(t);
    m.AndWith(policy.NonSensitiveRowMask(t));
    return static_cast<double>(m.Count());
  };

  const double truth0 = truth(accumulated);
  const auto a1 = *service->AnswerCount(session, where, 1e5);
  EXPECT_FALSE(a1.cache_hit);
  EXPECT_LE(a1.count, truth0);
  EXPECT_GT(a1.count, truth0 - 1.0);

  const auto a2 = *service->AnswerCount(session, where, 1e5);
  EXPECT_TRUE(a2.cache_hit) << "repeat against the same generation missed";
  EXPECT_LE(a2.count, truth0);
  EXPECT_GT(a2.count, truth0 - 1.0);

  CensusTableOptions bopts;
  bopts.num_rows = 150;
  bopts.seed = 0xB1;
  const Table batch = MakeCensusTable(bopts);
  ASSERT_EQ(*service->Ingest(batch), 1u);
  ASSERT_TRUE(accumulated.AppendRows(batch).ok());
  const double truth1 = truth(accumulated);
  ASSERT_NE(truth0, truth1) << "ingest batch must change the true count for "
                               "the staleness assertion to bite";

  const auto a3 = *service->AnswerCount(session, where, 1e5);
  EXPECT_FALSE(a3.cache_hit) << "first post-swap query served a stale mask";
  EXPECT_EQ(a3.generation, 1u);
  EXPECT_LE(a3.count, truth1);
  EXPECT_GT(a3.count, truth1 - 1.0);

  const auto a4 = *service->AnswerCount(session, where, 1e5);
  EXPECT_TRUE(a4.cache_hit);
  EXPECT_LE(a4.count, truth1);
  EXPECT_GT(a4.count, truth1 - 1.0);

  const MaskCache::Stats stats = service->cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);  // one per generation, both still live
}

TEST(MaskCacheServiceTest, LruEvictionUnderTinyBudgetStaysBitIdentical) {
  // 350 bytes per lock shard (the service's cache has MaskCache's default
  // 8 shards) fits only one of the pool's masks at 1000 rows per shard, so
  // the rounds churn the LRU constantly — answers must still be
  // bit-identical to the cold twin, and eviction must actually happen.
  constexpr size_t kCacheBytes = 8 * 350;
  const MaskCache::Stats stats = RunCachedVsColdTwins(
      /*rows=*/1000, /*threads=*/2, kCacheBytes, /*rng_seed=*/0x71D7);
  EXPECT_GT(stats.evictions, 0u) << "budget was not tiny enough to evict";
  EXPECT_LE(stats.bytes, kCacheBytes);
}

}  // namespace
}  // namespace osdp
