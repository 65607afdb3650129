#include "workload.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "src/benchdata/table_gen.h"
#include "src/common/random.h"
#include "src/hist/domain.h"

namespace perfbench {

using osdp::CountRequest;
using osdp::Domain1D;
using osdp::EngineMechanism;
using osdp::HistogramQuery;
using osdp::HistogramRequest;
using osdp::Predicate;
using osdp::Rng;
using osdp::Value;

namespace {

constexpr double kCountEpsilon = 0.01;
constexpr double kHistEpsilon = 0.1;
constexpr double kReleaseEpsilon = 0.5;

// Why each workload exists is recorded in BENCHMARK.json; the sizes follow
// the layer each one must stress.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      // 32 shared WHERE masks of 1M bits (~4 MB) fit the 64 MiB mask cache.
      // Two clients run their batches on an inline pool, so each batch's
      // CPU time is its client thread's.
      {"hot_shared", 1000000, 2, 0, false},
      // Unique 2M-bit masks (~250 KB) overflow the cache after ~250 misses;
      // every publish starts a new cache generation.
      {"cold_ingest", 2000000, 1, 2, true},
      // 100k rows keep histogram accumulation small next to the mechanism.
      {"mech_large_domain", 100000, 1, 1, false},
  };
  return specs;
}

Domain1D Numeric(double lo, double hi, size_t bins) {
  return *Domain1D::Numeric(lo, hi, bins);
}

int64_t Between(Rng& rng, int64_t lo, int64_t hi) {
  return rng.NextInt(lo, hi);
}

double Uniform(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.NextDouble();
}

Predicate Range(const std::string& column, Value lo, Value hi) {
  return Predicate::And(Predicate::Ge(column, std::move(lo)),
                        Predicate::Lt(column, std::move(hi)));
}

// Shared-pool predicate number `slot`: one of four shapes (slot % 4) at one
// of eight selectivity levels (slot / 4 % 8). The seed moves ranges and picks
// categories but leaves each slot's selectivity nearly fixed, so the cost of
// the pool's scans and histograms does not change with the seed.
Predicate SharedPredicate(Rng& rng, int slot) {
  const int level = slot / 4 % 8;
  switch (slot % 4) {
    case 0: {
      const int64_t width = 5 + 5 * level;
      const int64_t a = Between(rng, 0, 100 - width);
      return Range("age", Value(a), Value(a + width));
    }
    case 1: {
      const int64_t width = 500 + 500 * level;
      const int64_t z = Between(rng, 0, 10000 - width);
      return Range("zip", Value(z), Value(z + width));
    }
    case 2: {
      // P(income > t) = (2e4 / t)^2 for the table's Pareto(2) incomes.
      const double share = (0.2 + 0.1 * level) * Uniform(rng, 0.95, 1.05);
      std::vector<size_t> races = {0, 1, 2, 3, 4, 5, 6, 7};
      std::vector<Value> picked;
      for (size_t c = 0; c < static_cast<size_t>(1 + level % 3); ++c) {
        std::swap(races[c], races[c + rng.NextBounded(races.size() - c)]);
        picked.emplace_back("C" + std::to_string(races[c]));
      }
      return Predicate::And(
          Predicate::Gt("income", Value(2.0e4 / std::sqrt(share))),
          Predicate::In("race", std::move(picked)));
    }
    default: {
      const int64_t a = 10 + 4 * level + Between(rng, -2, 2);
      const int64_t z = 9900 - 600 * level + Between(rng, -50, 50);
      return Predicate::Or(Predicate::Lt("age", Value(a)),
                           Predicate::Ge("zip", Value(z)));
    }
  }
}

// A fresh range over zip, age and income; the double income bounds make
// every predicate of a run distinct.
Predicate UniquePredicate(Rng& rng) {
  const int64_t z = Between(rng, 0, 8000);
  const int64_t a = Between(rng, 0, 60);
  const double lo = Uniform(rng, 2.0e4, 6.0e4);
  return Predicate::And(
      Predicate::And(Range("zip", Value(z), Value(z + Between(rng, 500, 5000))),
                     Range("age", Value(a), Value(a + Between(rng, 10, 60)))),
      Range("income", Value(lo), Value(lo + Uniform(rng, 2.0e4, 2.0e5))));
}

Batch CountBatch(std::vector<Predicate> wheres) {
  Batch batch;
  batch.is_count = true;
  for (Predicate& where : wheres) {
    batch.requests.emplace_back(CountRequest{std::move(where), kCountEpsilon});
  }
  return batch;
}

Batch HistBatch(std::vector<HistogramQuery> queries, double epsilon,
                EngineMechanism mechanism) {
  Batch batch;
  batch.is_count = false;
  for (HistogramQuery& query : queries) {
    batch.requests.emplace_back(
        HistogramRequest{std::move(query), epsilon, mechanism});
  }
  return batch;
}

void GenerateHotShared(Rng& rng, Workload* w) {
  std::vector<Predicate> pool;
  for (int i = 0; i < 32; ++i) pool.push_back(SharedPredicate(rng, i));
  const Domain1D age = Numeric(0, 100, 64);
  auto pick = [&] { return pool[rng.NextBounded(pool.size())]; };
  for (auto& stream : w->streams) {
    for (int b = 0; b < 4096; ++b) {
      // Count and histogram batches at 3:1.
      if (rng.NextBounded(4) != 0) {
        std::vector<Predicate> wheres;
        for (int q = 0; q < 16; ++q) wheres.push_back(pick());
        stream.push_back(CountBatch(std::move(wheres)));
      } else {
        stream.push_back(HistBatch({HistogramQuery{"age", age, pick()},
                                    HistogramQuery{"age", age, pick()}},
                                   kHistEpsilon,
                                   EngineMechanism::kOsdpLaplaceL1));
      }
    }
  }
  for (size_t i = 0; i < pool.size(); i += 16) {
    w->warmup.push_back(CountBatch(std::vector<Predicate>(
        pool.begin() + i, pool.begin() + i + 16)));
  }
}

void GenerateColdIngest(Rng& rng, Workload* w) {
  const Domain1D income = Numeric(0, 2.0e5, 64);
  for (auto& stream : w->streams) {
    for (int b = 0; b < 2048; ++b) {
      // Count and histogram batches at 1:1.
      if (rng.NextBounded(2) == 0) {
        std::vector<Predicate> wheres;
        for (int q = 0; q < 4; ++q) wheres.push_back(UniquePredicate(rng));
        stream.push_back(CountBatch(std::move(wheres)));
      } else {
        stream.push_back(
            HistBatch({HistogramQuery{"income", income, UniquePredicate(rng)}},
                      kHistEpsilon, EngineMechanism::kOsdpLaplaceL1));
      }
    }
  }
  for (int b = 0; b < 4; ++b) {
    std::vector<Predicate> wheres;
    for (int q = 0; q < 4; ++q) wheres.push_back(UniquePredicate(rng));
    w->warmup.push_back(CountBatch(std::move(wheres)));
  }
}

void GenerateMechLargeDomain(Rng& rng, Workload* w) {
  // The five releases cover both DawaCostImpl::kAuto routes (engine for
  // kEvery up to d = 4096, naive kHalfOverlap above) and the pooled build and
  // consistency paths. One count batch per cycle gives the workload a count
  // latency; it costs a small fraction of a release.
  std::vector<Batch> cycle = {
      HistBatch({HistogramQuery{"zip", Numeric(0, 10000, 4096), std::nullopt}},
                kReleaseEpsilon, EngineMechanism::kDawa),
      HistBatch({HistogramQuery{"income", Numeric(0, 2.0e5, 16384),
                                std::nullopt}},
                kReleaseEpsilon, EngineMechanism::kDawa),
      HistBatch({HistogramQuery{"zip", Numeric(0, 10000, 4096), std::nullopt}},
                kReleaseEpsilon, EngineMechanism::kDawaz),
      HistBatch({HistogramQuery{"income", Numeric(0, 2.0e5, 16384),
                                std::nullopt}},
                kReleaseEpsilon, EngineMechanism::kHierarchical),
      HistBatch({HistogramQuery{"zip", Numeric(0, 16384, 16384), std::nullopt}},
                kReleaseEpsilon, EngineMechanism::kOsdpLaplaceL1),
  };
  w->warmup = cycle;
  std::vector<Predicate> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(SharedPredicate(rng, 4 * i));
  cycle.emplace_back();
  for (auto& stream : w->streams) {
    for (int c = 0; c < 200; ++c) {
      std::vector<Predicate> wheres;
      for (int q = 0; q < 16; ++q) {
        wheres.push_back(pool[rng.NextBounded(pool.size())]);
      }
      cycle.back() = CountBatch(std::move(wheres));
      std::vector<size_t> order = {0, 1, 2, 3, 4, 5};
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBounded(i + 1)]);
      }
      for (size_t r : order) stream.push_back(cycle[r]);
    }
  }
  w->warmup.push_back(CountBatch(pool));
}

// ------------------------------------------------------- serialization ---

class Bytes {
 public:
  void U64(uint64_t v) { out_.append(reinterpret_cast<const char*>(&v), 8); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    out_ += s;
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

void PutValue(Bytes& b, const Value& v) {
  b.U64(static_cast<uint64_t>(v.type()));
  if (v.is_int64()) {
    b.U64(static_cast<uint64_t>(v.AsInt64()));
  } else if (v.is_double()) {
    b.F64(v.AsDouble());
  } else {
    b.Str(v.AsString());
  }
}

void PutNode(Bytes& b, const Predicate::Node* node) {
  if (node == nullptr) {
    b.U64(~0ull);
    return;
  }
  b.U64(static_cast<uint64_t>(node->op));
  b.Str(node->column);
  b.U64(node->literals.size());
  for (const Value& v : node->literals) PutValue(b, v);
  PutNode(b, node->left.get());
  PutNode(b, node->right.get());
}

void PutDomain(Bytes& b, const Domain1D& d) {
  b.U64(d.size());
  b.U64(d.is_categorical() ? 1 : 0);
  if (!d.is_categorical()) {
    b.F64(d.BinBounds(0).first);
    b.F64(d.BinBounds(d.size() - 1).second);
  }
}

void PutBatch(Bytes& b, const Batch& batch) {
  b.U64(batch.is_count ? 1 : 0);
  b.U64(batch.requests.size());
  for (const osdp::ServiceRequest& r : batch.requests) {
    if (const auto* count = std::get_if<CountRequest>(&r)) {
      b.U64(0);
      b.F64(count->epsilon);
      PutNode(b, count->where.root());
    } else {
      const auto& hist = std::get<HistogramRequest>(r);
      b.U64(1);
      b.F64(hist.epsilon);
      b.U64(static_cast<uint64_t>(hist.mechanism));
      b.Str(hist.query.column);
      PutDomain(b, hist.query.domain);
      PutNode(b, hist.query.where ? hist.query.where->root() : nullptr);
    }
  }
}

// FNV-1a over every cell of the table, column by column.
uint64_t TableDigest(const osdp::Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto eat = [&h](const void* p, size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 0x100000001b3ULL;
  };
  for (size_t col = 0; col < t.num_columns(); ++col) {
    for (size_t row = 0; row < t.num_rows(); ++row) {
      const Value v = t.GetValue(row, col);
      if (v.is_int64()) {
        const int64_t x = v.AsInt64();
        eat(&x, sizeof x);
      } else if (v.is_double()) {
        const double x = v.AsDouble();
        eat(&x, sizeof x);
      } else {
        eat(v.AsString().data(), v.AsString().size());
      }
    }
  }
  return h;
}

}  // namespace

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t BaseTableSeed(uint64_t seed) { return Mix(seed, 0xBA5E); }

uint64_t ServiceRootSeed(uint64_t seed) { return Mix(seed, 0x5EED); }

osdp::Policy BenchPolicy() {
  return osdp::Policy::SensitiveWhen(
      Predicate::Or(Predicate::Eq("opt_in", Value(0)),
                    Predicate::Lt("age", Value(18))),
      "opt_in = 0 OR age < 18");
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const WorkloadSpec& s : Specs()) n.push_back(s.name);
    return n;
  }();
  return names;
}

bool FindSpec(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

Workload GenerateWorkload(const WorkloadSpec& spec, uint64_t seed,
                          double seconds) {
  Workload w;
  w.spec = spec;
  w.seed = seed;
  w.streams.resize(spec.clients);
  uint64_t name_hash = 0xcbf29ce484222325ULL;
  for (char c : spec.name) {
    name_hash = (name_hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  Rng rng(Mix(seed, name_hash));
  if (spec.name == "hot_shared") {
    GenerateHotShared(rng, &w);
  } else if (spec.name == "cold_ingest") {
    GenerateColdIngest(rng, &w);
  } else {
    GenerateMechLargeDomain(rng, &w);
  }
  const size_t writes =
      spec.writer
          ? static_cast<size_t>(std::ceil(seconds * 1000.0 / kIngestPeriodMs)) +
                1
          : 0;
  for (size_t i = 0; i < writes; ++i) {
    osdp::CensusTableOptions opts;
    opts.num_rows = kIngestRows;
    opts.seed = Mix(seed, 0x1000 + i);
    w.ingest_batches.push_back(osdp::MakeCensusTable(opts));
  }
  return w;
}

std::string SerializeWorkload(const Workload& w) {
  Bytes b;
  b.Str(w.spec.name);
  b.U64(w.spec.base_rows);
  b.U64(BaseTableSeed(w.seed));
  b.U64(ServiceRootSeed(w.seed));
  b.U64(w.streams.size());
  for (const auto& stream : w.streams) {
    b.U64(stream.size());
    for (const Batch& batch : stream) PutBatch(b, batch);
  }
  b.U64(w.warmup.size());
  for (const Batch& batch : w.warmup) PutBatch(b, batch);
  b.U64(w.ingest_batches.size());
  for (const osdp::Table& t : w.ingest_batches) {
    b.U64(t.num_rows());
    b.U64(TableDigest(t));
  }
  return b.Take();
}

}  // namespace perfbench
