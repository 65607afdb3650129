// Oracle property tests for the fused mask kernels: CountAndWords and the
// sharded counts built on it, and PreparedHistogramQuery::AccumulateRange
// and ParallelAccumulateHistogram, which AND two masks while they bin.
//
// The references live here, not in the library: counts are per-bit Test()
// loops, histograms are ForEachSet walks that bin each row with
// Domain1D::BinOf / BinOfCategory. Inputs cover random masks of several
// densities, the two-mask and null-second-mask forms, unaligned row ranges,
// sizes with partial words and several 4096-row chunks plus a partial tail,
// and values at lo, at hi, on bin edges, at ±inf and NaN.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/data/row_mask.h"
#include "src/data/table.h"
#include "src/hist/domain.h"
#include "src/hist/histogram_query.h"
#include "src/runtime/parallel_scan.h"
#include "src/runtime/thread_pool.h"

namespace osdp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The null second mask: the one-mask form of the two-mask kernels.
const RowMask* const kNoSecondMask = nullptr;

// Sizes with partial last words, exact word and chunk edges, and several
// 4096-row chunks plus a partial tail.
const size_t kSizes[] = {0, 1, 63, 64, 65, 130, 4095, 4096, 4097,
                         3 * 4096 + 77};

RowMask RandomMask(size_t size, double density, Rng& rng) {
  RowMask m(size);
  for (size_t i = 0; i < size; ++i) {
    if (rng.NextDouble() < density) m.Set(i);
  }
  return m;
}

size_t ReferenceCount(const RowMask& a, const RowMask* b, size_t begin,
                      size_t end) {
  size_t n = 0;
  for (size_t i = begin; i < end; ++i) {
    if (a.Test(i) && (b == nullptr || b->Test(i))) ++n;
  }
  return n;
}

// ------------------------------------------------------------- counting ---

TEST(CountAndWordsTest, MatchesPerBitReference) {
  Rng rng(0xC0);
  for (size_t size : kSizes) {
    for (double density : {0.0, 0.03, 0.5, 0.97, 1.0}) {
      const RowMask a = RandomMask(size, density, rng);
      const RowMask b = RandomMask(size, 0.5, rng);
      const size_t words = a.num_words();
      EXPECT_EQ(CountAndWords(a.words(), nullptr, 0, words),
                ReferenceCount(a, nullptr, 0, size));
      EXPECT_EQ(CountAndWords(a.words(), b.words(), 0, words),
                ReferenceCount(a, &b, 0, size));
      EXPECT_EQ(a.Count(), ReferenceCount(a, nullptr, 0, size));
      // Random word sub-ranges, empty ones included.
      for (int trial = 0; trial < 8 && words > 0; ++trial) {
        const size_t wb = rng.NextBounded(words + 1);
        const size_t we = wb + rng.NextBounded(words - wb + 1);
        const size_t end = std::min(we * 64, size);
        const size_t begin = std::min(wb * 64, end);
        EXPECT_EQ(CountAndWords(a.words(), b.words(), wb, we),
                  ReferenceCount(a, &b, begin, end))
            << size << " [" << wb << ", " << we << ")";
      }
    }
  }
}

TEST(ParallelCountAndTest, EqualsCopyAndWithCount) {
  Rng rng(0xC1);
  for (size_t threads : {0, 1, 3}) {
    ThreadPool pool(threads);
    for (size_t shards : {0, 1, 2, 7}) {
      const ParallelScanOptions opts{&pool, shards};
      for (size_t size : kSizes) {
        const RowMask a = RandomMask(size, 0.4, rng);
        const RowMask b = RandomMask(size, 0.6, rng);
        RowMask copy = a;
        copy.AndWith(b);
        EXPECT_EQ(ParallelCountAnd(a, b, opts), copy.Count())
            << threads << " threads, " << shards << " shards, " << size;
        EXPECT_EQ(ParallelCount(a, opts), a.Count());
      }
    }
  }
}

// ----------------------------------------------------------- histograms ---

// A table of one int64 and one double column whose values hit every binning
// edge case of `domain`, mixed with random values.
Table EdgeTable(size_t rows, const Domain1D& domain, double lo, double hi,
                Rng& rng) {
  std::vector<double> specials = {lo, hi, -kInf, kInf, std::nan(""),
                                  lo - 1.0, hi + 1.0, std::nextafter(lo, hi),
                                  std::nextafter(hi, lo)};
  for (size_t i = 0; i <= domain.size(); ++i) {
    const double edge = lo + (hi - lo) * static_cast<double>(i) /
                                 static_cast<double>(domain.size());
    specials.push_back(edge);
    specials.push_back(std::nextafter(edge, -kInf));
    specials.push_back(std::nextafter(edge, kInf));
  }
  const std::vector<int64_t> int_specials = {
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      -1, 0};
  std::vector<int64_t> ints(rows);
  std::vector<double> doubles(rows);
  for (size_t i = 0; i < rows; ++i) {
    const double pick = specials[rng.NextBounded(specials.size())];
    const double spread = lo - 2.0 + (hi - lo + 4.0) * rng.NextDouble();
    doubles[i] = rng.NextDouble() < 0.5 ? pick : spread;
    if (rng.NextDouble() < 0.05) {
      ints[i] = int_specials[rng.NextBounded(int_specials.size())];
    } else {
      const double v = rng.NextDouble() < 0.5 ? pick : spread;
      // Values beyond int64 (and NaN) become the int64 extremes.
      if (std::fabs(v) < 9.0e18) {
        ints[i] = static_cast<int64_t>(std::floor(v));
      } else {
        ints[i] = v < 0 ? std::numeric_limits<int64_t>::min()
                        : std::numeric_limits<int64_t>::max();
      }
    }
  }
  return *Table::FromColumns(
      Schema({{"i", ValueType::kInt64}, {"d", ValueType::kDouble}}),
      {std::move(ints), std::move(doubles)});
}

// Per-row reference: walks the selected rows of [begin, end) and bins each
// with Domain1D::BinOf / BinOfCategory; codes outside a categorical domain
// are skipped.
std::vector<double> ReferenceHistogram(const Table& table,
                                       const std::string& column,
                                       const Domain1D& domain,
                                       const RowMask& a, const RowMask* b,
                                       size_t begin, size_t end) {
  const size_t col = *table.schema().FieldIndex(column);
  const bool is_int = table.schema().field(col).type == ValueType::kInt64;
  std::vector<double> counts(domain.size(), 0.0);
  a.ForEachSet([&](size_t row) {
    if (row < begin || row >= end || (b != nullptr && !b->Test(row))) return;
    if (domain.is_categorical()) {
      const int64_t code = table.Int64Column(col)[row];
      if (code < 0 || static_cast<uint64_t>(code) >= domain.size()) return;
      counts[domain.BinOfCategory(code)] += 1.0;
    } else if (is_int) {
      counts[domain.BinOf(static_cast<double>(table.Int64Column(col)[row]))] +=
          1.0;
    } else {
      counts[domain.BinOf(table.DoubleColumn(col)[row])] += 1.0;
    }
  });
  return counts;
}

struct DomainCase {
  double lo;
  double hi;
  size_t bins;
};

// Integer and fractional bounds, one integer per bin, spans far wider than
// the bins, and bounds near the double range.
const DomainCase kNumericDomains[] = {
    {0, 100, 64}, {-3.5, 7.25, 5}, {0, 4096, 4096}, {0.5, 1.5, 3},
    {0, 10000, 4096}, {-1e6, 1e6, 7}, {-1e300, 1e300, 9}};

TEST(AccumulateRangeTest, MatchesPerRowReferenceOnUnalignedRanges) {
  Rng rng(0xC2);
  for (const DomainCase& dc : kNumericDomains) {
    const Domain1D domain = *Domain1D::Numeric(dc.lo, dc.hi, dc.bins);
    for (size_t size : kSizes) {
      const Table table = EdgeTable(size, domain, dc.lo, dc.hi, rng);
      const RowMask a = RandomMask(size, 0.7, rng);
      const RowMask b = RandomMask(size, 0.7, rng);
      for (const char* column : {"i", "d"}) {
        const PreparedHistogramQuery prepared =
            *PreparedHistogramQuery::Prepare(
                table, HistogramQuery{column, domain, std::nullopt});
        for (int trial = 0; trial < 6; ++trial) {
          const size_t begin = rng.NextBounded(size + 1);
          const size_t end = begin + rng.NextBounded(size - begin + 1);
          for (const RowMask* second : {&b, kNoSecondMask}) {
            std::vector<uint64_t> counts(domain.size(), 0);
            prepared.AccumulateRange(a, second, begin, end, counts.data());
            const std::vector<double> expected = ReferenceHistogram(
                table, column, domain, a, second, begin, end);
            EXPECT_EQ(std::vector<double>(counts.begin(), counts.end()),
                      expected)
                << column << " [" << dc.lo << ", " << dc.hi << ") x "
                << dc.bins << " rows [" << begin << ", " << end << ")"
                << (second ? " two masks" : " one mask");
          }
        }
      }
    }
  }
}

TEST(AccumulateRangeTest, CategoricalDropsCodesOutsideTheDomain) {
  Rng rng(0xC3);
  const Domain1D domain = Domain1D::Categorical(5);
  for (size_t size : kSizes) {
    std::vector<int64_t> codes(size);
    for (int64_t& c : codes) {
      c = static_cast<int64_t>(rng.NextBounded(9)) - 2;  // -2 .. 6
    }
    const Table table = *Table::FromColumns(
        Schema({{"c", ValueType::kInt64}}), {std::move(codes)});
    const RowMask a = RandomMask(size, 0.6, rng);
    const RowMask b = RandomMask(size, 0.6, rng);
    const PreparedHistogramQuery prepared = *PreparedHistogramQuery::Prepare(
        table, HistogramQuery{"c", domain, std::nullopt});
    const size_t begin = rng.NextBounded(size + 1);
    const size_t end = begin + rng.NextBounded(size - begin + 1);
    for (const RowMask* second : {&b, kNoSecondMask}) {
      std::vector<uint64_t> counts(domain.size(), 0);
      prepared.AccumulateRange(a, second, begin, end, counts.data());
      EXPECT_EQ(std::vector<double>(counts.begin(), counts.end()),
                ReferenceHistogram(table, "c", domain, a, second, begin, end));
    }
  }
}

TEST(ParallelAccumulateHistogramTest, TwoMaskFormMatchesReferenceAtAnyThreads) {
  Rng rng(0xC4);
  const Domain1D numeric = *Domain1D::Numeric(0, 100, 64);
  const Domain1D categorical = Domain1D::Categorical(50);
  const size_t size = 3 * 4096 + 77;
  const Table table = EdgeTable(size, numeric, 0, 100, rng);
  const RowMask a = RandomMask(size, 0.5, rng);
  const RowMask b = RandomMask(size, 0.5, rng);
  for (size_t threads : {0, 1, 3}) {
    ThreadPool pool(threads);
    for (size_t shards : {0, 1, 2, 5}) {
      const ParallelScanOptions opts{&pool, shards};
      for (const Domain1D& domain : {numeric, categorical}) {
        for (const char* column : {"i", "d"}) {
          if (domain.is_categorical() && column[0] == 'd') continue;
          const PreparedHistogramQuery prepared =
              *PreparedHistogramQuery::Prepare(
                  table, HistogramQuery{column, domain, std::nullopt});
          for (const RowMask* second : {&b, kNoSecondMask}) {
            const Histogram got =
                ParallelAccumulateHistogram(prepared, a, second, opts);
            EXPECT_EQ(got.counts(), ReferenceHistogram(table, column, domain,
                                                       a, second, 0, size))
                << threads << " threads, " << shards << " shards";
          }
          // The one-mask form is the null-second-mask form.
          EXPECT_EQ(ParallelAccumulateHistogram(prepared, a, opts).counts(),
                    ParallelAccumulateHistogram(prepared, a, nullptr, opts)
                        .counts());
        }
      }
    }
  }
}

TEST(ParallelAccumulateHistogramTest, ComputeMaskedDropsCodesOutsideDomain) {
  std::vector<int64_t> codes = {0, 1, 7, 2, -4};
  const Table table = *Table::FromColumns(Schema({{"c", ValueType::kInt64}}),
                                          {std::move(codes)});
  ThreadPool pool(1);
  const ParallelScanOptions opts{&pool, 2};
  const HistogramQuery query{"c", Domain1D::Categorical(3), std::nullopt};
  const RowMask all(5, true);
  const Result<Histogram> answered =
      ParallelComputeHistogramMasked(table, query, all, opts);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered->counts(), (std::vector<double>{1, 1, 1}));
  EXPECT_EQ(answered->counts(),
            ComputeHistogramMasked(table, query, all)->counts());
}

// --------------------------------------------------------------- binner ---

TEST(DomainBinnerTest, NumericIsBinOfOnEdgesAndNonFiniteValues) {
  for (const DomainCase& dc : kNumericDomains) {
    const Domain1D domain = *Domain1D::Numeric(dc.lo, dc.hi, dc.bins);
    const DomainBinner binner = domain.binner();
    std::vector<double> values = {dc.lo,  dc.hi, -kInf, kInf, std::nan(""),
                                  -0.0,   0.0,   std::nextafter(dc.lo, -kInf),
                                  std::nextafter(dc.hi, kInf)};
    for (size_t i = 0; i <= dc.bins; ++i) {
      const double edge = dc.lo + (dc.hi - dc.lo) * static_cast<double>(i) /
                                      static_cast<double>(dc.bins);
      values.push_back(edge);
      values.push_back(std::nextafter(edge, -kInf));
      values.push_back(std::nextafter(edge, kInf));
    }
    for (double v : values) {
      EXPECT_EQ(binner.Numeric(v), domain.BinOf(v)) << v;
    }
  }
}

TEST(DomainBinnerTest, CategoryFlagsCodesOutsideTheDomain) {
  const DomainBinner binner = Domain1D::Categorical(5).binner();
  EXPECT_EQ(binner.Category(0), 0u);
  EXPECT_EQ(binner.Category(4), 4u);
  EXPECT_EQ(binner.Category(5), 5u);
  EXPECT_EQ(binner.Category(-1), 5u);
  EXPECT_EQ(binner.Category(std::numeric_limits<int64_t>::min()), 5u);
}

}  // namespace
}  // namespace osdp
