// Tests for AGrid (2-D adaptive grid) and its recipe extension AGridz.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/eval/metrics.h"
#include "src/mech/agrid.h"
#include "src/mech/laplace.h"
#include "src/mech/recipe.h"

namespace osdp {
namespace {

// A 2-D histogram with a hotspot block and an empty remainder (flattened).
Histogram HotspotGrid(size_t rows, size_t cols, double mass = 500.0) {
  Histogram x(rows * cols);
  for (size_t r = 0; r < rows / 4; ++r) {
    for (size_t c = 0; c < cols / 4; ++c) {
      x[r * cols + c] = mass;
    }
  }
  return x;
}

AGridOptions Opts(size_t rows, size_t cols) {
  AGridOptions o;
  o.rows = rows;
  o.cols = cols;
  return o;
}

TEST(AGridTest, OutputTilesDomain) {
  Histogram x = HotspotGrid(32, 24);
  Rng rng(1);
  TwoPhaseMechanism::Output out = *AGrid(x, 1.0, Opts(32, 24), rng);
  EXPECT_EQ(out.estimate.size(), x.size());
  EXPECT_TRUE(ValidateBinGroups(out.groups, x.size()).ok());
  for (size_t i = 0; i < out.estimate.size(); ++i) {
    EXPECT_GE(out.estimate[i], 0.0);
  }
}

TEST(AGridTest, AdaptiveRefinementFocusesOnDenseCells) {
  // Dense regions should end up in smaller groups (finer cells) than empty
  // regions; compare the average group size containing the hotspot vs not.
  // Low total mass keeps the coarse grid coarse, so phase 2 has room to
  // subdivide adaptively.
  Histogram x = HotspotGrid(64, 64, 5.0);
  Rng rng(2);
  TwoPhaseMechanism::Output out = *AGrid(x, 0.5, Opts(64, 64), rng);
  ASSERT_TRUE(ValidateBinGroups(out.groups, x.size()).ok());
  std::vector<size_t> size(out.groups.num_groups, 0);
  std::vector<bool> has_mass(out.groups.num_groups, false);
  for (size_t i = 0; i < x.size(); ++i) {
    ++size[out.groups.label[i]];
    if (x[i] > 0.0) has_mass[out.groups.label[i]] = true;
  }
  double dense_sizes = 0.0, dense_n = 0.0, empty_sizes = 0.0, empty_n = 0.0;
  for (uint32_t g = 0; g < out.groups.num_groups; ++g) {
    if (has_mass[g]) {
      dense_sizes += static_cast<double>(size[g]);
      dense_n += 1;
    } else {
      empty_sizes += static_cast<double>(size[g]);
      empty_n += 1;
    }
  }
  ASSERT_GT(dense_n, 0.0);
  ASSERT_GT(empty_n, 0.0);
  EXPECT_LT(dense_sizes / dense_n, empty_sizes / empty_n);
}

TEST(AGridTest, GroupsAreFineCellRectanglesSharingOneEstimate) {
  // Each label names one fine cell: its bins fill their bounding rectangle
  // of the row-major grid exactly and all carry the cell's estimate.
  const size_t rows = 37, cols = 23;  // uneven splits at both levels
  Histogram x = HotspotGrid(rows, cols, 50.0);
  Rng rng(8);
  TwoPhaseMechanism::Output out = *AGrid(x, 1.0, Opts(rows, cols), rng);
  ASSERT_TRUE(ValidateBinGroups(out.groups, x.size()).ok());
  EXPECT_GT(out.groups.num_groups, 4u);
  struct Box {
    size_t r0 = SIZE_MAX, r1 = 0, c0 = SIZE_MAX, c1 = 0, bins = 0;
    double value = -1.0;
  };
  std::vector<Box> boxes(out.groups.num_groups);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      Box& b = boxes[out.groups.label[r * cols + c]];
      b.r0 = std::min(b.r0, r);
      b.r1 = std::max(b.r1, r + 1);
      b.c0 = std::min(b.c0, c);
      b.c1 = std::max(b.c1, c + 1);
      ++b.bins;
      if (b.value < 0.0) b.value = out.estimate[r * cols + c];
      EXPECT_DOUBLE_EQ(out.estimate[r * cols + c], b.value);
    }
  }
  for (const Box& b : boxes) {
    EXPECT_EQ(b.bins, (b.r1 - b.r0) * (b.c1 - b.c0));
  }
}

TEST(AGridTest, BeatsLaplaceOnConcentrated2D) {
  Histogram x = HotspotGrid(64, 24, 800.0);
  Rng rng(3);
  double agrid_err = 0.0, lap_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    agrid_err += MeanRelativeError(x, AGrid(x, 0.1, Opts(64, 24), rng)->estimate);
    lap_err += MeanRelativeError(x, *LaplaceMechanism(x, 0.1, rng));
  }
  EXPECT_LT(agrid_err, lap_err);
}

TEST(AGridTest, ValidatesArguments) {
  Histogram x(12);
  Rng rng(4);
  EXPECT_FALSE(AGrid(x, 0.0, Opts(3, 4), rng).ok());
  EXPECT_FALSE(AGrid(x, 1.0, Opts(3, 5), rng).ok());  // shape mismatch
  AGridOptions bad = Opts(3, 4);
  bad.coarse_budget_ratio = 1.0;
  EXPECT_FALSE(AGrid(x, 1.0, bad, rng).ok());
  bad = Opts(3, 4);
  bad.granularity_c = 0.0;
  EXPECT_FALSE(AGrid(x, 1.0, bad, rng).ok());
}

TEST(AGridTest, TinyDomainsStillWork) {
  Histogram x({1, 2, 3, 4});
  Rng rng(5);
  TwoPhaseMechanism::Output out = *AGrid(x, 1.0, Opts(2, 2), rng);
  EXPECT_TRUE(ValidateBinGroups(out.groups, 4).ok());
}

TEST(AGridzTest, RecipeExtensionRunsAndPreservesZeros) {
  Histogram x = HotspotGrid(32, 32);
  Rng rng(6);
  auto agridz = MakeRecipeMechanism(MakeAGridTwoPhase(Opts(32, 32)));
  EXPECT_EQ(agridz->name(), "AGridz");
  RecipeOptions ropts;
  ropts.zero_budget_ratio = 0.5;
  Histogram out = *ApplyOsdpRecipe(*MakeAGridTwoPhase(Opts(32, 32)), x, x,
                                   8.0, ropts, rng);
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0) { EXPECT_DOUBLE_EQ(out[i], 0.0); }
  }
}

TEST(AGridzTest, ZeroDetectionHelpsOnSparse2D) {
  Histogram x = HotspotGrid(48, 48, 300.0);
  Rng rng(7);
  auto base = MakeAGridTwoPhase(Opts(48, 48));
  double base_err = 0.0, z_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    base_err += MeanRelativeError(x, base->Run(x, 1.0, rng)->estimate);
    z_err += MeanRelativeError(
        x, *ApplyOsdpRecipe(*base, x, x, 1.0, RecipeOptions{}, rng));
  }
  EXPECT_LT(z_err, base_err);
}

}  // namespace
}  // namespace osdp
