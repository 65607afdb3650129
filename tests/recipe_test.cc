// Tests for the Section 5.2 generic recipe and the additional two-phase DP
// algorithms it extends (AHP, Hierarchical).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.h"
#include "src/common/distributions.h"
#include "src/eval/metrics.h"
#include "src/mech/ahp.h"
#include "src/mech/hierarchical.h"
#include "src/mech/laplace.h"
#include "src/mech/recipe.h"
#include "src/mech/two_phase.h"

namespace osdp {
namespace {

Histogram SparseTruth(size_t d, double mass = 400.0) {
  Histogram x(d);
  for (size_t i = 0; i < d; i += 8) x[i] = mass;
  return x;
}

// Reference oracle: the hierarchical release with each node's residual split
// equally among its children, the rule that is variance-optimal only on
// balanced trees. Same tree, noise draws and upward pass as
// HierarchicalRelease, so paired Rngs isolate the downward split rule.
Histogram EqualSplitHierarchical(const Histogram& x, double epsilon,
                                 const HierarchicalOptions& opts, Rng& rng) {
  struct Node {
    size_t begin, end;
    double noisy = 0.0, estimate = 0.0;
    std::vector<size_t> children;
  };
  const size_t d = x.size();
  const auto fanout = static_cast<size_t>(opts.fanout);
  std::vector<Node> arena = {{0, d, 0.0, 0.0, {}}};
  for (size_t idx = 0; idx < arena.size(); ++idx) {
    const size_t begin = arena[idx].begin;
    const size_t end = arena[idx].end;
    if (end - begin <= 1) continue;
    const size_t child_width = (end - begin + fanout - 1) / fanout;
    for (size_t b = begin; b < end; b += child_width) {
      arena.push_back({b, std::min(end, b + child_width), 0.0, 0.0, {}});
      arena[idx].children.push_back(arena.size() - 1);
    }
  }
  int h = 1;
  for (size_t idx = 0; !arena[idx].children.empty();
       idx = arena[idx].children[0]) {
    ++h;
  }
  const double scale = 2.0 * static_cast<double>(h) / epsilon;
  std::vector<double> prefix(d + 1, 0.0);
  for (size_t i = 0; i < d; ++i) prefix[i + 1] = prefix[i] + x[i];
  for (Node& node : arena) {
    const double truth = prefix[node.end] - prefix[node.begin];
    node.noisy = truth + SampleLaplace(rng, scale);
  }
  const double own_var = scale * scale * 2.0;
  std::vector<double> variance(arena.size(), own_var);
  for (size_t idx = arena.size(); idx-- > 0;) {
    Node& node = arena[idx];
    if (node.children.empty()) {
      node.estimate = node.noisy;
      continue;
    }
    double child_sum = 0.0;
    double child_var = 0.0;
    for (size_t c : node.children) {
      child_sum += arena[c].estimate;
      child_var += variance[c];
    }
    const double w = child_var / (own_var + child_var);
    node.estimate = w * node.noisy + (1.0 - w) * child_sum;
    variance[idx] = own_var * child_var / (own_var + child_var);
  }
  for (Node& node : arena) {
    if (node.children.empty()) continue;
    double child_sum = 0.0;
    for (size_t c : node.children) child_sum += arena[c].estimate;
    const double share = (node.estimate - child_sum) /
                         static_cast<double>(node.children.size());
    for (size_t c : node.children) arena[c].estimate += share;
  }
  Histogram out(d);
  for (const Node& node : arena) {
    if (!node.children.empty()) continue;
    out[node.begin] = opts.clamp_non_negative ? std::max(node.estimate, 0.0)
                                              : node.estimate;
  }
  return out;
}

// ----------------------------------------------------------- bin groups ---

TEST(BinGroupsTest, ValidatesLabels) {
  EXPECT_TRUE(ValidateBinGroups({{0, 0, 1}, 2}, 3).ok());
  EXPECT_TRUE(ValidateBinGroups({{1, 0, 1}, 2}, 3).ok());  // non-contiguous
  EXPECT_FALSE(ValidateBinGroups({{0, 0}, 1}, 3).ok());     // too few labels
  EXPECT_FALSE(ValidateBinGroups({{0, 0, 0, 0}, 1}, 3).ok());  // too many
  EXPECT_FALSE(ValidateBinGroups({{0, 2, 1}, 2}, 3).ok());  // out of range
  EXPECT_FALSE(ValidateBinGroups({{0, 0, 2}, 3}, 3).ok());  // group 1 empty
  EXPECT_FALSE(ValidateBinGroups({{}, 1}, 0).ok());         // group 0 empty
  EXPECT_TRUE(ValidateBinGroups({{}, 0}, 0).ok());
}

TEST(TwoPhaseTest, DawaAdapterLabelsBucketsInOrder) {
  // Bucket k of the DAWA partition is group k: labels step by one exactly
  // where a bucket ends, and the adapter consumes DAWA's exact noise.
  Histogram x = SparseTruth(256);
  x[100] = 37.0;
  auto dawa = MakeDawaTwoPhase();
  EXPECT_EQ(dawa->name(), "DAWA");
  Rng rng(1), rng_ref(1);
  TwoPhaseMechanism::Output out = *dawa->Run(x, 1.0, rng);
  DawaResult ref = *Dawa(x, 1.0, rng_ref);
  EXPECT_EQ(out.estimate.counts(), ref.estimate.counts());
  EXPECT_EQ(rng.Next(), rng_ref.Next());
  ASSERT_TRUE(ValidateBinGroups(out.groups, 256).ok());
  ASSERT_EQ(out.groups.num_groups, ref.partition.size());
  for (uint32_t k = 0; k < ref.partition.size(); ++k) {
    for (size_t i = ref.partition[k].begin; i < ref.partition[k].end; ++i) {
      EXPECT_EQ(out.groups.label[i], k) << i;
    }
  }
}

// ------------------------------------------------------------------ AHP ---

TEST(AhpTest, OutputShapeAndGroups) {
  Histogram x = SparseTruth(128);
  Rng rng(2);
  TwoPhaseMechanism::Output out = *Ahp(x, 1.0, AhpOptions{}, rng);
  EXPECT_EQ(out.estimate.size(), 128u);
  EXPECT_TRUE(ValidateBinGroups(out.groups, 128).ok());
  for (size_t i = 0; i < out.estimate.size(); ++i) {
    EXPECT_GE(out.estimate[i], 0.0);
  }
}

TEST(AhpTest, GroupsShareEstimates) {
  Histogram x = SparseTruth(64);
  Rng rng(3);
  TwoPhaseMechanism::Output out = *Ahp(x, 1.0, AhpOptions{}, rng);
  ASSERT_TRUE(ValidateBinGroups(out.groups, 64).ok());
  std::vector<double> group_value(out.groups.num_groups, -1.0);
  for (size_t i = 0; i < 64; ++i) {
    double& value = group_value[out.groups.label[i]];
    if (value < 0.0) value = out.estimate[i];
    EXPECT_DOUBLE_EQ(out.estimate[i], value) << i;
  }
}

TEST(AhpTest, ClustersAreValueBasedNotContiguous) {
  // Bins 0 and 63 have identical counts; everything between differs wildly.
  Histogram x(64);
  x[0] = 1000.0;
  x[63] = 1000.0;
  for (size_t i = 1; i < 63; ++i) x[i] = 10.0 * static_cast<double>(i % 7);
  Rng rng(4);
  AhpOptions opts;
  TwoPhaseMechanism::Output out = *Ahp(x, 20.0, opts, rng);  // low noise
  // With low noise, bins 0 and 63 share a group and bin 1 does not.
  EXPECT_EQ(out.groups.label[0], out.groups.label[63]);
  EXPECT_NE(out.groups.label[0], out.groups.label[1]);
}

TEST(AhpTest, BeatsLaplaceOnSparseData) {
  Histogram x = SparseTruth(1024, 2000.0);
  Rng rng(5);
  double ahp_err = 0.0, lap_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    ahp_err += MeanRelativeError(x, Ahp(x, 0.1, AhpOptions{}, rng)->estimate);
    lap_err += MeanRelativeError(x, *LaplaceMechanism(x, 0.1, rng));
  }
  EXPECT_LT(ahp_err, lap_err);
}

TEST(AhpTest, ValidatesArguments) {
  Histogram x({1, 2});
  Rng rng(6);
  EXPECT_FALSE(Ahp(x, 0.0, AhpOptions{}, rng).ok());
  AhpOptions opts;
  opts.structure_budget_ratio = 1.0;
  EXPECT_FALSE(Ahp(x, 1.0, opts, rng).ok());
}

// --------------------------------------------------------- Hierarchical ---

TEST(HierarchicalTest, OutputShapeAndSingletonGroups) {
  Histogram x = SparseTruth(100);  // deliberately not a power of the fanout
  Rng rng(7);
  TwoPhaseMechanism::Output out =
      *HierarchicalRelease(x, 1.0, HierarchicalOptions{}, rng);
  EXPECT_EQ(out.estimate.size(), 100u);
  EXPECT_TRUE(ValidateBinGroups(out.groups, 100).ok());
  EXPECT_EQ(out.groups.num_groups, 100u);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(out.groups.label[i], i);
}

TEST(HierarchicalTest, ConsistencyImprovesTotalEstimate) {
  // The whole point of constrained inference: the root-level total is far
  // more accurate than the sum of d independent Laplace draws.
  Histogram x(std::vector<double>(256, 20.0));
  Rng rng(8);
  const double eps = 0.5;
  double hier_total_err = 0.0, lap_total_err = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    HierarchicalOptions opts;
    opts.clamp_non_negative = false;  // isolate the inference effect
    Histogram h = HierarchicalRelease(x, eps, opts, rng)->estimate;
    Histogram l = *LaplaceMechanism(x, eps, rng);
    hier_total_err += std::abs(h.Total() - x.Total());
    lap_total_err += std::abs(l.Total() - x.Total());
  }
  EXPECT_LT(hier_total_err, lap_total_err);
}

TEST(HierarchicalTest, ValidatesArguments) {
  Histogram x({1, 2});
  Rng rng(9);
  EXPECT_FALSE(HierarchicalRelease(x, 0.0, HierarchicalOptions{}, rng).ok());
  HierarchicalOptions opts;
  opts.fanout = 1;
  EXPECT_FALSE(HierarchicalRelease(x, 1.0, opts, rng).ok());
}

TEST(HierarchicalTest, EqualSplitMatchesWeightedOnBalancedTree) {
  // With d a power of the fanout every subtree is balanced, all sibling
  // variances are equal, and the two split rules must coincide exactly.
  Histogram x(std::vector<double>(64, 12.0));
  HierarchicalOptions opts;
  opts.clamp_non_negative = false;
  Rng rng_w(41), rng_e(41);  // identical noise streams
  Histogram hw = HierarchicalRelease(x, 0.7, opts, rng_w)->estimate;
  Histogram he = EqualSplitHierarchical(x, 0.7, opts, rng_e);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(hw[i], he[i]);
}

TEST(HierarchicalTest, WeightedSplitBeatsEqualOnUnbalancedTrees) {
  // Regression for the downward pass: splitting the residual equally is only
  // variance-optimal when all sibling subtrees carry equal variance. On
  // non-power-of-fanout domains the tree is ragged (leaf children sit next
  // to deep subtrees), and the variance-weighted split — the exact
  // least-squares projection — gives strictly lower error. Fanout 2
  // maximizes sibling variance contrast; paired noise streams isolate the
  // split rule's effect, and fixed seeds make the comparison deterministic.
  // The squared-error gap is the theory-backed one (GLS minimizes every
  // leaf's variance); the L1 gap is smaller because the weighted correction
  // also reshapes the error distribution, but both favour weighting here.
  HierarchicalOptions opts;
  opts.fanout = 2;
  opts.clamp_non_negative = false;
  double weighted_l1 = 0.0, equal_l1 = 0.0;
  double weighted_l2 = 0.0, equal_l2 = 0.0;
  for (size_t d : {size_t{9}, size_t{17}, size_t{33}, size_t{37},
                   size_t{127}}) {
    Histogram x(d);
    for (size_t i = 0; i < d; ++i) {
      x[i] = 30.0 + 10.0 * static_cast<double>(i % 5);
    }
    for (int rep = 0; rep < 4000; ++rep) {
      Rng rng_w(1000 + rep), rng_e(1000 + rep);
      Histogram hw = HierarchicalRelease(x, 0.5, opts, rng_w)->estimate;
      Histogram he = EqualSplitHierarchical(x, 0.5, opts, rng_e);
      for (size_t i = 0; i < d; ++i) {
        weighted_l1 += std::abs(hw[i] - x[i]);
        equal_l1 += std::abs(he[i] - x[i]);
        weighted_l2 += (hw[i] - x[i]) * (hw[i] - x[i]);
        equal_l2 += (he[i] - x[i]) * (he[i] - x[i]);
      }
    }
  }
  EXPECT_LT(weighted_l1, equal_l1);
  EXPECT_LT(weighted_l2, equal_l2);
}

TEST(HierarchicalTest, FanoutVariantsAllTile) {
  Histogram x = SparseTruth(96);
  for (int fanout : {2, 4, 16}) {
    HierarchicalOptions opts;
    opts.fanout = fanout;
    Rng rng(10 + fanout);
    TwoPhaseMechanism::Output out = *HierarchicalRelease(x, 1.0, opts, rng);
    EXPECT_TRUE(ValidateBinGroups(out.groups, 96).ok()) << fanout;
  }
}

// ----------------------------------------------------------- the recipe ---

TEST(RecipeTest, AhpzAndHierarchicalzRun) {
  Histogram x = SparseTruth(256);
  Rng rng(12);
  for (auto* make : {+[]() { return MakeAhpTwoPhase(AhpOptions{}); },
                     +[]() { return MakeHierarchicalTwoPhase(
                                 HierarchicalOptions{}); }}) {
    Histogram out =
        *ApplyOsdpRecipe(*make(), x, x, 1.0, RecipeOptions{}, rng);
    EXPECT_EQ(out.size(), x.size());
  }
}

TEST(RecipeTest, RecipeImprovesBaseOnSparseData) {
  // Figure-9 shape generalized: the recipe's zero detection should help any
  // two-phase base algorithm on sparse data with most records non-sensitive.
  Histogram x = SparseTruth(512);
  Rng rng(13);
  auto base = MakeAhpTwoPhase();
  double base_err = 0.0, recipe_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    base_err += MeanRelativeError(x, base->Run(x, 1.0, rng)->estimate);
    recipe_err += MeanRelativeError(
        x, *ApplyOsdpRecipe(*base, x, x, 1.0, RecipeOptions{}, rng));
  }
  EXPECT_LT(recipe_err, base_err);
}

TEST(RecipeTest, MechanismWrapperNamesAndGuarantees) {
  auto ahpz = MakeRecipeMechanism(MakeAhpTwoPhase());
  EXPECT_EQ(ahpz->name(), "AHPz");
  EXPECT_EQ(ahpz->Guarantee(1.0).model, PrivacyModel::kOSDP);
  auto hz = MakeRecipeMechanism(MakeHierarchicalTwoPhase());
  EXPECT_EQ(hz->name(), "Hierarchicalz");
  Histogram x = SparseTruth(64);
  Rng rng(14);
  EXPECT_TRUE(ahpz->Run(x, x, 1.0, rng).ok());
  EXPECT_TRUE(hz->Run(x, x, 1.0, rng).ok());
}

TEST(RecipeTest, ValidatesInputs) {
  Rng rng(15);
  auto dawa = MakeDawaTwoPhase();
  Histogram x({5, 5});
  EXPECT_FALSE(
      ApplyOsdpRecipe(*dawa, x, Histogram({6, 0}), 1.0, RecipeOptions{}, rng)
          .ok());
  RecipeOptions opts;
  opts.zero_budget_ratio = 0.0;
  EXPECT_FALSE(ApplyOsdpRecipe(*dawa, x, x, 1.0, opts, rng).ok());
  EXPECT_FALSE(ApplyOsdpRecipe(*dawa, x, x, 0.0, RecipeOptions{}, rng).ok());
}

}  // namespace
}  // namespace osdp
