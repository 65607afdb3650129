// Tests for src/core: the OsdpEngine mechanism dispatcher. The budgeted
// release flow (samples, histograms, counts, the composed guarantee) is
// served by QueryService and tested in query_service_test.cc.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/core/engine.h"
#include "src/hist/histogram_query.h"
#include "src/mech/osdp_rr.h"

namespace osdp {
namespace {

Table MakeData(int n = 4000, uint64_t seed = 5) {
  Table t(Schema({{"age", ValueType::kInt64}, {"opt_in", ValueType::kInt64}}));
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    OSDP_CHECK(t.AppendRow({Value(static_cast<int64_t>(rng.NextBounded(100))),
                            Value(static_cast<int64_t>(
                                rng.NextBernoulli(0.8) ? 1 : 0))})
                   .ok());
  }
  return t;
}

Policy OptOutSensitive() {
  return Policy::SensitiveWhen(Predicate::Eq("opt_in", Value(0)), "P_opt");
}

TEST(EngineTest, CreateValidates) {
  OsdpEngine::Options opts;
  for (double bad : {0.0, -1.0, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    opts.total_epsilon = bad;
    const auto engine = OsdpEngine::Create(MakeData(), OptOutSensitive(), opts);
    ASSERT_FALSE(engine.ok()) << bad;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  opts.total_epsilon = 1.0;
  Table empty(Schema({{"a", ValueType::kInt64}}));
  EXPECT_FALSE(OsdpEngine::Create(std::move(empty), OptOutSensitive(), opts).ok());
  EXPECT_TRUE(OsdpEngine::Create(MakeData(), OptOutSensitive(), opts).ok());
}

TEST(EngineTest, CreateRejectsAPolicyThatDoesNotTypeCheck) {
  // A policy on a missing column, or one comparing a numeric column with a
  // string, is refused with the compiler's Status instead of aborting.
  const OsdpEngine::Options opts;
  const auto unknown = OsdpEngine::Create(
      MakeData(), Policy::SensitiveWhen(Predicate::Eq("no_such_column",
                                                      Value(1))),
      opts);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  const auto mixed = OsdpEngine::Create(
      MakeData(),
      Policy::SensitiveWhen(Predicate::Eq("opt_in", Value(std::string("no")))),
      opts);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, RunMechanismIsDeterministicForEveryMechanism) {
  // Two engines over the same data, each mechanism driven by same-seeded
  // Rngs: bit-identical releases of the right shape. The engine holds no
  // noise stream, so the caller's Rng is the only source of randomness.
  OsdpEngine::Options opts;
  const OsdpEngine a = *OsdpEngine::Create(MakeData(), OptOutSensitive(), opts);
  const OsdpEngine b = *OsdpEngine::Create(MakeData(), OptOutSensitive(), opts);
  const HistogramQuery query{"age", *Domain1D::Numeric(0, 100, 10),
                             std::nullopt};
  const Table& data = a.snapshot()->table;
  const Histogram x = *ComputeHistogram(data, query);
  const Histogram xns =
      *ComputeHistogramMasked(data, query, a.snapshot()->non_sensitive);
  for (EngineMechanism m :
       {EngineMechanism::kLaplace, EngineMechanism::kOsdpLaplace,
        EngineMechanism::kOsdpLaplaceL1, EngineMechanism::kDawa,
        EngineMechanism::kDawaz, EngineMechanism::kHierarchical}) {
    Rng rng_a(99);
    Rng rng_b(99);
    const auto ha = a.RunMechanism(x, xns, 1.0, m, rng_a);
    const auto hb = b.RunMechanism(x, xns, 1.0, m, rng_b);
    ASSERT_TRUE(ha.ok()) << EngineMechanismToString(m);
    ASSERT_TRUE(hb.ok()) << EngineMechanismToString(m);
    EXPECT_EQ(ha->size(), 10u) << EngineMechanismToString(m);
    EXPECT_EQ(ha->counts(), hb->counts()) << EngineMechanismToString(m);
  }
}

TEST(EngineTest, NonFiniteEpsilonIsRejectedByEveryMechanism) {
  // RunMechanism is the replay entry point and takes ε straight from its
  // caller. A NaN ε passes an `epsilon <= 0` test and +inf gives a zero
  // noise scale; both must come back as InvalidArgument, never an abort.
  const OsdpEngine engine =
      *OsdpEngine::Create(MakeData(), OptOutSensitive(), {});
  const HistogramQuery query{"age", *Domain1D::Numeric(0, 100, 10),
                             std::nullopt};
  const Table& data = engine.snapshot()->table;
  const Histogram x = *ComputeHistogram(data, query);
  const Histogram xns =
      *ComputeHistogramMasked(data, query, engine.snapshot()->non_sensitive);
  for (double bad :
       {std::nan(""), std::numeric_limits<double>::infinity()}) {
    for (EngineMechanism m :
         {EngineMechanism::kLaplace, EngineMechanism::kOsdpLaplace,
          EngineMechanism::kOsdpLaplaceL1, EngineMechanism::kDawa,
          EngineMechanism::kDawaz, EngineMechanism::kHierarchical}) {
      Rng rng(7);
      const auto h = engine.RunMechanism(x, xns, bad, m, rng);
      ASSERT_FALSE(h.ok()) << EngineMechanismToString(m) << " eps=" << bad;
      EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument)
          << EngineMechanismToString(m) << " eps=" << bad;
    }
    Rng rng(7);
    const auto sample = OsdpRRRelease(data, engine.policy(), bad, rng);
    ASSERT_FALSE(sample.ok()) << "eps=" << bad;
    EXPECT_EQ(sample.status().code(), StatusCode::kInvalidArgument)
        << "eps=" << bad;
  }
}

}  // namespace
}  // namespace osdp
