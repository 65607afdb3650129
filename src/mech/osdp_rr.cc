#include "src/mech/osdp_rr.h"

#include <cmath>

#include "src/accounting/budget.h"
#include "src/common/distributions.h"

namespace osdp {

double OsdpRRReleaseProbability(double epsilon) {
  return 1.0 - std::exp(-epsilon);
}

Result<std::vector<size_t>> OsdpRRSelect(const Table& table,
                                         const Policy& policy, double epsilon,
                                         Rng& rng) {
  if (!IsValidEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  OSDP_RETURN_IF_ERROR(policy.TypeCheck(table.schema()));
  const double p = OsdpRRReleaseProbability(epsilon);
  // Batch-classify once, then draw one Bernoulli per non-sensitive row —
  // the same coin sequence as the old row-at-a-time loop.
  std::vector<size_t> out;
  policy.NonSensitiveRowMask(table).ForEachSet([&](size_t row) {
    if (rng.NextBernoulli(p)) out.push_back(row);
  });
  return out;
}

Result<Table> OsdpRRRelease(const Table& table, const Policy& policy,
                            double epsilon, Rng& rng) {
  OSDP_ASSIGN_OR_RETURN(TableView view,
                        OsdpRRReleaseView(table, policy, epsilon, rng));
  return view.Materialize();
}

Result<TableView> OsdpRRReleaseView(const Table& table, const Policy& policy,
                                    double epsilon, Rng& rng) {
  OSDP_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                        OsdpRRSelect(table, policy, epsilon, rng));
  RowMask mask(table.num_rows());
  for (size_t r : rows) mask.Set(r);
  return table.SelectRowsView(std::move(mask));
}

Result<Histogram> OsdpRRHistogram(const Histogram& xns, double epsilon,
                                  Rng& rng) {
  if (!IsValidEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  OSDP_RETURN_IF_ERROR(xns.ValidateNonNegative());
  const double p = OsdpRRReleaseProbability(epsilon);
  Histogram out(xns.size());
  for (size_t i = 0; i < xns.size(); ++i) {
    const auto n = static_cast<int64_t>(xns[i]);
    out[i] = static_cast<double>(SampleBinomial(rng, n, p));
  }
  return out;
}

PrivacyGuarantee OsdpRRGuarantee(double epsilon,
                                 const std::string& policy_name) {
  PrivacyGuarantee g;
  g.model = PrivacyModel::kOSDP;
  g.epsilon = epsilon;
  g.policy_name = policy_name;
  g.exclusion_attack_phi = epsilon;
  return g;
}

double OsdpRRExpectedL1Error(double total_records,
                             double non_sensitive_records, double epsilon) {
  const double sensitive = total_records - non_sensitive_records;
  return sensitive + non_sensitive_records * std::exp(-epsilon);
}

}  // namespace osdp
