#include "src/mech/two_phase.h"

#include <utility>
#include <vector>

namespace osdp {

Status ValidateBinGroups(const BinGroups& groups, size_t bins) {
  if (groups.label.size() != bins) {
    return Status::InvalidArgument("grouping does not label every bin once");
  }
  std::vector<bool> used(groups.num_groups, false);
  for (uint32_t g : groups.label) {
    if (g >= groups.num_groups) {
      return Status::InvalidArgument("group label out of range");
    }
    used[g] = true;
  }
  for (bool u : used) {
    if (!u) return Status::InvalidArgument("empty bin group");
  }
  return Status::OK();
}

namespace {

class DawaTwoPhase final : public TwoPhaseMechanism {
 public:
  explicit DawaTwoPhase(DawaOptions opts) : opts_(opts) {}

  const std::string& name() const override {
    static const std::string kName = "DAWA";
    return kName;
  }

  Result<Output> Run(const Histogram& x, double epsilon,
                     Rng& rng) const override {
    OSDP_ASSIGN_OR_RETURN(DawaResult r, Dawa(x, epsilon, opts_, rng));
    BinGroups groups;
    groups.label.resize(x.size());
    for (const DawaBucket& b : r.partition) {
      for (size_t i = b.begin; i < b.end; ++i) {
        groups.label[i] = groups.num_groups;
      }
      ++groups.num_groups;
    }
    return Output{std::move(r.estimate), std::move(groups)};
  }

 private:
  DawaOptions opts_;
};

}  // namespace

std::unique_ptr<TwoPhaseMechanism> MakeDawaTwoPhase(DawaOptions opts) {
  return std::make_unique<DawaTwoPhase>(opts);
}

}  // namespace osdp
