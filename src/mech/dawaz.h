// DAWAz (Algorithm 3): the paper's recipe (Section 5.2, mech/recipe.h)
// applied to DAWA — ApplyOsdpRecipe over MakeDawaTwoPhase(opts.dawa).
//
//   1. Spend ε₁ = ρ·ε on an OSDP zero-bin detector over x_ns (OsdpRR in the
//      paper's experiments; OsdpLaplaceL1 also offered here).
//   2. Spend ε₂ = (1-ρ)·ε running DAWA on the full histogram x.
//   3. Post-process: zero every bin the detector says is empty, then within
//      each DAWA bucket rescale the surviving bins so the bucket keeps its
//      noisy total mass (with the corrected ratio noted in recipe.h).
//
// Satisfies (P, ε)-OSDP by sequential composition (Theorem 5.3): the zero
// detector is (P, ρε)-OSDP, DAWA is (1-ρ)ε-DP — hence (P, (1-ρ)ε)-OSDP by
// Lemma 3.1 — and step 3 is post-processing.

#ifndef OSDP_MECH_DAWAZ_H_
#define OSDP_MECH_DAWAZ_H_

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/dawa.h"

namespace osdp {

/// Which OSDP primitive detects zero bins in step 1.
enum class DawazZeroDetector {
  kOsdpRR = 0,        ///< binomial subsample of x_ns (paper's choice)
  kOsdpLaplaceL1 = 1, ///< clamped one-sided Laplace estimate of x_ns
};

/// Parameters of DAWAz.
struct DawazOptions {
  /// Fraction ρ of ε spent on the zero detector (paper: 0.1).
  double zero_budget_ratio = 0.1;
  /// Zero-bin detector choice.
  DawazZeroDetector detector = DawazZeroDetector::kOsdpRR;
  /// Options forwarded to the inner DAWA run.
  DawaOptions dawa;
};

/// \brief Runs DAWAz on (x, x_ns). Satisfies (P, ε)-OSDP (Theorem 5.3).
///
/// `x` is the histogram over all records, `x_ns` over the non-sensitive
/// subset; x_ns must be per-bin dominated by x.
Result<Histogram> Dawaz(const Histogram& x, const Histogram& xns,
                        double epsilon, const DawazOptions& opts, Rng& rng);

/// Convenience overload with default options (ρ = 0.1, OsdpRR detector).
Result<Histogram> Dawaz(const Histogram& x, const Histogram& xns,
                        double epsilon, Rng& rng);

}  // namespace osdp

#endif  // OSDP_MECH_DAWAZ_H_
