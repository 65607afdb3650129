// The workload generator is a pure function of (workload, seed): two
// generations with one seed render byte-identically, another seed differs.
// Exits non-zero on the first violation.

#include <cstdio>
#include <string>

#include "workload.h"

int main() {
  int failures = 0;
  for (const std::string& name : perfbench::WorkloadNames()) {
    perfbench::WorkloadSpec spec;
    if (!perfbench::FindSpec(name, &spec)) return 1;
    const std::string a =
        perfbench::SerializeWorkload(perfbench::GenerateWorkload(spec, 7, 1.0));
    const std::string b =
        perfbench::SerializeWorkload(perfbench::GenerateWorkload(spec, 7, 1.0));
    const std::string c =
        perfbench::SerializeWorkload(perfbench::GenerateWorkload(spec, 8, 1.0));
    if (a != b) {
      std::fprintf(stderr, "%s: seed 7 generated two different inputs\n",
                   name.c_str());
      ++failures;
    }
    if (a == c) {
      std::fprintf(stderr, "%s: seeds 7 and 8 generated the same inputs\n",
                   name.c_str());
      ++failures;
    }
    std::printf("%s: %zu bytes, deterministic=%d, seed-sensitive=%d\n",
                name.c_str(), a.size(), a == b, a != c);
  }
  return failures == 0 ? 0 : 1;
}
