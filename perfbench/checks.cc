#include <cstring>

#include "perfbench/workloads.h"

namespace perfbench {

bool SameFingerprints(const std::vector<uint64_t>& a,
                      const std::vector<uint64_t>& b) {
  return !a.empty() && a == b;
}

bool RoundTripsExactly(const IncShrinkConfig& config,
                       const std::vector<uint8_t>& snapshot) {
  if (snapshot.empty()) return false;
  incshrink::SynchronousDeployment fresh(config);
  if (!fresh.RestoreCheckpoint(snapshot).ok()) return false;
  incshrink::Result<std::vector<uint8_t>> again = fresh.SaveCheckpoint();
  return again.ok() && *again == snapshot;
}

bool EpsilonMatches(double composed, double configured) {
  // Bit equality: the accounting is exact arithmetic on the configured
  // values, so any drift is a defect, not rounding.
  return std::memcmp(&composed, &configured, sizeof(double)) == 0;
}

}  // namespace perfbench
