#include "core/options.h"

namespace rock {

double MarketBasketF(double theta) { return (1.0 - theta) / (1.0 + theta); }

double ConservativeMarketBasketF(double theta) { return 1.0 / (1.0 + theta); }

Status RockOptions::Validate() const {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  if (!f) {
    return Status::InvalidArgument("f(theta) function must be set");
  }
  const double fv = f(theta);
  if (!(fv >= 0.0)) {
    return Status::InvalidArgument("f(theta) must be non-negative");
  }
  // Negated-comparison form so a NaN (which fails every ordered compare)
  // is rejected here rather than slipping past both range checks.
  if (!(outlier_stop_multiple >= 0.0)) {
    return Status::InvalidArgument("outlier_stop_multiple must be >= 0");
  }
  if (outlier_stop_multiple > 0.0 && outlier_stop_multiple < 1.0) {
    return Status::InvalidArgument(
        "outlier_stop_multiple must be >= 1 when enabled");
  }
  if (row_chunk == 0) {
    return Status::InvalidArgument("row_chunk must be >= 1");
  }
  return Status::OK();
}

}  // namespace rock
