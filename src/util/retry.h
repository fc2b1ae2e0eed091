// librock — util/retry.h
//
// Transient-error retry with capped exponential backoff, wrapped around the
// disk pipeline's I/O (store scans, checkpoint/bundle persistence). Only
// IOError is considered transient: Corruption means the bytes are wrong and
// rereading them cannot help, and an injected crash (util/failpoint.h) must
// abort the run so resume can be exercised. The sleeper is injectable so
// tests assert the exact backoff schedule without waiting for it.

#ifndef ROCK_UTIL_RETRY_H_
#define ROCK_UTIL_RETRY_H_

#include <cstdint>
#include <functional>
#include <string_view>

#include "common/status.h"

namespace rock {

/// Backoff schedule for RetryTransient. Defaults are tuned for local disk
/// hiccups: up to 4 attempts, sleeping 1ms, 2ms, 4ms between them.
struct RetryPolicy {
  /// Total attempts, including the first (>= 1). 1 disables retrying.
  int max_attempts = 4;
  /// Sleep before the first retry, in milliseconds.
  double initial_backoff_ms = 1.0;
  /// Backoff growth per retry.
  double multiplier = 2.0;
  /// Cap on a single sleep, in milliseconds.
  double max_backoff_ms = 64.0;
};

/// Sleeps for `ms` milliseconds. Tests substitute a recording fake; the
/// default sleeper really sleeps.
using RetrySleeper = std::function<void(double ms)>;

/// The default RetrySleeper (std::this_thread::sleep_for).
void SleepMs(double ms);

/// Retry counters accumulated by RetryTransient. Parallel callers keep one
/// per worker and merge after joining (MetricsRegistry is single-writer),
/// surfacing them as the retry.* metrics (docs/OBSERVABILITY.md).
struct RetryStats {
  uint64_t attempts = 0;    ///< operations attempted (first tries + retries)
  uint64_t retries = 0;     ///< attempts that were retries
  uint64_t exhausted = 0;   ///< operations that failed every attempt
  double backoff_ms = 0.0;  ///< total time handed to the sleeper

  /// Adds `other`'s counts into this.
  void Merge(const RetryStats& other);
};

/// Runs `op` until it succeeds, fails non-transiently, or exhausts
/// `policy.max_attempts`. Transient means Status::IOError, except injected
/// crashes, which abort immediately. Returns the last status. `stats` and
/// `sleeper` may be null (no accounting / really sleep).
Status RetryTransient(const RetryPolicy& policy,
                      const std::function<Status()>& op,
                      RetryStats* stats = nullptr,
                      const RetrySleeper& sleeper = nullptr);

}  // namespace rock

#endif  // ROCK_UTIL_RETRY_H_
