#include "diag/invariants.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace rock::diag {

size_t InvariantCheckInterval(size_t configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("ROCK_DIAG_CHECKS")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<size_t>(v);
    return 1;  // set but not a number ("on", "yes", …) → check every merge
  }
#ifdef ROCK_DIAG_CHECKS_DEFAULT
  return 16;
#else
  return 0;
#endif
}

void InvariantReport::Report(std::string_view check, std::string detail) {
  constexpr size_t kMaxLogged = 20;
  if (violations_.size() < kMaxLogged) {
    std::fprintf(stderr, "rock-diag: invariant violation [%.*s] %s\n",
                 static_cast<int>(check.size()), check.data(),
                 detail.c_str());
  } else if (violations_.size() == kMaxLogged) {
    std::fprintf(stderr, "rock-diag: further violations suppressed\n");
  }
  violations_.push_back(
      InvariantViolation{std::string(check), std::move(detail)});
}

void CheckNeighborGraph(const NeighborGraph& graph, InvariantReport* report) {
  report->NoteCheck();
  const size_t n = graph.size();
  for (size_t i = 0; i < n; ++i) {
    const auto& row = graph.nbrlist[i];
    if (!std::is_sorted(row.begin(), row.end())) {
      report->Report("graph.sorted",
                     "row " + std::to_string(i) + " is not sorted");
    }
    if (std::adjacent_find(row.begin(), row.end()) != row.end()) {
      report->Report("graph.dedup",
                     "row " + std::to_string(i) + " has duplicates");
    }
    for (PointIndex j : row) {
      if (j == i) {
        report->Report("graph.self_loop",
                       "point " + std::to_string(i) + " lists itself");
        continue;
      }
      if (j >= n) {
        report->Report("graph.range", "row " + std::to_string(i) +
                                          " lists out-of-range " +
                                          std::to_string(j));
        continue;
      }
      if (!graph.AreNeighbors(j, static_cast<PointIndex>(i))) {
        report->Report("graph.symmetry",
                       "edge (" + std::to_string(i) + ", " +
                           std::to_string(j) + ") has no reverse entry");
      }
    }
  }
}

void CheckLinkMatrixSymmetry(const LinkMatrix& links,
                             InvariantReport* report) {
  report->NoteCheck();
  const size_t n = links.size();
  size_t entries = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto pi = static_cast<PointIndex>(i);
    const LinkRowSpan row = links.FlatRow(pi);
    for (size_t e = 0; e < row.size; ++e) {
      const PointIndex j = row.partners[e];
      const LinkCount count = row.counts[e];
      ++entries;
      total += count;
      if (j == pi) {
        report->Report("links.self",
                       "point " + std::to_string(i) + " links to itself");
        continue;
      }
      if (count == 0) {
        report->Report("links.zero_entry",
                       "stored zero at (" + std::to_string(i) + ", " +
                           std::to_string(j) + ")");
      }
      if (links.Count(j, pi) != count) {
        report->Report("links.symmetry",
                       "link(" + std::to_string(i) + ", " +
                           std::to_string(j) + ") = " +
                           std::to_string(count) + " but reverse = " +
                           std::to_string(links.Count(j, pi)));
      }
    }
  }
  if (entries % 2 != 0 || entries / 2 != links.NumNonZeroPairs()) {
    report->Report("links.pair_count",
                   "row scan found " + std::to_string(entries) +
                       " entries but NumNonZeroPairs() = " +
                       std::to_string(links.NumNonZeroPairs()));
  }
  if (total % 2 != 0 || total / 2 != links.TotalLinks()) {
    report->Report("links.total",
                   "row scan totals " + std::to_string(total) +
                       " but TotalLinks() = " +
                       std::to_string(links.TotalLinks()));
  }
}

void CheckLinksMatchGraph(const NeighborGraph& graph, const LinkMatrix& links,
                          InvariantReport* report) {
  report->NoteCheck();
  if (links.size() != graph.size()) {
    report->Report("links.size", "matrix size " +
                                     std::to_string(links.size()) +
                                     " != graph size " +
                                     std::to_string(graph.size()));
    return;
  }
  const LinkMatrix expected = ComputeLinksBruteForce(graph);
  const auto n = static_cast<PointIndex>(graph.size());
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
      if (links.Count(i, j) != expected.Count(i, j)) {
        report->Report("links.recount",
                       "link(" + std::to_string(i) + ", " +
                           std::to_string(j) + ") = " +
                           std::to_string(links.Count(i, j)) +
                           " but recount = " +
                           std::to_string(expected.Count(i, j)));
      }
    }
  }
}

}  // namespace rock::diag
