#include "util/failpoint.h"

#include <cstdlib>

#include "common/string_util.h"

#ifdef ROCK_FAILPOINTS_ENABLED
#include <atomic>
#include <mutex>
#include <unordered_map>
#include <vector>
#endif

namespace rock::fail {

Status InjectedError(std::string_view site) {
  return Status::IOError("injected fault at '" + std::string(site) + "'");
}

Status InjectedCrash(std::string_view site) {
  return Status::Internal(std::string(kCrashMarker) + " at '" +
                          std::string(site) + "'");
}

bool IsInjectedCrash(const Status& status) {
  return status.IsInternal() &&
         status.message().find(kCrashMarker) != std::string::npos;
}

#ifdef ROCK_FAILPOINTS_ENABLED

namespace {

struct Site {
  uint64_t fire_at = 0;      ///< trigger threshold N
  bool every = false;        ///< fire_every_N vs fire_on_hit_N
  Action action = Action::kNone;
  uint64_t hits = 0;
  uint64_t fired = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Site> sites;
};

Registry& Global() {
  static Registry* r = new Registry();
  return *r;
}

Result<Action> ParseAction(std::string_view token) {
  if (token == "error") return Action::kError;
  if (token == "short_read") return Action::kShortRead;
  if (token == "torn_write") return Action::kTornWrite;
  if (token == "crash") return Action::kCrash;
  return Status::InvalidArgument("unknown failpoint action '" +
                                 std::string(token) + "'");
}

Status ParseEntry(std::string_view entry,
                  std::unordered_map<std::string, Site>* sites) {
  const size_t eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return Status::InvalidArgument("failpoint entry '" + std::string(entry) +
                                   "' is not site=trigger:action");
  }
  const std::string site(Trim(entry.substr(0, eq)));
  std::string_view rest = Trim(entry.substr(eq + 1));
  const size_t colon = rest.find(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument("failpoint entry for '" + site +
                                   "' is missing ':action'");
  }
  const std::string_view trigger = Trim(rest.substr(0, colon));
  const std::string_view action_token = Trim(rest.substr(colon + 1));

  Site config;
  std::string_view count_text;
  constexpr std::string_view kOnHit = "fire_on_hit_";
  constexpr std::string_view kEvery = "fire_every_";
  if (StartsWith(trigger, kOnHit)) {
    config.every = false;
    count_text = trigger.substr(kOnHit.size());
  } else if (StartsWith(trigger, kEvery)) {
    config.every = true;
    count_text = trigger.substr(kEvery.size());
  } else {
    return Status::InvalidArgument(
        "unknown failpoint trigger '" + std::string(trigger) +
        "' (expected fire_on_hit_N or fire_every_N)");
  }
  if (count_text.empty()) {
    return Status::InvalidArgument("failpoint trigger for '" + site +
                                   "' is missing its hit count");
  }
  uint64_t n = 0;
  for (char c : count_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("failpoint hit count '" +
                                     std::string(count_text) +
                                     "' is not a positive integer");
    }
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  if (n == 0) {
    return Status::InvalidArgument("failpoint hit count must be >= 1");
  }
  config.fire_at = n;

  auto action = ParseAction(action_token);
  ROCK_RETURN_IF_ERROR(action.status());
  config.action = *action;

  if (sites->count(site) > 0) {
    return Status::InvalidArgument("failpoint site '" + site +
                                   "' configured twice");
  }
  (*sites)[site] = config;
  return Status::OK();
}

}  // namespace

std::atomic<bool> internal::g_armed{false};

Status Configure(std::string_view spec) {
  std::unordered_map<std::string, Site> parsed;
  std::string_view remaining = spec;
  while (!remaining.empty()) {
    const size_t sep = remaining.find(';');
    std::string_view entry = Trim(sep == std::string_view::npos
                                      ? remaining
                                      : remaining.substr(0, sep));
    remaining = sep == std::string_view::npos
                    ? std::string_view()
                    : remaining.substr(sep + 1);
    if (entry.empty()) continue;
    ROCK_RETURN_IF_ERROR(ParseEntry(entry, &parsed));
  }
  Registry& r = Global();
  std::lock_guard<std::mutex> lock(r.mu);
  r.sites = std::move(parsed);
  internal::g_armed.store(!r.sites.empty(), std::memory_order_release);
  return Status::OK();
}

void Clear() {
  Registry& r = Global();
  std::lock_guard<std::mutex> lock(r.mu);
  r.sites.clear();
  internal::g_armed.store(false, std::memory_order_release);
}

Action internal::ConsultArmed(std::string_view site) {
  Registry& r = Global();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(std::string(site));
  if (it == r.sites.end()) return Action::kNone;
  Site& s = it->second;
  ++s.hits;
  const bool fire = s.every ? (s.hits % s.fire_at == 0)
                            : (s.hits == s.fire_at);
  if (!fire) return Action::kNone;
  ++s.fired;
  return s.action;
}

uint64_t FiredCount(std::string_view site) {
  Registry& r = Global();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(std::string(site));
  return it == r.sites.end() ? 0 : it->second.fired;
}

uint64_t HitCount(std::string_view site) {
  Registry& r = Global();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(std::string(site));
  return it == r.sites.end() ? 0 : it->second.hits;
}

std::map<std::string, uint64_t> FiredSnapshot() {
  Registry& r = Global();
  std::lock_guard<std::mutex> lock(r.mu);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, site] : r.sites) {
    if (site.fired > 0) out[name] = site.fired;
  }
  return out;
}

#endif  // ROCK_FAILPOINTS_ENABLED

Status ConfigureFromEnv() {
  const char* env = std::getenv("ROCK_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return Status::OK();
  return Configure(env);
}

}  // namespace rock::fail
