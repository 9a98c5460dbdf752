#include "obs/profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "common/strings.h"
#include "obs/metrics.h"

namespace cdes::obs {

SymbolicCacheStats CacheStatsFrom(const MetricsRegistry& metrics) {
  auto value = [&metrics](std::string_view name) -> uint64_t {
    auto g = metrics.gauges().find(name);
    return g == metrics.gauges().end()
               ? 0
               : static_cast<uint64_t>(g->second->value());
  };
  SymbolicCacheStats stats;
  stats.reduction_hits = value("guards.reduction_cache_hits");
  stats.reduction_misses = value("guards.reduction_cache_misses");
  stats.residuation_hits = value("algebra.residuation_cache_hits");
  stats.residuation_misses = value("algebra.residuation_cache_misses");
  return stats;
}

double GuardSiteStats::EstimatedWallNs() const {
  if (sampled_evaluations == 0) return 0.0;
  return static_cast<double>(sampled_wall_ns) /
         static_cast<double>(sampled_evaluations) *
         static_cast<double>(evaluations);
}

std::string GuardSiteStats::Label() const {
  return StrCat(dependency, " -> ", event, " (", source, ")");
}

void GuardProfiler::set_source(std::string source) {
  std::lock_guard<std::mutex> lock(mu_);
  source_ = std::move(source);
}

GuardProfiler::Site* GuardProfiler::RegisterSite(std::string_view dependency,
                                                 std::string_view event,
                                                 SourceLocation loc) {
  std::string key = StrCat(dependency, "\x1f", event);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  Site& site = sites_.emplace_back();
  site.dependency = std::string(dependency);
  site.event = std::string(event);
  site.source = loc.known() && !source_.empty()
                    ? StrCat(source_, ":", loc.ToString())
                    : loc.ToString();
  index_.emplace(std::move(key), &site);
  return &site;
}

GuardSiteStats GuardProfiler::Read(const Site& s) {
  GuardSiteStats out;
  out.dependency = s.dependency;
  out.event = s.event;
  out.source = s.source;
  out.evaluations = s.evaluations.load(std::memory_order_relaxed);
  out.residuation_steps = s.residuation_steps.load(std::memory_order_relaxed);
  out.nodes_visited = s.nodes_visited.load(std::memory_order_relaxed);
  out.sampled_evaluations =
      s.sampled_evaluations.load(std::memory_order_relaxed);
  out.sampled_wall_ns = s.sampled_wall_ns.load(std::memory_order_relaxed);
  return out;
}

std::vector<GuardSiteStats> GuardProfiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GuardSiteStats> out;
  out.reserve(sites_.size());
  for (const Site& s : sites_) out.push_back(Read(s));
  return out;
}

namespace {

bool CostlierThan(const GuardSiteStats& a, const GuardSiteStats& b) {
  double wa = a.EstimatedWallNs(), wb = b.EstimatedWallNs();
  if (wa != wb) return wa > wb;
  if (a.Work() != b.Work()) return a.Work() > b.Work();
  if (a.evaluations != b.evaluations) return a.evaluations > b.evaluations;
  // Deterministic tie-break for stable reports.
  return std::tie(a.dependency, a.event) < std::tie(b.dependency, b.event);
}

std::string FormatNs(double ns) {
  char buf[32];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

}  // namespace

std::vector<GuardSiteStats> GuardProfiler::TopK(size_t k) const {
  std::vector<GuardSiteStats> all = Snapshot();
  std::sort(all.begin(), all.end(), CostlierThan);
  if (all.size() > k) all.resize(k);
  return all;
}

std::optional<GuardSiteStats> GuardProfiler::HottestFor(
    std::string_view event) const {
  std::optional<GuardSiteStats> best;
  for (GuardSiteStats& s : Snapshot()) {
    if (s.event != event) continue;
    if (!best || CostlierThan(s, *best)) best = std::move(s);
  }
  return best;
}

std::string GuardProfiler::TopKReport(size_t k,
                                      const SymbolicCacheStats* caches) const {
  std::vector<GuardSiteStats> top = TopK(k);
  std::string sampling = sample_every_ == 1
                             ? std::string("always")
                             : StrCat("every ", sample_every_, "th");
  std::string out =
      StrCat("guard profiler: top ", top.size(), " of ", site_count(),
             " sites (", total_evaluations(), " evaluations, wall sampled ",
             sampling, ")\n");
  out += "  rank   est.total      evals  steps/eval  nodes/eval  site\n";
  int rank = 0;
  for (const GuardSiteStats& s : top) {
    double evals =
        s.evaluations == 0 ? 1.0 : static_cast<double>(s.evaluations);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %4d  %10s  %9llu  %10.2f  %10.2f  ",
                  ++rank, FormatNs(s.EstimatedWallNs()).c_str(),
                  static_cast<unsigned long long>(s.evaluations),
                  static_cast<double>(s.residuation_steps) / evals,
                  static_cast<double>(s.nodes_visited) / evals);
    out += buf;
    out += s.Label();
    out += "\n";
  }
  if (caches != nullptr && caches->Any()) {
    auto rate = [](uint64_t hits, uint64_t misses) {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                    static_cast<double>(total);
    };
    char buf[160];
    std::snprintf(
        buf, sizeof(buf),
        "  symbolic caches: reduction %.1f%% hit (%llu/%llu), "
        "residuation %.1f%% hit (%llu/%llu)\n",
        rate(caches->reduction_hits, caches->reduction_misses),
        static_cast<unsigned long long>(caches->reduction_hits),
        static_cast<unsigned long long>(caches->reduction_hits +
                                        caches->reduction_misses),
        rate(caches->residuation_hits, caches->residuation_misses),
        static_cast<unsigned long long>(caches->residuation_hits),
        static_cast<unsigned long long>(caches->residuation_hits +
                                        caches->residuation_misses));
    out += buf;
  }
  return out;
}

std::string GuardProfiler::CollapsedStacks() const {
  std::vector<GuardSiteStats> all = Snapshot();
  std::sort(all.begin(), all.end(), CostlierThan);
  std::string out;
  for (const GuardSiteStats& s : all) {
    uint64_t weight = static_cast<uint64_t>(std::llround(s.EstimatedWallNs()));
    if (weight == 0) weight = s.Work();
    if (weight == 0) weight = s.evaluations;
    out += StrCat(s.source, ";", s.dependency, ";", s.event, " ", weight, "\n");
  }
  return out;
}

uint64_t GuardProfiler::total_evaluations() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const Site& s : sites_) {
    total += s.evaluations.load(std::memory_order_relaxed);
  }
  return total;
}

size_t GuardProfiler::site_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_.size();
}

}  // namespace cdes::obs
