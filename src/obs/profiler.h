#ifndef CDES_OBS_PROFILER_H_
#define CDES_OBS_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/source_location.h"

namespace cdes::obs {

/// Monotonic nanosecond clock used for sampled guard wall times.
inline uint64_t ProfilerNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A snapshot of one profiled guard site: the cost attributable to a single
/// (dependency, event) pair — either synthesizing that dependency's guard
/// contribution at compile time or its share of the event's firability
/// checks at run time. `nodes_visited` counts guard nodes newly interned.
struct GuardSiteStats {
  std::string dependency;
  std::string event;
  /// "file:line:col" when the profiler has a source file and the dependency
  /// carried a parser location, "line:col" without a file, else "?".
  std::string source;
  uint64_t evaluations = 0;
  uint64_t residuation_steps = 0;
  uint64_t nodes_visited = 0;
  uint64_t sampled_evaluations = 0;
  uint64_t sampled_wall_ns = 0;

  /// Sampled wall time scaled up to all evaluations; 0 with no samples.
  double EstimatedWallNs() const;
  /// Clock-free cost proxy used to rank sites when sampling caught nothing.
  uint64_t Work() const { return residuation_steps + nodes_visited; }
  /// "dep -> event (source)".
  std::string Label() const;
};

/// Hit/miss tallies of the shard-shared symbolic caches, gathered by the
/// caller (the reduction cache lives in guards/, the residuation cache in
/// algebra/ — the profiler only formats them). Passed to TopKReport so
/// hotspot tables show how much of the ranked work was actually memoized.
struct SymbolicCacheStats {
  uint64_t reduction_hits = 0;
  uint64_t reduction_misses = 0;
  uint64_t residuation_hits = 0;
  uint64_t residuation_misses = 0;
  bool Any() const {
    return reduction_hits + reduction_misses + residuation_hits +
               residuation_misses >
           0;
  }
};

class MetricsRegistry;

/// Reads the symbolic-cache tallies a running system exported into
/// `metrics`: the `guards.reduction_cache_*` and
/// `algebra.residuation_cache_*` gauges the engine shards (and bench
/// snapshots) publish. Absent entries read as zero.
SymbolicCacheStats CacheStatsFrom(const MetricsRegistry& metrics);

/// Per-guard-site cost accounting keyed by (dependency, event), with spec
/// source attribution threaded from the parser. One profiler is shared by
/// every component that evaluates guards of a workflow — the compiler
/// (synthesis cost), schedulers (firability checks), and all engine shards.
///
/// Thread model: RegisterSite takes a mutex and deduplicates by key, so
/// shards compiling the same workflow share sites (cold path — once per
/// site per scheduler). The record path touches only relaxed atomics on an
/// opaque Site handle; sites live in a deque, so handles stay valid while
/// other threads register. Snapshot readers see per-field consistent values
/// (not a mutually-atomic cut), which is fine for reporting.
///
/// Wall-clock sampling: only every `sample_every`-th evaluation of a site
/// is timed (steady_clock), keeping the profiled hot path cheap;
/// EstimatedWallNs scales the samples back up. Pass 1 to time everything
/// (e.g. specc's one-shot compile profile).
class GuardProfiler {
 public:
  struct Site {
    std::string dependency;
    std::string event;
    std::string source;
    std::atomic<uint64_t> evaluations{0};
    std::atomic<uint64_t> residuation_steps{0};
    std::atomic<uint64_t> nodes_visited{0};
    std::atomic<uint64_t> sampled_evaluations{0};
    std::atomic<uint64_t> sampled_wall_ns{0};
  };

  explicit GuardProfiler(uint64_t sample_every = 64)
      : sample_every_(sample_every == 0 ? 1 : sample_every) {}
  GuardProfiler(const GuardProfiler&) = delete;
  GuardProfiler& operator=(const GuardProfiler&) = delete;

  /// Sets the spec file name prefixed to site locations registered from
  /// now on (SourceLocation itself is file-less). Call before compiling.
  void set_source(std::string source);

  uint64_t sample_every() const { return sample_every_; }

  /// Get-or-create the site for (dependency, event). The handle is stable
  /// for the profiler's lifetime and shared across registrants.
  Site* RegisterSite(std::string_view dependency, std::string_view event,
                     SourceLocation loc);

  /// Counts one evaluation and returns true when the caller should
  /// wall-time it (every sample_every-th evaluation of the site).
  bool BeginEvaluation(Site* site) {
    uint64_t n = site->evaluations.fetch_add(1, std::memory_order_relaxed);
    return sample_every_ == 1 || n % sample_every_ == 0;
  }

  /// Accumulates the cost of one evaluation; `wall_ns` is honoured only
  /// when `sampled` (i.e. BeginEvaluation returned true).
  void Record(Site* site, uint64_t residuation_steps, uint64_t nodes_visited,
              uint64_t wall_ns, bool sampled) {
    site->residuation_steps.fetch_add(residuation_steps,
                                      std::memory_order_relaxed);
    site->nodes_visited.fetch_add(nodes_visited, std::memory_order_relaxed);
    if (sampled) {
      site->sampled_evaluations.fetch_add(1, std::memory_order_relaxed);
      site->sampled_wall_ns.fetch_add(wall_ns, std::memory_order_relaxed);
    }
  }

  std::vector<GuardSiteStats> Snapshot() const;
  /// Sites sorted most-expensive first (estimated wall, then Work()),
  /// truncated to `k`.
  std::vector<GuardSiteStats> TopK(size_t k) const;
  /// The most expensive site whose event name equals `event`.
  std::optional<GuardSiteStats> HottestFor(std::string_view event) const;

  /// Human-readable hotspot table with file:line attribution. When `caches`
  /// is non-null and has any traffic, a symbolic-cache effectiveness line
  /// (hit rates of the reduction and residuation memos) is appended.
  std::string TopKReport(size_t k = 10,
                         const SymbolicCacheStats* caches = nullptr) const;
  /// Collapsed-stack format ("source;dependency;event weight" lines) for
  /// flamegraph.pl / speedscope; weight is estimated wall ns (falls back
  /// to Work() when sampling caught nothing).
  std::string CollapsedStacks() const;

  uint64_t total_evaluations() const;
  size_t site_count() const;

 private:
  static GuardSiteStats Read(const Site& s);

  const uint64_t sample_every_;
  mutable std::mutex mu_;  // guards source_, sites_ growth, index_
  std::string source_;
  std::deque<Site> sites_;
  std::map<std::string, Site*, std::less<>> index_;  // "dep\x1f" + event
};

}  // namespace cdes::obs

#endif  // CDES_OBS_PROFILER_H_
