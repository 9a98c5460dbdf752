// cdes-top — a top(1)-style viewer over the engine's JSONL telemetry
// stream (Engine::StartTelemetryFile / EngineMetricsSnapshot::ToJsonLine).
//
// Follow mode (default) tails the stream and redraws a per-shard table —
// throughput, queue depth, residency, submit→complete p50/p99 latency, and
// the hottest guard sites — every time a new snapshot line lands. --once
// renders the last complete line and exits (CI smoke checks, quick looks
// at a finished run).
//
// Usage:  cdes-top <telemetry.jsonl> [--once] [--interval=<ms>]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "common/strings.h"
#include "obs/json.h"

namespace {

using cdes::obs::JsonValue;
using cdes::obs::ParseJson;

double NumberOr(const JsonValue* v, double fallback = 0) {
  return v != nullptr && v->kind() == JsonValue::Kind::kNumber ? v->number()
                                                               : fallback;
}

/// The whole file's last complete (newline-terminated) JSONL record. A
/// torn tail — the publisher mid-write — is ignored until its '\n' lands.
/// Re-reading from the start keeps the tailer trivial and is fine at the
/// stream's size: one line per publisher tick.
std::string LastLine(const std::string& path) {
  cdes::Result<std::string> read = cdes::ReadFile(path);
  if (!read.ok()) return "";
  const std::string& text = read.value();
  size_t end = text.rfind('\n');
  if (end == std::string::npos || end == 0) return "";
  size_t start = text.rfind('\n', end - 1);
  start = start == std::string::npos ? 0 : start + 1;
  return text.substr(start, end - start);
}

void RenderHistogram(const JsonValue& histograms, const char* name,
                     std::string* out) {
  const JsonValue* h = histograms.Find(name);
  if (h == nullptr) return;
  *out += cdes::StrCat("  ", name, ": p50=",
                       static_cast<uint64_t>(NumberOr(h->Find("p50"))),
                       "us p99=",
                       static_cast<uint64_t>(NumberOr(h->Find("p99"))),
                       "us count=",
                       static_cast<uint64_t>(NumberOr(h->Find("count"))),
                       "\n");
}

/// Renders one telemetry record as the full-screen table.
int Render(const std::string& line, bool clear) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) {
    std::fprintf(stderr, "cdes-top: bad telemetry line: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  const JsonValue& snap = parsed.value();
  std::string out;
  if (clear) out += "\033[H\033[2J";  // cursor home + clear screen

  uint64_t ts_us = static_cast<uint64_t>(NumberOr(snap.Find("ts_us")));
  out += cdes::StrCat(
      "cdes-top  t=", ts_us / 1000, "ms  shards=",
      static_cast<uint64_t>(NumberOr(snap.Find("shards"))), "  in_flight=",
      static_cast<uint64_t>(NumberOr(snap.Find("in_flight"))), "\n");
  out += cdes::StrCat(
      "  instances: ",
      static_cast<uint64_t>(NumberOr(snap.Find("completed"))), " / ",
      static_cast<uint64_t>(NumberOr(snap.Find("submitted"))),
      " completed (",
      static_cast<uint64_t>(NumberOr(snap.Find("rejected"))),
      " rejected)   events: ",
      static_cast<uint64_t>(NumberOr(snap.Find("events"))), "  (",
      static_cast<uint64_t>(NumberOr(snap.Find("events_per_sec"))),
      " events/sec)\n");

  const JsonValue* queue = snap.Find("shard_queue_depth");
  const JsonValue* resident = snap.Find("shard_resident");
  const JsonValue* events = snap.Find("shard_events");
  const JsonValue* instances = snap.Find("shard_instances");
  if (queue != nullptr && queue->kind() == JsonValue::Kind::kArray) {
    out += cdes::StrCat("\n  ", "shard   queue  resident  instances  events",
                        "\n");
    for (size_t k = 0; k < queue->array().size(); ++k) {
      auto at = [k](const JsonValue* a) -> uint64_t {
        if (a == nullptr || a->kind() != JsonValue::Kind::kArray ||
            k >= a->array().size()) {
          return 0;
        }
        return static_cast<uint64_t>(a->array()[k].number());
      };
      char row[128];
      std::snprintf(row, sizeof(row), "  %-7zu %-6llu %-9llu %-10llu %llu\n",
                    k, static_cast<unsigned long long>(at(queue)),
                    static_cast<unsigned long long>(at(resident)),
                    static_cast<unsigned long long>(at(instances)),
                    static_cast<unsigned long long>(at(events)));
      out += row;
    }
  }

  const JsonValue* histograms = snap.Find("histograms");
  if (histograms != nullptr &&
      histograms->kind() == JsonValue::Kind::kObject &&
      !histograms->object().empty()) {
    out += "\n";
    RenderHistogram(*histograms, "engine.latency_us", &out);
    RenderHistogram(*histograms, "engine.admission_wait_us", &out);
  }

  const JsonValue* caches = snap.Find("caches");
  if (caches != nullptr && caches->kind() == JsonValue::Kind::kObject) {
    auto pair = [&caches](const char* hits_key, const char* misses_key,
                          uint64_t* hits, uint64_t* total) {
      *hits = static_cast<uint64_t>(NumberOr(caches->Find(hits_key)));
      *total = *hits + static_cast<uint64_t>(NumberOr(caches->Find(misses_key)));
    };
    uint64_t red_hits = 0, red_total = 0, res_hits = 0, res_total = 0;
    pair("reduction_hits", "reduction_misses", &red_hits, &red_total);
    pair("residuation_hits", "residuation_misses", &res_hits, &res_total);
    if (red_total + res_total > 0) {
      auto pct = [](uint64_t hits, uint64_t total) {
        return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                      static_cast<double>(total);
      };
      char row[160];
      std::snprintf(row, sizeof(row),
                    "\n  symbolic caches: reduction %.1f%% hit "
                    "(%llu/%llu)  residuation %.1f%% hit (%llu/%llu)\n",
                    pct(red_hits, red_total),
                    static_cast<unsigned long long>(red_hits),
                    static_cast<unsigned long long>(red_total),
                    pct(res_hits, res_total),
                    static_cast<unsigned long long>(res_hits),
                    static_cast<unsigned long long>(res_total));
      out += row;
    }
  }

  const JsonValue* hot = snap.Find("hot_guards");
  if (hot != nullptr && hot->kind() == JsonValue::Kind::kArray &&
      !hot->array().empty()) {
    out += "\n  hottest guards:\n";
    for (const JsonValue& g : hot->array()) {
      const JsonValue* site = g.Find("site");
      out += cdes::StrCat(
          "    ", site != nullptr ? site->string() : "?", "  evals=",
          static_cast<uint64_t>(NumberOr(g.Find("evaluations"))), " wall=",
          static_cast<uint64_t>(NumberOr(g.Find("wall_ns")) / 1000), "us\n");
    }
  }
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool once = false;
  unsigned interval_ms = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--once") {
      once = true;
    } else if (std::strncmp(argv[i], "--interval=", 11) == 0) {
      interval_ms = static_cast<unsigned>(std::strtoul(argv[i] + 11,
                                                       nullptr, 10));
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: cdes-top <telemetry.jsonl> [--once] "
                 "[--interval=<ms>]\n");
    return 2;
  }

  if (once) {
    std::string line = LastLine(path);
    if (line.empty()) {
      std::fprintf(stderr, "cdes-top: no complete telemetry line in %s\n",
                   path);
      return 1;
    }
    return Render(line, /*clear=*/false);
  }

  std::string shown;
  while (true) {
    std::string line = LastLine(path);
    if (!line.empty() && line != shown) {
      if (Render(line, /*clear=*/true) != 0) return 1;
      shown = std::move(line);
    }
    usleep(interval_ms * 1000);
  }
}
