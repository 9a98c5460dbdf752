#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/strings.h"

namespace cdes::obs {

Histogram::Histogram(std::string name, std::vector<uint64_t> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(uint64_t sample) {
  size_t i = 0;
  while (i < bounds_.size() && sample > bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += sample;
  if (sample < min_) min_ = sample;
  if (sample > max_) max_ = sample;
}

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  uint64_t rank = static_cast<uint64_t>(p * (count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // A bucket's bound can exceed every sample in it; no percentile lies
      // outside the observed range.
      return i < bounds_.size() ? std::clamp(bounds_[i], min(), max_) : max_;
    }
  }
  return max_;
}

bool Histogram::MergeFrom(const Histogram& other) {
  if (bounds_ != other.bounds_) return false;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  return true;
}

size_t MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name)->Increment(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauge(name)->Set(g->value());
  }
  size_t mismatched = 0;
  for (const auto& [name, h] : other.histograms_) {
    if (!histogram(name, h->bounds())->MergeFrom(*h)) ++mismatched;
  }
  return mismatched;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<uint64_t>& bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::unique_ptr<Histogram>(
                                             new Histogram(std::string(name),
                                                           bounds)))
             .first;
  }
  return it->second.get();
}

std::vector<uint64_t> MetricsRegistry::ExponentialBounds(uint64_t start,
                                                         size_t count) {
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  uint64_t b = start == 0 ? 1 : start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    if (b > UINT64_MAX / 2) break;
    b *= 2;
  }
  return bounds;
}

const std::vector<uint64_t>& MetricsRegistry::DefaultBounds() {
  static const std::vector<uint64_t> kBounds = ExponentialBounds(1, 24);
  return kBounds;
}

namespace {

std::string DoubleToJson(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += StrCat(first ? "" : ",", "\n    \"", name, "\": ", c->value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += StrCat(first ? "" : ",", "\n    \"", name,
                  "\": ", DoubleToJson(g->value()));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += StrCat(first ? "" : ",", "\n    \"", name, "\": {\"count\": ",
                  h->count(), ", \"sum\": ", h->sum(), ", \"min\": ", h->min(),
                  ", \"max\": ", h->max(),
                  ", \"mean\": ", DoubleToJson(h->Mean()),
                  ", \"p50\": ", h->Percentile(0.5),
                  ", \"p99\": ", h->Percentile(0.99), ", \"buckets\": [");
    for (size_t i = 0; i < h->buckets().size(); ++i) {
      out += StrCat(i == 0 ? "" : ", ", h->buckets()[i]);
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n}" : "\n  }\n}";
  return out;
}

}  // namespace cdes::obs
