#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  const size_t beyond = std::max<size_t>(10, values.size() / 100);
  if (values.size() <= beyond) {
    tail.value = Median(std::move(values));
    tail.percentile = 50;
    return tail;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  tail.value = values[n - 1 - beyond];
  tail.percentile = 100.0 * static_cast<double>(n - beyond) / n;
  return tail;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "... kB"
    }
  }
  return 0;
}

int64_t Tracer::Record(const std::string& name, int64_t op_id, int64_t parent,
                       int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.op_id = op_id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Extend(int64_t id, int64_t end_ns) {
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimes(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": %s, \"id\": %lld, \"parent\": %lld, \"op\": %lld, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld}\n",
                 JsonString(s.name).c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children's intervals per parent, clipped to the parent.
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  for (const Span& s : spans) {
    auto parent = index.find(s.parent);
    if (parent == index.end()) continue;
    const Span& p = spans[parent->second];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[p.id].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t covered = 0;
    auto it = children.find(spans[i].id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = iv[0].first, cur_hi = iv[0].second;
      for (size_t k = 1; k < iv.size(); ++k) {
        if (iv[k].first <= cur_hi) {
          cur_hi = std::max(cur_hi, iv[k].second);
        } else {
          covered += cur_hi - cur_lo;
          cur_lo = iv[k].first;
          cur_hi = iv[k].second;
        }
      }
      covered += cur_hi - cur_lo;
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

std::map<std::string, LayerTime> SelfTimeByName(
    const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.calls;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
