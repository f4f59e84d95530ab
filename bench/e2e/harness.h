// Measurement helpers for bench_e2e: exact sample percentiles, process
// readings from /proc and getrusage, and the ordered metric report the
// benchmark prints as `name value unit` lines plus one JSON result line.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace sdci::bench_e2e {

// A bag of measurements with exact quantiles (linear interpolation between
// closest ranks, as numpy's default does).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); sorted_ = false; }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  [[nodiscard]] size_t size() const noexcept { return values_.size(); }

  // 0 when empty.
  double Quantile(double q) {
    if (values_.empty()) return 0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values_.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values_.size() - 1);
    return values_[lo] + (rank - static_cast<double>(lo)) * (values_[hi] - values_[lo]);
  }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

inline double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Quantile(0.5);
}

// User + system CPU seconds of the whole process.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// One "Key:   <number> kB"-style field of /proc/self/status (0 if absent).
inline double ProcStatusField(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream fields(line.substr(key.size() + 1));
    double value = 0;
    fields >> value;
    return value;
  }
  return 0;
}

inline double PeakRssMb() { return ProcStatusField("VmHWM") / 1024.0; }
inline double RssMb() { return ProcStatusField("VmRSS") / 1024.0; }
inline double ThreadCount() { return ProcStatusField("Threads"); }

// The 1-minute load average (0 if unreadable).
inline double LoadAvg1() {
  std::ifstream in("/proc/loadavg");
  double load = 0;
  in >> load;
  return load;
}

inline long OnlineCpus() { return sysconf(_SC_NPROCESSORS_ONLN); }

// A number for the report: the shortest text that reads back as exactly
// the measured double.
inline std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Metrics in insertion order. `samples` is the count a percentile was
// computed from (0 for values that are not percentiles).
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    size_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    index_[name] = metrics_.size();
    metrics_.push_back({name, value, unit, samples});
  }

  // 0 when absent.
  [[nodiscard]] double Get(const std::string& name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? 0 : metrics_[it->second].value;
  }

  // `name value unit [n=samples]` lines.
  void Print(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      if (m.samples > 0) {
        std::fprintf(out, "%s %s %s n=%zu\n", m.name.c_str(), Num(m.value).c_str(),
                     m.unit.c_str(), m.samples);
      } else {
        std::fprintf(out, "%s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                     m.unit.c_str());
      }
    }
  }

  // {"name": {"value": v, "unit": u[, "samples": n]}, ...}
  [[nodiscard]] std::string Json(bool with_samples) const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      if (out.size() > 1) out += ", ";
      out += Quote(m.name) + ": {\"value\": " + Num(m.value) + ", \"unit\": " + Quote(m.unit);
      if (with_samples && m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
      out += "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, size_t> index_;
};

}  // namespace sdci::bench_e2e
