#include "support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->Unit();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

double Zipf::Probability(size_t k) const {
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least p% of the samples at
  // or below it.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return n - rank;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double p) {
  const size_t n = samples.size();
  const size_t windows = std::max<size_t>(1, n / window);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + static_cast<long>(n * w / windows),
                            samples.begin() +
                                static_cast<long>(n * (w + 1) / windows)),
        p));
  }
  return Median(per_window);
}

double PairedOverheadPct(const std::vector<double>& alternating) {
  std::vector<double> ratios;
  for (size_t i = 0; i + 1 < alternating.size(); i += 2) {
    const double traced = alternating[TracedOperation(i) ? i : i + 1];
    const double untraced = alternating[TracedOperation(i) ? i + 1 : i];
    if (untraced > 0) ratios.push_back(traced / untraced);
  }
  return ratios.empty() ? 0.0 : (Median(ratios) - 1.0) * 100.0;
}

int64_t Tracer::Begin(const std::string& name, int64_t parent, uint64_t op) {
  if (!enabled_) return -1;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, op});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = now;
}

std::map<std::string, Tracer::Totals> Tracer::Summarise() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const double duration = s.end_s - s.start_s;
    t.total_s += duration;
    t.self_s += std::max(0.0, duration - child_time[i]);
    ++t.count;
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
