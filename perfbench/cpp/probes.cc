#include "probes.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuS() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y) {
  std::vector<double> lx, ly;
  for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (x[i] > 0.0 && y[i] > 0.0) {
      lx.push_back(std::log(x[i]));
      ly.push_back(std::log(y[i]));
    }
  }
  if (lx.size() < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < lx.size(); ++i) mx += lx[i], my += ly[i];
  mx /= lx.size();
  my /= ly.size();
  double sxy = 0.0, sxx = 0.0;
  for (size_t i = 0; i < lx.size(); ++i) {
    sxy += (lx[i] - mx) * (ly[i] - my);
    sxx += (lx[i] - mx) * (lx[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

// -- SpanLog -----------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ != nullptr) id_ = log_->Begin(name);
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr) log_->End(id_);
}

int SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = NowS();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int id) {
  spans_[id].end = NowS();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::Total(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

std::map<std::string, double> SpanLog::SelfTimeByLayer() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += (s.end - s.start) - child_time[i];
  }
  return self;
}

std::string SpanLog::ToJson() const {
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::string out = "[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.start - t0,
                  s.end - t0, s.parent);
    out += buf;
  }
  out += "\n]\n";
  return out;
}

// -- CountingMetric ----------------------------------------------------------

double CountingMetric::Distance(const elink::Feature& a,
                                const elink::Feature& b) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  return inner_->Distance(a, b);
}

void CountingMetric::BatchDistance(const elink::Feature& q,
                                   const elink::FeaturePool& pool,
                                   double* out) const {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  inner_->BatchDistance(q, pool, out);
}

void CountingMetric::BatchDistanceIndexed(const elink::Feature& q,
                                          const elink::FeaturePool& pool,
                                          const int* idx, size_t count,
                                          double* out) const {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  inner_->BatchDistanceIndexed(q, pool, idx, count, out);
}

// -- RouteCounter ------------------------------------------------------------

void RouteCounter::OnHop(double, int, int, const elink::Message&) {
  hop_msg_ = current_msg_;
}

void RouteCounter::OnSend(double, int, int to, const elink::Message&, double) {
  if (current_msg_ != 0 && hop_msg_ == current_msg_) destinations_.insert(to);
}

void RouteCounter::NewNetwork() {
  closed_destinations_ += destinations_.size();
  destinations_.clear();
  hop_msg_ = 0;
  current_msg_ = 0;
  ++networks_;
}

}  // namespace perfbench
