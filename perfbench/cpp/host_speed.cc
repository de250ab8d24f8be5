#include "host_speed.h"

#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "probes.h"

namespace perfbench {

namespace {

// The kernel: sort a fixed key set and insert it into an open-addressing
// hash table.  Its 48 KB stay in the core's caches, so it reads the speed
// of the core the thread runs on, not the state the program left the
// caches in: a kernel that also chased pointers through DRAM ran fast or
// slow with whatever the program had just touched, and set-up times scaled
// by it swung more than unscaled ones.  It works only on static memory, so
// it is safe to run from a signal handler.
constexpr int kKeys = 4096;
constexpr int kHashSlots = 8192;
/// Samples in and up to this much CPU time before a span describe its speed.
constexpr double kMarginS = 3 * HostSpeed::kSampleEveryMs * 1e-3;
constexpr size_t kMaxSamples = size_t{1} << 16;

struct Sample {
  double begin;  // CpuS() when the kernel started.
  double ms;     // Its CPU time.
};

uint32_t g_keys[kKeys];
uint32_t g_sorted[kKeys];
uint32_t g_hash[kHashSlots];
Sample* g_samples = nullptr;
HostSpeed* g_speed = nullptr;
std::atomic<uint64_t> g_count{0};
volatile sig_atomic_t g_active = 0;
volatile uint64_t g_sink = 0;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

void RunKernel() {
  std::memcpy(g_sorted, g_keys, sizeof(g_keys));
  std::sort(g_sorted, g_sorted + kKeys);
  std::memset(g_hash, 0, sizeof(g_hash));
  for (uint32_t k : g_keys) {
    uint32_t h = static_cast<uint32_t>(Mix(k)) & (kHashSlots - 1);
    while (g_hash[h] != 0 && g_hash[h] != k) h = (h + 1) & (kHashSlots - 1);
    g_hash[h] = k;
  }
  g_sink = g_sink + g_sorted[kKeys / 2] +
           g_hash[g_sorted[0] & (kHashSlots - 1)];
}

void OnProf(int) {
  if (!g_active) return;
  const int saved_errno = errno;
  const uint64_t n = g_count.load(std::memory_order_relaxed);
  if (n < kMaxSamples) {
    const double t0 = CpuS();
    RunKernel();
    g_samples[n] = {t0, 1e3 * (CpuS() - t0)};
    g_count.store(n + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

/// Index of the first sample that began at or after `t`.
uint64_t FirstAtOrAfter(double t) {
  const uint64_t n = g_count.load(std::memory_order_acquire);
  return static_cast<uint64_t>(
      std::lower_bound(g_samples, g_samples + n, t,
                       [](const Sample& s, double v) { return s.begin < v; }) -
      g_samples);
}

}  // namespace

HostSpeed& HostSpeed::Start() {
  static HostSpeed speed;
  g_speed = &speed;
  if (g_samples == nullptr) {
    for (int i = 0; i < kKeys; ++i) {
      g_keys[i] = static_cast<uint32_t>(Mix(static_cast<uint64_t>(i) + 7)) | 1;
    }
    g_samples = new Sample[kMaxSamples];
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = OnProf;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      std::perror("perfbench: sigaction");
      std::exit(3);
    }
  }
  g_active = 1;
  itimerval every{};
  every.it_interval.tv_usec = static_cast<long>(kSampleEveryMs * 1e3);
  every.it_value = every.it_interval;
  if (setitimer(ITIMER_PROF, &every, nullptr) != 0) {
    std::perror("perfbench: setitimer");
    std::exit(3);
  }
  return speed;
}

void HostSpeed::Stop() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_active = 0;
}

double HostSpeed::Raw(CpuSpan span) const {
  const uint64_t last = FirstAtOrAfter(span.end);
  double kernel_s = 0.0;
  for (uint64_t i = FirstAtOrAfter(span.begin); i < last; ++i) {
    kernel_s += 1e-3 * g_samples[i].ms;
  }
  return std::max(0.0, span.end - span.begin - kernel_s);
}

double HostSpeed::Factor(CpuSpan span) const {
  // A span's CPU time integrates the host's slowness over its work, and the
  // samples fall evenly in CPU time, so the mean of the speeds they read
  // (reference over kernel time) is the conversion.
  uint64_t first = FirstAtOrAfter(span.begin - kMarginS);
  uint64_t last = FirstAtOrAfter(span.end);
  if (first == last) {
    // No sample close enough: fall back on the run's samples so far.
    first = 0;
    last = g_count.load(std::memory_order_acquire);
    if (last == 0) return 1.0;
  }
  double speed = 0.0;
  for (uint64_t i = first; i < last; ++i) {
    speed += kReferenceKernelMs / g_samples[i].ms;
  }
  return speed / static_cast<double>(last - first);
}

double HostSpeed::Normalized(CpuSpan span) const {
  return Raw(span) * Factor(span);
}

uint64_t HostSpeed::samples() const {
  return g_count.load(std::memory_order_acquire);
}

double HostSpeed::median_kernel_ms() const {
  const uint64_t n = samples();
  std::vector<double> ms(n);
  for (uint64_t i = 0; i < n; ++i) ms[i] = g_samples[i].ms;
  return Percentile(std::move(ms), 0.5);
}

double HostSpeed::KernelMsBetween(uint64_t first, uint64_t last) const {
  double ms = 0.0;
  for (uint64_t i = first; i < last; ++i) ms += g_samples[i].ms;
  return ms;
}

CpuSpan SpanFrom(double begin) { return {begin, CpuS()}; }

double ElapsedS(double begin) {
  const CpuSpan span = SpanFrom(begin);
  if (g_speed == nullptr || !g_active) return span.end - span.begin;
  return g_speed->Normalized(span);
}

}  // namespace perfbench
