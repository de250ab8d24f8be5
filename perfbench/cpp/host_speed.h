// Host-speed normalisation of the end-to-end timings.
//
// On a shared virtual machine the speed a vCPU delivers swings by up to 2x
// within seconds, and differently on each vCPU, as the host schedules other
// work next to it.  A timing taken at one moment is then mostly a reading
// of the host.  The sampler below runs a fixed calibration kernel on the
// benchmark's own thread, from a SIGPROF timer every kSampleEveryMs of CPU
// time, so the speed of the host is sampled through every timed call, long
// or short.  A timed span is then reported as the CPU time it would have
// taken at the reference speed: its CPU time less the kernel's own, times
// the mean of reference over measured kernel time for the samples in and
// just before the span.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstdint>

namespace perfbench {

/// CPU-time interval of one timed span: two CpuS() readings.
struct CpuSpan {
  double begin = 0.0;
  double end = 0.0;
};

class HostSpeed {
 public:
  /// CPU time between two kernel samples.
  static constexpr double kSampleEveryMs = 10.0;
  /// The kernel's median CPU time on the reference host, in ms.  Reported
  /// times are scaled to a host on which the kernel takes this long.
  static constexpr double kReferenceKernelMs = 0.25;

  /// Installs the SIGPROF handler and starts sampling.  One sampler per
  /// process; the untraced workloads start it before their set-up.
  static HostSpeed& Start();

  /// Stops sampling.  The recorded samples stay readable.
  void Stop();

  /// CPU seconds of `span` less the kernel's own time inside it.
  double Raw(CpuSpan span) const;

  /// Raw(span) scaled to the reference host's speed.
  double Normalized(CpuSpan span) const;

  /// Normalized over Raw for `span`: the host's speed around it relative
  /// to the reference.
  double Factor(CpuSpan span) const;

  /// Number of kernel samples taken so far.
  uint64_t samples() const;

  /// Median kernel time over all samples, in ms.
  double median_kernel_ms() const;

  /// Kernel time (ms) recorded by samples [first, last), e.g. the samples
  /// that interrupted a read.
  double KernelMsBetween(uint64_t first, uint64_t last) const;

 private:
  HostSpeed() = default;
};

/// CPU-time span from `begin` to now.
CpuSpan SpanFrom(double begin);

/// CPU seconds from `begin` to now: normalized while the sampler runs, raw
/// otherwise (the traced run compares raw times).
double ElapsedS(double begin);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
