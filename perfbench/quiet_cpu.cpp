#include "quiet_cpu.hpp"

#include <time.h>

#include <utility>

namespace perfbench {

namespace {

/// Three quarters of a 2 MiB L2: it fits when the core is ours alone.
constexpr std::size_t kChaseBytes = 1536u << 10;
constexpr std::size_t kLineBytes = 64;
constexpr std::size_t kLinksPerLine = kLineBytes / sizeof(std::uint32_t);

double monotonicSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

QuietCpu::QuietCpu() : next_(kChaseBytes / sizeof(std::uint32_t)), lines_(kChaseBytes / kLineBytes) {
  if (::sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  // One random cycle through every line, so the chase defeats the prefetchers.
  std::vector<std::uint32_t> order(lines_);
  for (std::size_t i = 0; i < lines_; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = lines_ - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  for (std::size_t i = 0; i < lines_; ++i) {
    next_[order[i] * kLinksPerLine] = order[(i + 1) % lines_] * static_cast<std::uint32_t>(kLinksPerLine);
  }
}

double QuietCpu::chaseNanos() {
  constexpr std::size_t kTimedCycles = 2;
  std::uint32_t p = 0;
  for (std::size_t i = 0; i < lines_; ++i) p = next_[p];  // warm this CPU's caches
  const double t0 = monotonicSeconds();
  for (std::size_t i = 0; i < kTimedCycles * lines_; ++i) p = next_[p];
  const double elapsed = monotonicSeconds() - t0;
  // Keeps the chase from being optimized away: p is always a line start.
  if (p % kLinksPerLine != 0) return 0.0;
  return elapsed * 1e9 / static_cast<double>(kTimedCycles * lines_);
}

int QuietCpu::pin() {
  if (cpus_.size() < 2) return -1;
  int bestCpu = -1;
  double bestNanos = 0.0;
  for (const int cpu : cpus_) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double nanos = chaseNanos();
    if (bestCpu < 0 || nanos < bestNanos) {
      bestCpu = cpu;
      bestNanos = nanos;
    }
  }
  if (bestCpu < 0) {
    ::sched_setaffinity(0, sizeof allowed_, &allowed_);
    return -1;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(bestCpu, &one);
  ::sched_setaffinity(0, sizeof one, &one);
  return bestCpu;
}

}  // namespace perfbench
