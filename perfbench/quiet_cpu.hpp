#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Moves the calling thread to the CPU whose caches are least contended
/// right now.
///
/// On a shared VM each vCPU runs on a host core whose other hyperthread
/// belongs to some other tenant. While that tenant is busy it shares our L1
/// and L2, and this memory-bound program runs up to 2x slower; which vCPU is
/// disturbed changes from one second to the next. Before each timed cell the
/// benchmark times a short pointer chase through an L2-sized buffer on every
/// CPU it may use and pins itself to the fastest. The chase is outside every
/// timed span. Where affinity cannot be set, the thread stays where it is.
class QuietCpu {
 public:
  QuietCpu();

  /// Pins the thread to the quietest allowed CPU; returns its number, or -1
  /// when the thread was left where it is.
  int pin();

 private:
  /// Nanoseconds per step of the warm chase on the current CPU.
  [[nodiscard]] double chaseNanos();

  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::vector<std::uint32_t> next_;  // one link per 64-byte line
  std::size_t lines_ = 0;
};

}  // namespace perfbench
