// Switch for the benchmark binary's counting allocator.
#pragma once

#include <cstdint>

namespace perfbench {

/// Starts or stops counting heap allocations (all threads).
void set_alloc_counting(bool on);
/// Allocations counted so far.
std::uint64_t allocations();

/// Counts allocations for one scope when `on`.
class AllocScope {
 public:
  explicit AllocScope(bool on) : on_(on) {
    if (on_) set_alloc_counting(true);
  }
  ~AllocScope() {
    if (on_) set_alloc_counting(false);
  }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench
