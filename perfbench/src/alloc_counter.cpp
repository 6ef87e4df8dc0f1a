// Counting global allocator for the benchmark binary. Every operator
// new in the process goes through here; while counting is switched on
// (traced runs, inside the driver's calls into a layer) each allocation
// bumps one relaxed atomic, from any thread.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_counter.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  auto alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
