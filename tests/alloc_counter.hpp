#ifndef PTC_TESTS_ALLOC_COUNTER_HPP
#define PTC_TESTS_ALLOC_COUNTER_HPP

// Global allocation counter for zero-allocation tests.  It replaces the
// program's operator new/delete, so include it from exactly one translation
// unit per test binary (each tests/test_*.cpp is its own binary).  Read
// g_allocations before and after the measured region; equal counts mean the
// region allocated nothing.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// Every replaceable form of operator new/delete is replaced together, so
// each allocation (plain, array, nothrow, aligned) is counted here and freed
// by the matching std::free — a form left to the runtime would hand its
// buffer to a replaced delete (or the reverse).
namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size,
                    std::align_val_t align = std::align_val_t{0}) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  const auto a = static_cast<std::size_t>(align);
  if (a <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

void* counted_alloc_or_throw(std::size_t size,
                             std::align_val_t align = std::align_val_t{0}) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // PTC_TESTS_ALLOC_COUNTER_HPP
