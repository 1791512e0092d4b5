// Lazy coroutine task type for simulation processes.
//
// Task<T> is a single-consumer, lazily-started coroutine: nothing runs until
// the task is co_awaited (or handed to Engine::spawn). Completion resumes the
// awaiter via symmetric transfer, so arbitrarily deep task chains use O(1)
// stack. Exceptions propagate to the awaiter.
//
// Coroutine frames come from FramePool, not the general heap. A simulated
// message runs through several frames; the pool hands a freed block to the
// next frame of its size class, so a steady-state simulation allocates
// nothing for its frames:
//
//   size classes  64 B steps up to 1 KiB, each a LIFO free list; larger
//                 frames go straight to ::operator new.
//   slabs         blocks are carved from 64 KiB slabs, released only when
//                 the pool is destroyed. Free lists over per-frame heap
//                 blocks would leave frames interleaved with the general
//                 heap's blocks, which measurably slows unrelated code in
//                 the same process; slabs keep the two apart.
//   threads       one pool per thread. A frame belongs to the thread that
//                 created it and must be destroyed on that thread, before
//                 the thread exits: the engine is single-threaded, and no
//                 static or global object may own a Task.
//   ASan          a block is poisoned while it sits on a free list, so
//                 resuming or touching a destroyed frame still reports
//                 (use-after-poison) under -fsanitize=address.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>

namespace vmstorm::sim {

/// Per-thread slab allocator for coroutine frames; see the file comment.
/// The sizes are constants, not options. Constructible standalone for tests;
/// frames use local().
class FramePool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kMaxPooledBytes = 1024;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    while (slabs_ != nullptr) {
      Block* next = slabs_->next;
      ASAN_UNPOISON_MEMORY_REGION(slabs_, kSlabBytes);
      ::operator delete(static_cast<void*>(slabs_), kSlabBytes);
      slabs_ = next;
    }
  }

  /// The calling thread's pool.
  static FramePool& local() {
    static thread_local FramePool pool;
    return pool;
  }

  void* allocate(std::size_t n) {
    if (n > kMaxPooledBytes) return ::operator new(n);
    const std::size_t cls = size_class(n);
    Block* b = free_[cls];
    if (b == nullptr) return carve(block_bytes(cls));
    ASAN_UNPOISON_MEMORY_REGION(b, block_bytes(cls));
    free_[cls] = b->next;
    return b;
  }

  void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxPooledBytes) {
      ::operator delete(p, n);
      return;
    }
    const std::size_t cls = size_class(n);
    Block* b = static_cast<Block*>(p);
    b->next = free_[cls];
    free_[cls] = b;
    ASAN_POISON_MEMORY_REGION(b, block_bytes(cls));
  }

  /// Slabs allocated so far (tests).
  std::size_t slabs() const { return slab_count_; }

 private:
  /// A free block's link, and a slab's link in its first class-sized block.
  struct Block {
    Block* next;
  };

  static constexpr std::size_t kClasses = kMaxPooledBytes / kClassBytes;
  static constexpr std::size_t size_class(std::size_t n) {
    return n == 0 ? 0 : (n - 1) / kClassBytes;
  }
  static constexpr std::size_t block_bytes(std::size_t cls) {
    return (cls + 1) * kClassBytes;
  }

  /// Hands out `bytes` from the newest slab, starting a slab when it is
  /// full (what is left of the old one stays unused).
  void* carve(std::size_t bytes) {
    if (static_cast<std::size_t>(limit_ - cursor_) < bytes) {
      char* slab = static_cast<char*>(::operator new(kSlabBytes));
      reinterpret_cast<Block*>(slab)->next = slabs_;
      slabs_ = reinterpret_cast<Block*>(slab);
      ++slab_count_;
      cursor_ = slab + kClassBytes;
      limit_ = slab + kSlabBytes;
      ASAN_POISON_MEMORY_REGION(cursor_, kSlabBytes - kClassBytes);
    }
    void* p = cursor_;
    cursor_ += bytes;
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    return p;
  }

  Block* free_[kClasses] = {};
  Block* slabs_ = nullptr;  ///< newest slab; each links to the one before
  char* cursor_ = nullptr;  ///< next uncarved byte of the newest slab
  char* limit_ = nullptr;
  std::size_t slab_count_ = 0;
};

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

/// Class-level allocation for a promise type: its coroutine frames come
/// from the thread's FramePool.
struct PooledFrame {
  static void* operator new(std::size_t n) {
    return FramePool::local().allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::local().deallocate(p, n);
  }
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      return p.continuation ? p.continuation : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  /// Releases ownership of the coroutine frame (used by Engine::spawn's
  /// detached wrapper, which keeps the Task object alive in its own frame).
  Handle release() { return std::exchange(handle_, {}); }

  struct Awaiter {
    Handle handle;
    bool await_ready() const noexcept { return !handle || handle.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      handle.promise().continuation = cont;
      return handle;  // symmetric transfer: start the awaited task
    }
    T await_resume() {
      auto& p = handle.promise();
      if (p.exception) std::rethrow_exception(p.exception);
      if constexpr (!std::is_void_v<T>) {
        assert(p.value.has_value());
        return std::move(*p.value);
      }
    }
  };

  Awaiter operator co_await() && { return Awaiter{handle_}; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace vmstorm::sim
