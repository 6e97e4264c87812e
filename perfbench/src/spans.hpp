// In-memory spans recorded by the benchmark around its own calls into the
// library's public API. Spans stay in per-thread buffers while a run
// measures and are written out (Chrome trace_event JSON) when it ends.
//
// A null Tracer* turns every Scope into a no-op, so the untraced run and
// the traced run execute the same benchmark code.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
  struct Buffer;

 public:
  struct Span {
    const char* name = nullptr;  // a string literal
    std::uint64_t id = 0;        // unique within the tracer, never 0
    std::uint64_t parent = 0;    // enclosing span on the same thread, 0 = none
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t thread = 0;    // buffer index
  };

  // Records one span from construction to destruction on the calling
  // thread; spans opened inside it on the same thread become its children.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Buffer* buffer_ = nullptr;
    Span span_;
    std::uint64_t saved_parent_ = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Every span recorded so far, across threads. Call once recording
  // threads have finished.
  std::vector<Span> spans() const;

  // Number of spans named `name`, the sum of their durations, and the sum
  // of their self times (duration minus the time their direct children
  // cover), in microseconds.
  struct Totals {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  Totals totals(const std::string& name) const;

  // Writes every span as a Chrome trace_event JSON file. Returns false when
  // the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t index = 0;
    std::vector<Span> spans;
  };
  Buffer* buffer_for_this_thread();
  static std::int64_t now_ns();

  const std::uint64_t tracer_id_;
  std::atomic<std::uint64_t> next_span_{1};
  mutable std::mutex mutex_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
