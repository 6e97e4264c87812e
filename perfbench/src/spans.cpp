#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_tracer{1};

// The calling thread's buffer in the tracer it last recorded into, and its
// innermost open span. Keyed by tracer id (not address), so a tracer
// constructed where an old one lived never inherits the old buffer.
struct ThreadState {
  std::uint64_t tracer_id = 0;
  void* buffer = nullptr;
  std::uint64_t open_span = 0;
};
thread_local ThreadState t_state;

}  // namespace

Tracer::Tracer() : tracer_id_(g_next_tracer.fetch_add(1)) {}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Buffer* Tracer::buffer_for_this_thread() {
  if (t_state.tracer_id == tracer_id_) return static_cast<Buffer*>(t_state.buffer);
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buffer = buffers_.back().get();
  buffer->index = static_cast<std::uint32_t>(buffers_.size() - 1);
  buffer->spans.reserve(1 << 16);
  t_state = ThreadState{tracer_id_, buffer, 0};
  return buffer;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_) return;
  buffer_ = tracer_->buffer_for_this_thread();
  span_.name = name;
  span_.id = tracer_->next_span_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_state.open_span;
  span_.thread = buffer_->index;
  saved_parent_ = t_state.open_span;
  t_state.open_span = span_.id;
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  span_.end_ns = now_ns();
  t_state.open_span = saved_parent_;
  buffer_->spans.push_back(span_);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_)
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  return all;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;  // parent id -> children
  for (const Span& s : all)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  Totals out;
  for (const Span& s : all) {
    if (name != s.name) continue;
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    ++out.count;
    out.total_us += static_cast<double>(dur) / 1e3;
    out.self_us += static_cast<double>(dur - (it == child_ns.end() ? 0 : it->second)) / 1e3;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::vector<Span> all = spans();
  std::int64_t origin = 0;
  for (const Span& s : all)
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 i ? "," : "", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
