// In-memory span recorder (see bench.h). Spans go into one vector under a
// mutex: traced runs record around layer calls that take microseconds to
// seconds, so the lock is not what the traced run measures. The untraced
// run never takes it.
#include <atomic>
#include <cstdio>
#include <mutex>

#include "perfbench/bench.h"

namespace balsa::perfbench {
namespace {

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent;
  int64_t request_id;
  int thread;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Span> g_spans;
std::atomic<int> g_next_thread{0};
const Clock::time_point g_origin = Clock::now();

thread_local std::vector<int64_t> t_stack;
thread_local int t_thread = -1;

}  // namespace

void EnableSpans(bool enabled) { g_enabled.store(enabled); }
bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, int64_t request_id) {
  if (!SpansEnabled()) return;
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  const int64_t parent = t_stack.empty() ? -1 : t_stack.back();
  if (request_id < 0 && !t_stack.empty()) {
    std::lock_guard<std::mutex> lock(g_mu);
    request_id = g_spans[static_cast<size_t>(parent)].request_id;
  }
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(g_mu);
  index_ = static_cast<int64_t>(g_spans.size());
  g_spans.push_back({name, now, now, parent, request_id, t_thread});
  t_stack.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  const Clock::time_point now = Clock::now();
  t_stack.pop_back();
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<size_t>(index_)].end = now;
}

double SpanSeconds(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  double seconds = 0;
  for (const Span& s : g_spans) {
    if (name == s.name) {
      seconds += std::chrono::duration<double>(s.end - s.start).count();
    }
  }
  return seconds;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %lld, \"request\": %lld, "
                 "\"thread\": %d}\n",
                 i, s.name, MicrosBetween(g_origin, s.start),
                 MicrosBetween(g_origin, s.end),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request_id), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace balsa::perfbench
