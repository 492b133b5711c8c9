#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench.hpp"

namespace pb {

namespace {
thread_local std::vector<std::int64_t> t_open;  // this thread's span stack
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::begin(const char* layer, const char* name,
                           std::int64_t request) {
  const std::int64_t id = begin_async(layer, name, request);
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  const std::int64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  end_async(id, t);
}

std::int64_t Tracer::begin_async(const char* layer, const char* name,
                                 std::int64_t request) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request = request;
  const std::lock_guard<std::mutex> lk(m_);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return std::int64_t(spans_.size()) - 1;
}

void Tracer::end_async(std::int64_t id, std::int64_t end_ns) {
  const std::lock_guard<std::mutex> lk(m_);
  spans_[std::size_t(id)].end_ns = end_ns;
}

std::map<std::string, double> Tracer::self_ms_by_layer() {
  const std::lock_guard<std::mutex> lk(m_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0)
      kids[std::size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const char* layer : kLayers) self[layer] = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Union of the children's intervals, clipped to this span.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.layer] += double(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return self;
}

bool Tracer::write_json(const std::string& path) {
  const std::lock_guard<std::mutex> lk(m_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%lld}%s\n",
                 i, s.layer, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
