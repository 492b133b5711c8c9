// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each call it makes into a library
// layer (the spans sit in the benchmark's code, not in the library).  A span
// has a layer, a name, start and end, the span that was open on the same
// thread when it began (its parent) and a request id.  A layer's self time
// is the time its spans cover minus the part their children cover.
// Recording is off unless enabled; a disabled SpanScope costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

/// The library's modules, as the benchmark names its layers.
inline constexpr const char* kLayers[] = {"kernels", "pack",    "abft",
                                          "plan",    "opcache", "core",
                                          "runtime", "serve",   "inject"};

struct Span {
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span nested in the calling thread's innermost open span.
  std::int64_t begin(const char* layer, const char* name,
                     std::int64_t request = -1);
  /// Close the calling thread's innermost span (which must be `id`).
  void end(std::int64_t id);
  /// Open a span that another thread may close (submit -> settle); it is
  /// parented like begin() but does not become the thread's open span.
  std::int64_t begin_async(const char* layer, const char* name,
                           std::int64_t request);
  void end_async(std::int64_t id, std::int64_t end_ns);

  /// Self time per layer in ms over every closed span.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer();
  /// Write every span as JSON (one object per line inside an array).
  bool write_json(const std::string& path);

 private:
  bool enabled_ = false;
  std::mutex m_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(const char* layer, const char* name, std::int64_t request = -1)
      : id_(Tracer::instance().enabled()
                ? Tracer::instance().begin(layer, name, request)
                : -1) {}
  ~SpanScope() {
    if (id_ >= 0) Tracer::instance().end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t id_;
};

}  // namespace pb
