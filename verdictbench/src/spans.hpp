// Spans the traced run records around its calls into each layer: name,
// start, end, enclosing span and job id. They stay in memory and are
// written at exit as a Chrome trace (the format obs already writes), one
// complete event per span.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace vbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

struct Span {
  std::string name;
  const char* cat = "";  ///< static storage
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span; -1 at top
  std::int64_t job = -1;     ///< job id; -1 outside jobs

  [[nodiscard]] std::uint64_t ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  /// Opens a span inside the innermost open one and returns its index. The
  /// clock is read last, so the bookkeeping stays outside the span.
  std::int64_t open(std::string name, const char* cat, std::int64_t job = -1) {
    const auto id = static_cast<std::int64_t>(spans_.size());
    Span s;
    s.name = std::move(name);
    s.cat = cat;
    s.job = job;
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(id);
    spans_.back().start_ns = now_ns();
    return id;
  }

  /// Closes the innermost open span, which must be `id`.
  void close(std::int64_t id) {
    const std::uint64_t end = now_ns();
    spans_[static_cast<std::size_t>(id)].end_ns = end;
    open_.pop_back();
  }

  /// Adds a span measured elsewhere as a child of `parent` (the engine's
  /// phase totals under a query span).
  void add(std::string name, const char* cat, std::int64_t parent,
           std::uint64_t start_ns, std::uint64_t ns) {
    Span s;
    s.name = std::move(name);
    s.cat = cat;
    s.parent = parent;
    s.job = spans_[static_cast<std::size_t>(parent)].job;
    s.start_ns = start_ns;
    s.end_ns = start_ns + ns;
    spans_.push_back(std::move(s));
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  void write_chrome_trace(std::ostream& os) const {
    std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    os << "[";
    char times[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.ns()) / 1e3);
      os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << json_escape(s.name)
         << "\",\"cat\":\"" << s.cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
         << times << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"job\":" << s.job << "}}";
    }
    os << "\n]\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace vbench
