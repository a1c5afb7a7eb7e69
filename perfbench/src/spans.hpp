#pragma once
/// \file spans.hpp
/// In-memory span recorder for the traced run. Each span records its name,
/// start, end and parent; the spans of one job (one replicate or one call
/// pair) share a job id. Spans are recorded by the benchmark around calls
/// into the program's public functions — nothing inside the library is
/// instrumented — stay in memory, and are written out once the run ends.
/// The recorder is single-threaded: every span is opened and closed on
/// the benchmark's main thread.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  std::uint32_t job = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span; -1 at top level
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// Closes its span when it goes out of scope; a null recorder records
  /// nothing.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::size_t index) : rec_(rec), index_(index) {}
    ~Scope() {
      if (rec_ != nullptr) rec_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::size_t index_;
  };

  /// A span on `rec`, or an inert scope when `rec` is null (untraced run).
  [[nodiscard]] static Scope maybe(SpanRecorder* rec, std::string name) {
    if (rec == nullptr) return Scope(nullptr, 0);
    return rec->scope(std::move(name));
  }

  /// Start a new job: later spans carry the next job id.
  void begin_job() { ++job_; }

  /// Open a span nested in the innermost open one.
  [[nodiscard]] Scope scope(std::string name) {
    Span s;
    s.name = std::move(name);
    s.job = job_;
    s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    spans_.back().start_ns = now_ns();
    return Scope(this, spans_.size() - 1);
  }

  /// Duration of span i minus the time its direct children cover. Children
  /// of one span never overlap (one thread), so their durations add.
  [[nodiscard]] std::uint64_t self_ns(std::size_t i) const {
    std::uint64_t children = 0;
    for (std::size_t j = i + 1; j < spans_.size(); ++j) {
      if (spans_[j].parent == static_cast<std::int64_t>(i)) {
        children += spans_[j].duration_ns();
      }
    }
    return spans_[i].duration_ns() - children;
  }

  /// Summed duration of every span with this name.
  [[nodiscard]] std::uint64_t total_ns(std::string_view name) const {
    std::uint64_t sum = 0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.duration_ns();
    }
    return sum;
  }

  /// Durations of every span with this name, in recording order.
  [[nodiscard]] std::vector<std::uint64_t> durations(std::string_view name) const {
    std::vector<std::uint64_t> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.duration_ns());
    }
    return out;
  }

  /// Write every span as one JSON array (times relative to the first span).
  /// Returns false when the file could not be written.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"job\": " << s.job << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns - t0
          << ", \"end_ns\": " << s.end_ns - t0 << ", \"self_ns\": " << self_ns(i) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint32_t job_ = 0;
};

}  // namespace perfbench
