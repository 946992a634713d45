// In-memory span recorder for the traced mode.
//
// Each benchmark operation (query, epoch, checkpoint, compaction) is a
// root span; the calls the benchmark makes into one layer of the program
// on that operation's behalf are its child spans. Spans stay in memory and
// are written out once, when the run ends.
#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  // Returns the new span's id. `name` must be a string literal.
  std::uint64_t Root(const char* name, Clock::time_point start,
                     Clock::time_point end);
  void Child(std::uint64_t parent, const char* name, Clock::time_point start,
             Clock::time_point end);
  // Widens a root span's end (children recorded after the operation).
  void Extend(std::uint64_t id, Clock::time_point end);

  std::size_t size() const { return spans_.size(); }

  // Self time per span name, in seconds: each span's duration minus the
  // part of its interval covered by its children.
  std::map<std::string, double> SelfSeconds() const;

  // Writes {"spans": [[id, parent, name, start_s, end_s], ...],
  // "self_seconds": {...}, <extra members>} to `path`. `extra` is a
  // comma-led list of JSON members, possibly empty.
  bool WriteJson(const std::string& path, const std::string& extra) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;  // 0 for roots
    const char* name;
    double start;
    double end;
  };
  double Offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
