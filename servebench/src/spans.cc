#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace servebench {

std::uint64_t SpanRecorder::Root(const char* name, Clock::time_point start,
                                 Clock::time_point end) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, 0, name, Offset(start), Offset(end)});
  return id;
}

void SpanRecorder::Child(std::uint64_t parent, const char* name,
                         Clock::time_point start, Clock::time_point end) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, name, Offset(start), Offset(end)});
}

void SpanRecorder::Extend(std::uint64_t id, Clock::time_point end) {
  Span& span = spans_[id - 1];
  span.end = std::max(span.end, Offset(end));
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  // Children's intervals per parent, clipped to the parent and merged.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start, span.end});
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> parts = it->second;
      std::sort(parts.begin(), parts.end());
      double reach = span.start;
      for (auto [start, end] : parts) {
        start = std::max(start, reach);
        end = std::min(end, span.end);
        if (end > start) {
          covered += end - start;
          reach = end;
        }
      }
    }
    self[span.name] += (span.end - span.start) - covered;
  }
  return self;
}

bool SpanRecorder::WriteJson(const std::string& path,
                             const std::string& extra) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s\n[%llu, %llu, \"%s\", %.9f, %.9f]", i ? "," : "",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name, s.start,
                 s.end);
  }
  std::fprintf(out, "],\n\"self_seconds\": {");
  bool first = true;
  for (const auto& [name, seconds] : SelfSeconds()) {
    std::fprintf(out, "%s\"%s\": %.9f", first ? "" : ", ", name.c_str(),
                 seconds);
    first = false;
  }
  std::fprintf(out, "}%s}\n", extra.c_str());
  return std::fclose(out) == 0;
}

}  // namespace servebench
