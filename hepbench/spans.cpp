#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace hepbench {

namespace {

// The innermost open span and the current operation of this thread.
thread_local int t_open = -1;
thread_local std::uint64_t t_op = 0;
thread_local int t_lane = 0;

}  // namespace

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  outer_ = t_open;
  const std::lock_guard<std::mutex> lock(log_->mu_);
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(Span{name, Clock::now(), {}, outer_, t_op, t_lane});
  t_open = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const std::lock_guard<std::mutex> lock(log_->mu_);
  log_->spans_[static_cast<std::size_t>(index_)].end = end;
  t_open = outer_;
}

void SpanLog::begin_op(std::uint64_t op, int lane) {
  t_op = op;
  t_lane = lane;
}

std::map<std::string, LayerTotals> SpanLog::layer_totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (const int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      iv.emplace_back(std::max(k.start, s.start), std::min(k.end, s.end));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : iv) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += seconds(from, b);
        reach = b;
      }
    }
    LayerTotals& t = out[s.name];
    t.calls += 1;
    t.self_s += std::max(0.0, seconds(s.start, s.end) - covered);
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 Clock::time_point origin) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": %s, \"cat\": \"hepbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"op\": %llu}}",
                 i == 0 ? "" : ",\n",
                 hepex::util::json::quote(s.name).c_str(),
                 seconds(origin, s.start) * 1e6, seconds(s.start, s.end) * 1e6,
                 s.lane, i, s.parent, static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace hepbench
