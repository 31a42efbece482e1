#pragma once
/// \file spans.hpp
/// \brief In-memory spans recorded by the benchmark around its calls into
///        each HEPEX layer.
///
/// The spans are taken from outside the program: the benchmark opens a
/// `Scope` around every public call it makes (`cfg::load_scenario`,
/// `Advisor::characterization`, `trace::simulate`, `Client::call`, ...).
/// Nothing is written while the run measures; `write_chrome_trace` emits
/// the trace-event JSON (Perfetto / chrome://tracing) when it ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hepbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two clock readings.
inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed call.
struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  int parent = -1;        ///< index of the enclosing span; -1 for an op root
  std::uint64_t op = 0;   ///< operation id, shared by the spans of one op
  int lane = 0;           ///< client thread that made the call
};

/// Calls and self time of one layer, summed over a run.
struct LayerTotals {
  std::uint64_t calls = 0;
  double self_s = 0.0;  ///< span time minus the time its child spans cover
};

class SpanLog {
 public:
  /// Times one call. A null log makes the scope free of any recording,
  /// which is how untraced operations run.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
    int outer_ = -1;
  };

  /// Marks the calling thread's next spans as operation `op` on `lane`.
  static void begin_op(std::uint64_t op, int lane);

  /// Per-layer totals keyed by span name.
  std::map<std::string, LayerTotals> layer_totals() const;

  /// Writes every span as a complete ("X") trace event; timestamps are
  /// microseconds since `origin`. Throws std::runtime_error on I/O failure.
  void write_chrome_trace(const std::string& path,
                          Clock::time_point origin) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace hepbench
