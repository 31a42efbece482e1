#pragma once
/// \file workloads.hpp
/// \brief The benchmark's four workloads. Each one generates its requests
///        from the seed, runs them through HEPEX's public API in the order
///        the matching command does, and checks every output.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace hepbench {

/// What one timed operation returned.
struct OpResult {
  double latency_s = 0.0;
  std::uint64_t output = 0;  ///< hash of the operation's output bytes
  std::string error;         ///< first failed output check; empty when ok
};

/// A request's reference run: the same work, untimed, with an
/// obs::Registry attached. Its output hash is what every timed run of the
/// request must reproduce; its counters feed the sim.* metrics. The
/// output, events and peak_pending are deterministic and go into the
/// results digest; new_calls depends on the arena's state and does not.
struct Reference {
  std::uint64_t output = 0;
  double events = 0.0;        ///< sim.events_processed
  double runs = 0.0;          ///< simulations that fed the registry
  double peak_pending = 0.0;  ///< sim.calendar.peak_pending, summed over runs
  double new_calls = 0.0;     ///< arena blocks + oversize allocations
  std::string error;          ///< failed check of the reference run itself
};

/// Per-layer metric values by name; main.cpp's table gives their units.
using Values = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop callers driving the workload.
  virtual int clients() const { return 1; }
  /// CPUs the run is pinned to; 0 leaves it every CPU it was given.
  virtual int cpus() const { return 0; }
  /// Distinct requests; the digest covers all of them.
  virtual std::size_t requests() const = 0;
  /// The request client `lane` sends as its `k`-th operation.
  virtual std::size_t request_for(int lane, std::uint64_t k) const;

  /// Builds what the measured loop needs beyond the generated requests
  /// (a warm server, say). Timed, with construction, as set-up.
  virtual void setup() {}
  /// One operation. `log` is null for untraced operations.
  virtual OpResult op(std::size_t request, int lane, SpanLog* log) = 0;
  /// The reference run of `request` (untimed).
  virtual Reference reference(std::size_t request) = 0;

  /// Checks made once after the measured loop; each failure message
  /// counts as one failed operation. Runs in every mode.
  virtual std::vector<std::string> final_checks() { return {}; }
  /// Per-layer metrics this workload adds in a traced run, beyond the
  /// span totals: per-call counts and the par speedups.
  virtual void layer_metrics(Values& out) { (void)out; }

 protected:
  /// Adds one traced call's count to metric `name`; `emit_counts` writes
  /// the mean per call.
  void count(const std::string& name, double value);
  void emit_counts(Values& out) const;

 private:
  std::map<std::string, std::pair<double, double>> counts_;  // sum, calls
};

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` with requests generated from `seed`; `jobs` is
/// the par pool width. Throws std::invalid_argument for unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int jobs);

/// FNV-1a over `bytes`, continuing from `h`.
std::uint64_t hash_bytes(std::string_view bytes,
                         std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace hepbench
