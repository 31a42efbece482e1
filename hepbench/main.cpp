// hepbench: the HEPEX end-to-end benchmark program.
//
//   hepbench --workload advise|validate|scaleout|serve|all --seed N
//            --seconds S --trace 0|1 [--spans DIR]
//
// One run sets the workload up several times (the median is setup_s),
// then runs closed-loop operations for S seconds, then makes an untimed
// reference run of every distinct request and checks each operation's
// output against it. With --trace 0 it reports the end-to-end metrics.
// With --trace 1 it alternates untraced and traced operations over the
// same requests, reports per-layer metrics from the traced ones, and
// writes their spans to DIR as trace-event JSON. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a
// usage error.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace json = hepex::util::json;
using namespace hepbench;

namespace {

// The par pool width, one value for every workload.
constexpr int kMaxJobs = 4;
// Set-ups before the window: at least kMinSetups, then more until
// kSetupBudgetS of set-up time or kMaxSetups. An untraced run sets up as
// many times again after the window, so that setup_s, the median of all
// of them, samples the machine at both ends of the run: on a shared host
// its speed changes by tens of percent over tens of seconds.
constexpr std::size_t kMinSetups = 8;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 0.5;
// The layers timed from outside the program, as span names.
const char* const kLayers[] = {
    "cfg.load_scenario", "workload.resolve", "model.characterize",
    "model.sweep",       "pareto.frontier",  "core.validate",
    "trace.simulate",    "obs.run_report",   "obs.json_dump",
    "svc.call"};

// Every per-layer metric with its unit: three per layer, then the counts
// and ratios. A workload that does not exercise a layer reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const auto table = [] {
    std::vector<std::pair<std::string, std::string>> t;
    for (const char* layer : kLayers) {
      t.emplace_back(std::string(layer) + ".calls", "count");
      t.emplace_back(std::string(layer) + ".self_s", "s");
      t.emplace_back(std::string(layer) + ".share", "ratio");
    }
    const std::pair<std::string, std::string> rest[] = {
        {"layers.share_sum", "ratio"},
        {"model.characterize.sims", "count"},
        {"model.sweep.points", "count"},
        {"core.validate.configs", "count"},
        {"core.validate.time_error_mean_pct", "%"},
        {"core.validate.energy_error_mean_pct", "%"},
        {"sim.events", "count"},
        {"sim.events_per_host_s", "1/s"},
        {"sim.calendar.peak_pending", "count"},
        {"sim.arena.new_calls_per_event", "ratio"},
        {"par.jobs", "count"},
        {"par.speedup.advise", "ratio"},
        {"par.speedup.validate", "ratio"},
        {"obs.json_bytes", "bytes"},
        {"svc.advisor_cache.hit_ratio", "ratio"},
        {"svc.shed", "count"},
        {"svc.timeouts", "count"},
        {"svc.queue.high_water", "count"},
        {"trace_overhead", "ratio"},
    };
    t.insert(t.end(), std::begin(rest), std::end(rest));
    return t;
  }();
  return table;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".";
};

struct OpRecord {
  std::size_t request = 0;
  bool traced = false;
  OpResult result;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, printed beside the value
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: hepbench --workload "
               "advise|validate|scaleout|serve|all --seed N --seconds S "
               "--trace 0|1 [--spans DIR]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--spans") {
        o.spans_dir = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// The process's peak resident set, from VmHWM. getrusage's ru_maxrss
// would do on a fresh process, but Linux carries it across exec, so under
// a larger parent (the Python launcher) it reports the parent's peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

// Restricts the calling thread, and every thread it starts later, to the
// last `n` CPUs of `all`; n = 0 gives it all of them.
void pin_cpus(const cpu_set_t& all, int n) {
  cpu_set_t set = all;
  if (n > 0 && n < CPU_COUNT(&all)) {
    CPU_ZERO(&set);
    for (int c = CPU_SETSIZE - 1; c >= 0 && CPU_COUNT(&set) < n; --c) {
      if (CPU_ISSET(c, &all)) CPU_SET(c, &set);
    }
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

// Replaces `w` with a fresh set-up of workload `name`, again and again,
// until `min` set-ups and `budget_s` of set-up time, or `max` set-ups;
// appends each set-up's time to `times`. The first set-up of the run
// also pins the process to the workload's CPUs.
void set_up(std::unique_ptr<Workload>& w, const std::string& name,
            const Options& opt, int jobs, const cpu_set_t& all_cpus,
            std::size_t min, std::size_t max, double budget_s,
            std::vector<double>& times) {
  double spent = 0.0;
  for (std::size_t i = 0; i < min || (spent < budget_s && i < max); ++i) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = make_workload(name, opt.seed, jobs);
    if (times.empty()) pin_cpus(all_cpus, w->cpus());
    w->setup();
    times.push_back(seconds(t0, Clock::now()));
    spent += times.back();
  }
}

// Runs lane `lane`'s closed loop until `deadline`. In a traced run the
// k-th pair of operations sends one request twice, once traced and once
// not, alternating which goes first.
void run_lane(Workload& w, int lane, bool trace, SpanLog* log,
              Clock::time_point deadline, std::vector<OpRecord>& out,
              Clock::time_point& last_end) {
  for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
    const std::uint64_t pair = trace ? k / 2 : k;
    OpRecord rec;
    rec.request = w.request_for(lane, pair);
    rec.traced = trace && ((k % 2) != (pair % 2));
    SpanLog::begin_op((static_cast<std::uint64_t>(lane) << 40) | k, lane);
    try {
      rec.result = w.op(rec.request, lane, rec.traced ? log : nullptr);
    } catch (const std::exception& e) {
      rec.result.error = e.what();
    }
    out.push_back(std::move(rec));
    last_end = Clock::now();
  }
}

RunResult run_workload(const std::string& name, const Options& opt,
                       int jobs, const cpu_set_t& all_cpus) {
  RunResult res;
  // Set-up: generate the requests and build warm state, several times.
  // The first one also pays the process's lazy initialisation.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  set_up(w, name, opt, jobs, all_cpus, kMinSetups, kMaxSetups, kSetupBudgetS,
         setups);

  // The measured window.
  SpanLog log;
  const int clients = w->clients();
  std::vector<std::vector<OpRecord>> lanes(static_cast<std::size_t>(clients));
  std::vector<Clock::time_point> ends(static_cast<std::size_t>(clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::jthread> threads;  // joined at the end of the block
    for (int lane = 1; lane < clients; ++lane) {
      threads.emplace_back(run_lane, std::ref(*w), lane, opt.trace, &log,
                           deadline, std::ref(lanes[lane]),
                           std::ref(ends[lane]));
    }
    run_lane(*w, 0, opt.trace, &log, deadline, lanes[0], ends[0]);
  }
  const double wall = seconds(start, *std::max_element(ends.begin(), ends.end()));

  // Reference runs of every distinct request: the digest, the sim counts,
  // and the output each operation must have reproduced.
  std::vector<Reference> refs;
  std::vector<std::string> errors;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t r = 0; r < w->requests(); ++r) {
    refs.push_back(w->reference(r));
    const Reference& ref = refs.back();
    char entry[96];
    std::snprintf(entry, sizeof entry, "%llu,%.17g,%.17g;",
                  static_cast<unsigned long long>(ref.output), ref.events,
                  ref.peak_pending);
    digest = hash_bytes(entry, digest);
    if (!ref.error.empty()) {
      res.attempted += 1;
      res.failed += 1;
      errors.push_back(name + ": request " + std::to_string(r) +
                       " reference run: " + ref.error);
    }
  }

  // Tally the operations: a failed check or an output that differs from
  // the reference run fails the operation.
  std::vector<double> lat, untraced, traced;
  // The median latency of each cycle of a lane's operations, a cycle being
  // as many consecutive operations as the workload has distinct requests.
  // latency_p50_ms is their mean. On a shared host the machine's speed
  // shifts between stretches of tens of seconds, and the pooled median of
  // a window jumps to whichever speed held for most of it; the mean over
  // cycles moves with the share of time at each speed, as ops_per_s does.
  std::vector<double> cycle_p50;
  double events = 0.0;
  Reference traced_sum;        // reference counts over the traced operations
  double traced_sim_s = 0.0;   // host time of traced operations that simulate
  for (const auto& lane : lanes) {
    std::vector<double> cycle;
    for (const OpRecord& rec : lane) {
      const Reference& ref = refs[rec.request];
      std::string err = rec.result.error;
      if (err.empty() && rec.result.output != ref.output) {
        err = "request " + std::to_string(rec.request) +
              ": output differs from its reference run";
      }
      res.attempted += 1;
      if (!err.empty()) {
        res.failed += 1;
        errors.push_back(name + ": " + err);
        continue;
      }
      lat.push_back(rec.result.latency_s);
      cycle.push_back(rec.result.latency_s);
      if (cycle.size() == w->requests()) {
        cycle_p50.push_back(percentile(cycle, 0.5));
        cycle.clear();
      }
      events += ref.events;
      (rec.traced ? traced : untraced).push_back(rec.result.latency_s);
      if (!rec.traced) continue;
      traced_sum.events += ref.events;
      traced_sum.runs += ref.runs;
      traced_sum.peak_pending += ref.peak_pending;
      traced_sum.new_calls += ref.new_calls;
      if (ref.events > 0.0) traced_sim_s += rec.result.latency_s;
    }
  }
  for (const std::string& e : w->final_checks()) {
    res.attempted += 1;
    res.failed += 1;
    errors.push_back(e);
  }

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  cpu_set_t pinned;
  sched_getaffinity(0, sizeof pinned, &pinned);
  std::printf("workload %s: seed %llu, pool width %d, %d closed-loop "
              "client(s) on %d CPUs, %g s window, trace %d\n",
              name.c_str(), static_cast<unsigned long long>(opt.seed), jobs,
              clients, CPU_COUNT(&pinned), opt.seconds, opt.trace ? 1 : 0);
  std::printf("  digest %s fnv1a64:%s\n", name.c_str(), digest_hex);

  auto& m = res.metrics;
  if (!opt.trace) {
    const std::size_t before = setups.size();
    set_up(w, name, opt, jobs, all_cpus, before, before, 0.0, setups);
    const std::string n = "n=" + std::to_string(lat.size());
    m["ops_per_s"] = Metric{static_cast<double>(lat.size()) / wall, "1/s", n};
    if (!lat.empty()) {
      const double p95 = percentile(lat, 0.95);
      const auto beyond = std::count_if(lat.begin(), lat.end(),
                                        [&](double x) { return x > p95; });
      const double pooled = percentile(lat, 0.50);
      char p50[160];
      std::snprintf(p50, sizeof p50,
                    "mean of %zu cycle medians; pooled median %.6g ms",
                    cycle_p50.size(), pooled * 1e3);
      m["latency_p50_ms"] =
          cycle_p50.empty()
              ? Metric{pooled * 1e3, "ms", n + ", pooled: no full cycle"}
              : Metric{sum(cycle_p50) /
                           static_cast<double>(cycle_p50.size()) * 1e3,
                       "ms", n + ", " + p50};
      m["latency_p95_ms"] = Metric{
          p95 * 1e3, "ms",
          n + ", " + std::to_string(beyond) + " beyond" +
              (beyond < 10 ? ": fewer than 10, a weak tail estimate" : "")};
    }
    m["events_per_s"] = Metric{events / wall, "1/s", n};
    char first[64];
    std::snprintf(first, sizeof first, "; the first took %.4g s",
                  setups.front());
    m["setup_s"] = Metric{percentile(setups, 0.5), "s",
                          "median of " + std::to_string(before) +
                              " before and " +
                              std::to_string(setups.size() - before) +
                              " after the window" + first};
    m["peak_rss_mb"] = Metric{peak_rss_mb(), "MB", ""};
  } else {
    Values v;
    const double traced_s = sum(traced);
    const double per_op =
        traced.empty() ? 0.0 : 1.0 / static_cast<double>(traced.size());
    const auto layers = log.layer_totals();
    double share_sum = 0.0;
    for (const char* layer : kLayers) {
      const auto it = layers.find(layer);
      const LayerTotals t = it != layers.end() ? it->second : LayerTotals{};
      const double share = traced_s > 0.0 ? t.self_s / traced_s : 0.0;
      const std::string l = layer;
      v[l + ".calls"] = static_cast<double>(t.calls) * per_op;
      v[l + ".self_s"] = t.self_s * per_op;
      v[l + ".share"] = share;
      share_sum += share;
    }
    v["layers.share_sum"] = share_sum;
    v["sim.events"] = traced_sum.events * per_op;
    v["sim.events_per_host_s"] =
        traced_sim_s > 0.0 ? traced_sum.events / traced_sim_s : 0.0;
    v["sim.calendar.peak_pending"] =
        traced_sum.runs > 0.0 ? traced_sum.peak_pending / traced_sum.runs : 0.0;
    v["sim.arena.new_calls_per_event"] =
        traced_sum.events > 0.0 ? traced_sum.new_calls / traced_sum.events : 0.0;
    v["par.jobs"] = jobs;
    // Traced ops/s over untraced ops/s, over the same requests.
    v["trace_overhead"] =
        traced_s > 0.0 && !untraced.empty()
            ? (sum(untraced) / static_cast<double>(untraced.size())) /
                  (traced_s / static_cast<double>(traced.size()))
            : 0.0;
    w->layer_metrics(v);
    for (const auto& [k, unit] : layer_metric_units()) {
      const auto it = v.find(k);
      if (it == v.end()) {
        m[k] = Metric{0.0, unit, "not exercised"};
      } else {
        m[k] = Metric{it->second, unit, ""};
        v.erase(it);
      }
    }
    if (!v.empty()) throw std::logic_error("no unit for " + v.begin()->first);
    const std::string path = opt.spans_dir + "/spans-" + name + "-seed" +
                             std::to_string(opt.seed) + ".json";
    log.write_chrome_trace(path, start);
    std::printf("  spans written: %s\n  %zu traced and %zu untraced "
                "operations; counts and times are per traced operation\n",
                path.c_str(), traced.size(), untraced.size());
  }
  for (const auto& [k, metric] : m) {
    std::printf("  %-9s %-38s %14.6g %-6s %s\n", name.c_str(), k.c_str(),
                metric.value, metric.unit.c_str(), metric.note.c_str());
  }
  std::printf("  %-9s %-38s %14llu\n  %-9s %-38s %14llu\n", name.c_str(),
              "ops_attempted", static_cast<unsigned long long>(res.attempted),
              name.c_str(), "ops_failed",
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "check failed: %s\n", errors[i].c_str());
  }
  res.correct = res.failed == 0;
  return res;
}

std::string result_line(const RunResult& r) {
  auto metrics = json::Value::object();
  for (const auto& [k, m] : r.metrics) {
    auto v = json::Value::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(k, std::move(v));
  }
  auto out = json::Value::object();
  out.set("correct", r.correct);
  out.set("attempted", static_cast<double>(r.attempted));
  out.set("failed", static_cast<double>(r.failed));
  out.set("metrics", std::move(metrics));
  return json::dump_compact(out);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const int jobs = std::min(kMaxJobs, hepex::par::hardware_jobs());
  cpu_set_t all_cpus;
  if (sched_getaffinity(0, sizeof all_cpus, &all_cpus) != 0) {
    std::fprintf(stderr, "error: sched_getaffinity failed\n");
    return 1;
  }
  hepex::par::set_default_jobs(jobs);

  std::vector<std::string> names;
  if (opt.workload == "all") {
    names = workload_names();
  } else if (std::find(workload_names().begin(), workload_names().end(),
                       opt.workload) != workload_names().end()) {
    names = {opt.workload};
  } else {
    usage("unknown workload " + opt.workload);
  }

  RunResult total;
  try {
    for (const std::string& name : names) {
      const RunResult r = run_workload(name, opt, jobs, all_cpus);
      total.correct = total.correct && r.correct;
      total.attempted += r.attempted;
      total.failed += r.failed;
      for (const auto& [k, m] : r.metrics) {
        total.metrics[names.size() == 1 ? k : name + "." + k] = m;
      }
      std::fflush(stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result_line(total).c_str());
  return total.correct ? 0 : 1;
}
