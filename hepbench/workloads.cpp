#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cfg/scenario.hpp"
#include "core/advisor.hpp"
#include "core/validation.hpp"
#include "hw/presets.hpp"
#include "obs/registry.hpp"
#include "obs/run_report.hpp"
#include "par/thread_pool.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "trace/execution_engine.hpp"
#include "trace/run_report.hpp"
#include "trace/scenario.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/programs.hpp"
#include "workload/synthetic.hpp"

namespace hepbench {

using namespace hepex;
namespace json = util::json;

std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

std::uint64_t hash_double(double v, std::uint64_t h) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  return hash_bytes(std::string_view(b, sizeof b), h);
}

// The paper's five programs (Table 2) and its two clusters.
const char* const kPaperPrograms[] = {"LU", "SP", "BT", "CP", "LB"};
const char* const kPaperMachines[] = {"xeon", "arm"};

// The Table 2 mean-error bound the paper reports its results within.
constexpr double kErrorBoundPct = 15.0;

// A seed for a generated request, never 0.
std::uint64_t draw_seed(util::Rng& rng) { return 1 + rng() % 1'000'000'000; }

// Fisher-Yates with the benchmark's own generator, the same on every
// standard library.
template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng() % i]);
  }
}

std::string scenario_text(const std::string& name, const std::string& platform,
                          const std::string& workload,
                          const std::string& extra, std::uint64_t sim_seed) {
  return "{\"schema\": \"hepex-scenario/1\", \"name\": \"" + name +
         "\", \"platform\": " + platform + ", \"workload\": " + workload +
         extra + ", \"sim\": {\"seed\": " + std::to_string(sim_seed) + "}}";
}

// The (machine, program) pairs advice is asked for: the repo's two
// shipped advice sets, each once. These are the ten Table 2 pairs and the
// 27 points of the grid that examples/scenarios/synthetic_grid.json
// sweeps through one `hepex advise` on the Xeon cluster. The grid is
// written out here so that an edit to the example does not change the
// benchmark's inputs.
std::vector<std::pair<std::string, std::string>> advice_programs() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* m : kPaperMachines) {
    for (const char* p : kPaperPrograms) out.emplace_back(m, p);
  }
  workload::SyntheticGrid grid;
  grid.arithmetic_intensity = {30, 60, 120};
  grid.bytes_per_instruction = {0.2, 0.6, 1};
  grid.message_intensity = {30, 100, 300};
  grid.seed = 7;
  for (const auto& s : grid.expand()) {
    out.emplace_back("xeon", "synthetic:" + workload::synthetic_ref(s));
  }
  return out;
}

Reference counts_of(const obs::Registry& reg, double runs) {
  const auto value = [&](const char* name) {
    const obs::Counter* c = reg.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  Reference r;
  r.events = value("sim.events_processed");
  r.runs = runs;
  r.peak_pending = value("sim.calendar.peak_pending");
  r.new_calls = value("sim.arena.blocks") + value("sim.arena.oversize_allocs");
  return r;
}

template <typename F>
double median_time(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point a = Clock::now();
    fn();
    t.push_back(seconds(a, Clock::now()));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

// ---------------------------------------------------------------- advise

// Cold `hepex advise` requests from one caller: a scenario document with a
// program reference layered on top (the CLI's --scenario plus --program),
// a fresh Advisor each time, and the report the CLI writes. One cycle of
// requests asks once for each of advice_programs(); the seed sets every
// request's sim.seed and deadline.
class Advise final : public Workload {
 public:
  Advise(std::uint64_t seed, int jobs) : jobs_(jobs) {
    util::Rng rng(seed);
    const auto add = [&](const std::string& machine,
                         const std::string& program) {
      const std::size_t i = reqs_.size();
      reqs_.push_back(Request{
          scenario_text("bench-advise-" + std::to_string(i),
                        "{\"preset\": \"" + machine + "\"}",
                        "{\"class\": \"A\"}", "", draw_seed(rng)),
          program, 1.2 + 1.8 * rng.uniform01()});
    };
    for (const auto& [machine, program] : advice_programs()) {
      add(machine, program);
    }
    sample_ = static_cast<std::size_t>(rng() % reqs_.size());
  }

  std::size_t requests() const override { return reqs_.size(); }

  // Lazy set-up (program registries, the thread pool) finishes here.
  void setup() override { (void)advise(reqs_[0], nullptr, nullptr); }

  OpResult op(std::size_t r, int, SpanLog* log) override {
    Output o = advise(reqs_[r], log, nullptr);
    if (log != nullptr) {
      count("model.characterize.sims", static_cast<double>(o.sims));
      count("model.sweep.points", static_cast<double>(o.points));
      count("obs.json_bytes", static_cast<double>(o.bytes.size()));
    }
    return OpResult{o.latency_s, hash_bytes(o.bytes), o.error};
  }

  Reference reference(std::size_t r) override {
    obs::Registry reg;
    Output o = advise(reqs_[r], nullptr, &reg);
    Reference ref = counts_of(reg, static_cast<double>(o.baseline_runs));
    ref.output = hash_bytes(o.bytes);
    ref.error = o.error;
    return ref;
  }

  // One sampled request gives the same bytes at pool width 1 and width W.
  std::vector<std::string> final_checks() override {
    par::set_default_jobs(1);
    const std::string serial = advise(reqs_[sample_], nullptr, nullptr).bytes;
    par::set_default_jobs(jobs_);
    const std::string wide = advise(reqs_[sample_], nullptr, nullptr).bytes;
    if (serial == wide) return {};
    return {"advise: request " + std::to_string(sample_) +
            " differs between pool width 1 and " + std::to_string(jobs_)};
  }

  void layer_metrics(Values& out) override {
    emit_counts(out);
    const auto time_at = [&](int width) {
      par::set_default_jobs(width);
      return median_time(3, [&] { advise(reqs_[sample_], nullptr, nullptr); });
    };
    const double serial = time_at(1);
    const double wide = time_at(jobs_);
    out["par.speedup.advise"] = serial / wide;
  }

 private:
  struct Request {
    std::string scenario;  // the scenario document
    std::string program;   // the program reference layered on top
    double deadline_factor = 1.0;  // deadline over the fastest frontier time
  };
  struct Output {
    double latency_s = 0.0;
    std::string bytes;  // the report's JSON
    std::string error;
    std::size_t sims = 0;           // characterization simulations
    std::size_t baseline_runs = 0;  // of which fed options.sim.metrics
    std::size_t points = 0;         // configurations the sweep predicted
  };

  Output advise(const Request& q, SpanLog* log, obs::Registry* reg) const {
    Output out;
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope root(log, "advise.op");
      cfg::Scenario s;
      {
        SpanLog::Scope sp(log, "cfg.load_scenario");
        s = cfg::load_scenario(q.scenario, "advise request");
      }
      {
        SpanLog::Scope sp(log, "workload.resolve");
        s.program_name = q.program;
        s.program = workload::program_by_name(q.program, s.input);
      }
      model::CharacterizationOptions opts;
      opts.sim.metrics = reg;
      core::Advisor advisor = core::Advisor::from_scenario(s, opts);
      {
        SpanLog::Scope sp(log, "model.characterize");
        const model::Characterization& ch = advisor.characterization();
        for (const auto& row : ch.baseline) out.baseline_runs += row.size();
        out.sims = out.baseline_runs + 1;  // plus the communication probe
      }
      const std::vector<pareto::ConfigPoint>* space = nullptr;
      {
        SpanLog::Scope sp(log, "model.sweep");
        space = &advisor.explore();
      }
      const std::vector<pareto::ConfigPoint>* frontier = nullptr;
      {
        SpanLog::Scope sp(log, "pareto.frontier");
        frontier = &advisor.frontier();
      }
      if (frontier->empty()) {
        out.error = "empty frontier";
        return out;
      }
      const q::Seconds deadline = frontier->front().time_s * q.deadline_factor;
      std::optional<core::Recommendation> rec;
      {
        SpanLog::Scope sp(log, "pareto.for_deadline");
        rec = advisor.for_deadline(deadline);
      }
      obs::RunReport report;
      {
        SpanLog::Scope sp(log, "obs.run_report");
        trace::RunReportOptions ro;
        ro.command = "advise";
        ro.summary = summary(*frontier, rec);
        report = trace::build_run_report(s, ro);
      }
      {
        SpanLog::Scope sp(log, "obs.json_dump");
        out.bytes = report.to_json();
      }
      out.latency_s = seconds(t0, Clock::now());
      out.points = space->size();
      out.error = check(*space, *frontier, rec, deadline);
    }
    return out;
  }

  static json::Value summary(const std::vector<pareto::ConfigPoint>& frontier,
                             const std::optional<core::Recommendation>& rec) {
    const auto point = [](const pareto::ConfigPoint& p) {
      auto pt = json::Value::object();
      pt.set("n", p.config.nodes);
      pt.set("c", p.config.cores);
      pt.set("f_ghz", p.config.f_hz.value() / 1e9);
      pt.set("time_s", p.time_s.value());
      pt.set("energy_j", p.energy_j.value());
      pt.set("ucr", p.ucr);
      return pt;
    };
    auto points = json::Value::array();
    for (const auto& p : frontier) points.push_back(point(p));
    auto out = json::Value::object();
    out.set("frontier_points", static_cast<int>(frontier.size()));
    out.set("frontier", std::move(points));
    if (rec) out.set("deadline_choice", point(rec->point));
    return out;
  }

  // The frontier is non-empty and finite, the space's minimum-energy point
  // lies on it, and the deadline choice meets its deadline.
  static std::string check(const std::vector<pareto::ConfigPoint>& space,
                           const std::vector<pareto::ConfigPoint>& frontier,
                           const std::optional<core::Recommendation>& rec,
                           q::Seconds deadline) {
    for (const auto& p : frontier) {
      if (!std::isfinite(p.time_s.value()) ||
          !std::isfinite(p.energy_j.value()) || p.time_s.value() <= 0.0 ||
          p.energy_j.value() <= 0.0) {
        return "non-finite frontier point";
      }
    }
    const auto by_energy = [](const pareto::ConfigPoint& a,
                              const pareto::ConfigPoint& b) {
      return a.energy_j < b.energy_j;
    };
    const auto& least = *std::min_element(space.begin(), space.end(), by_energy);
    const bool on_frontier = std::any_of(
        frontier.begin(), frontier.end(), [&](const pareto::ConfigPoint& p) {
          return p.energy_j == least.energy_j && p.time_s == least.time_s;
        });
    if (!on_frontier) return "minimum-energy point is not on the frontier";
    if (!rec || rec->point.time_s > deadline) return "deadline not met";
    return {};
  }

  std::vector<Request> reqs_;
  int jobs_;
  std::size_t sample_ = 0;
};

// -------------------------------------------------------------- validate

// The paper's Table 2: core::validate over the full grid of one
// (program, machine) pair per operation.
class Validate final : public Workload {
 public:
  Validate(std::uint64_t seed, int jobs) : jobs_(jobs) {
    util::Rng rng(seed);
    for (const char* m : kPaperMachines) {
      for (const char* p : kPaperPrograms) {
        pairs_.push_back(Pair{m, p, draw_seed(rng)});
      }
    }
    // The seed also sets the order the pairs are visited in.
    shuffle(pairs_, rng);
    sample_ = static_cast<std::size_t>(rng() % pairs_.size());
  }

  std::size_t requests() const override { return pairs_.size(); }

  // Lazy set-up finishes on a cut-down validation of SP on the Xeon
  // cluster, the same work whatever the seed.
  void setup() override {
    const hw::MachineSpec m = hw::machine_by_name("xeon");
    std::vector<hw::ClusterConfig> grid = core::validation_grid(m, true);
    grid.resize(8);
    (void)core::validate(m, workload::program_by_name("SP"), grid,
                         options(pairs_[0], nullptr), jobs_);
  }

  OpResult op(std::size_t r, int, SpanLog* log) override {
    Output o = run(pairs_[r], log, nullptr, jobs_);
    if (log != nullptr) {
      count("core.validate.configs", static_cast<double>(o.configs));
      count("core.validate.time_error_mean_pct", o.time_error_pct);
      count("core.validate.energy_error_mean_pct", o.energy_error_pct);
    }
    return OpResult{o.latency_s, o.output, o.error};
  }

  Reference reference(std::size_t r) override {
    obs::Registry reg;
    Output o = run(pairs_[r], nullptr, &reg, jobs_);
    Reference ref = counts_of(reg, static_cast<double>(o.runs));
    ref.output = o.output;
    ref.error = o.error;
    return ref;
  }

  void layer_metrics(Values& out) override {
    emit_counts(out);
    const auto time_at = [&](int width) {
      return median_time(3, [&] { run(pairs_[sample_], nullptr, nullptr, width); });
    };
    const double serial = time_at(1);
    const double wide = time_at(jobs_);
    out["par.speedup.validate"] = serial / wide;
  }

 private:
  struct Pair {
    std::string machine;
    std::string program;
    std::uint64_t sim_seed = 0;
  };
  struct Output {
    double latency_s = 0.0;
    std::uint64_t output = 0;
    std::string error;
    std::size_t configs = 0;
    std::size_t runs = 0;  // simulations that fed the registry
    double time_error_pct = 0.0;
    double energy_error_pct = 0.0;
  };

  static model::CharacterizationOptions options(const Pair& p,
                                                obs::Registry* reg) {
    model::CharacterizationOptions o;
    o.sim.seed = p.sim_seed;
    o.sim.metrics = reg;  // forces the sweep serial: sinks are single-consumer
    return o;
  }

  static Output run(const Pair& p, SpanLog* log, obs::Registry* reg,
                    int jobs) {
    Output out;
    core::ValidationReport report;
    std::size_t baseline_runs = 0;
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope root(log, "validate.op");
      hw::MachineSpec machine;
      workload::ProgramSpec program;
      std::vector<hw::ClusterConfig> grid;
      {
        SpanLog::Scope sp(log, "workload.resolve");
        machine = hw::machine_by_name(p.machine);
        program = workload::program_by_name(p.program);
        grid = core::validation_grid(machine, true);
      }
      baseline_runs = static_cast<std::size_t>(machine.node.cores) *
                      machine.node.dvfs.frequencies_hz.size();
      {
        SpanLog::Scope sp(log, "core.validate");
        report = core::validate(machine, program, grid, options(p, reg), jobs);
      }
      out.configs = grid.size();
    }
    out.latency_s = seconds(t0, Clock::now());
    out.runs = baseline_runs + report.rows.size();
    out.time_error_pct = report.time_error.mean();
    out.energy_error_pct = report.energy_error.mean();
    std::uint64_t h = hash_double(out.time_error_pct, 0xcbf29ce484222325ULL);
    h = hash_double(out.energy_error_pct, h);
    for (const auto& row : report.rows) {
      h = hash_double(row.time_error_pct, h);
      h = hash_double(row.energy_error_pct, h);
    }
    out.output = h;
    if (report.rows.size() != out.configs) {
      out.error = "validation rows missing";
    } else if (!(out.time_error_pct <= kErrorBoundPct) ||
               !(out.energy_error_pct <= kErrorBoundPct)) {
      out.error = p.program + " on " + p.machine +
                  ": mean error above the paper's 15% bound";
    }
    return out;
  }

  std::vector<Pair> pairs_;
  int jobs_;
  std::size_t sample_ = 0;
};

// -------------------------------------------------------------- scaleout

// `hepex simulate` of SP class S at 64, 256 and 1000 nodes: the simulator
// alone, serial, with no characterization and no model.
class Scaleout final : public Workload {
 public:
  explicit Scaleout(std::uint64_t seed) {
    util::Rng rng(seed);
    for (const int n : {64, 256, 1000}) {
      const std::string ns = std::to_string(n);
      texts_.push_back(scenario_text(
          "bench-scaleout-" + ns,
          "{\"preset\": \"xeon\", \"nodes_available\": " + ns + "}",
          "{\"program\": \"SP\", \"class\": \"S\", \"iterations\": 4}",
          ", \"config\": {\"n\": " + ns + ", \"c\": 2, \"f\": \"1.8GHz\"}",
          draw_seed(rng)));
    }
  }

  std::size_t requests() const override { return texts_.size(); }

  void setup() override { (void)run(0, nullptr, nullptr); }

  OpResult op(std::size_t r, int, SpanLog* log) override {
    return run(r, log, nullptr);
  }

  // Run twice: the run must complete with the same measurement, event
  // count and calendar depth both times.
  Reference reference(std::size_t r) override {
    Reference runs[2];
    for (Reference& ref : runs) {
      obs::Registry reg;
      const OpResult o = run(r, nullptr, &reg);
      ref = counts_of(reg, 1.0);
      ref.output = o.output;
      ref.error = o.error;
    }
    Reference& ref = runs[0];
    if (ref.error.empty() && ref.events <= 0.0) {
      ref.error = "no simulated events";
    } else if (ref.error.empty() &&
               (runs[1].output != ref.output || runs[1].events != ref.events ||
                runs[1].peak_pending != ref.peak_pending)) {
      const auto n = [](double v) {
        return std::to_string(static_cast<std::uint64_t>(v));
      };
      ref.error = "two runs differ: " + n(ref.events) + " and " +
                  n(runs[1].events) + " events";
    }
    return ref;
  }

 private:
  OpResult run(std::size_t r, SpanLog* log, obs::Registry* reg) const {
    OpResult out;
    trace::Measurement meas;
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope root(log, "scaleout.op");
      cfg::Scenario s;
      {
        SpanLog::Scope sp(log, "cfg.load_scenario");
        s = cfg::load_scenario(texts_[r], "scaleout request");
      }
      trace::SimOptions opt = trace::sim_options_from_scenario(s);
      opt.metrics = reg;
      {
        SpanLog::Scope sp(log, "trace.simulate");
        meas = trace::simulate(s.machine, s.program, s.single_config(), opt);
      }
    }
    out.latency_s = seconds(t0, Clock::now());
    std::uint64_t h = hash_double(meas.time_s.value(), 0xcbf29ce484222325ULL);
    h = hash_double(meas.energy.total().value(), h);
    h = hash_double(meas.counters.instructions, h);
    h = hash_double(meas.messages.messages, h);
    out.output = h;
    if (!meas.completed()) out.error = "simulation did not complete";
    return out;
  }

  std::vector<std::string> texts_;
};

// ----------------------------------------------------------------- serve

// An in-process hepexd on loopback with two closed-loop clients: about
// 80% advise over a warm advisor cache, 20% class-S simulate.
class Serve final : public Workload {
 public:
  Serve(std::uint64_t seed, int jobs) : jobs_(jobs) {
    util::Rng rng(seed);
    // One fingerprint for each of advice_programs(), as in advise; the
    // advisor cache is sized to hold them all.
    const auto programs = advice_programs();
    advisors_ = programs.size();
    for (std::size_t i = 0; i < advisors_; ++i) {
      const auto& [machine, program] = programs[i];
      add("advise", scenario_text("bench-serve-" + std::to_string(i),
                                  "{\"preset\": \"" + machine + "\"}",
                                  "{\"program\": \"" + program +
                                      "\", \"class\": \"A\"}",
                                  "", draw_seed(rng)));
    }
    const char* const sim_programs[] = {"SP", "LU", "BT"};
    for (int i = 0; i < kSimulations; ++i) {
      add("simulate",
          scenario_text("bench-serve-sim-" + std::to_string(i),
                        "{\"preset\": \"xeon\"}",
                        std::string("{\"program\": \"") +
                            sim_programs[i % 3] + "\", \"class\": \"S\"}",
                        ", \"config\": {\"n\": 4, \"c\": 4, "
                        "\"f\": \"1.8GHz\"}",
                        draw_seed(rng)));
    }
    for (auto& seq : seq_) {
      seq.resize(kSequence);
      for (auto& r : seq) {
        r = rng.uniform01() < 0.8
                ? static_cast<std::size_t>(rng() % advisors_)
                : static_cast<std::size_t>(advisors_ + rng() % kSimulations);
      }
    }
  }

  ~Serve() override {
    for (auto& c : clients_) c.reset();
    if (server_) server_->stop();
  }

  int clients() const override { return 2; }
  // Each request hops client -> connection thread -> executor and back.
  // On a virtual machine, waking an idle vCPU for every hop costs more and
  // varies more than the request itself; two CPUs, one per client, keep
  // the hops on busy CPUs. Pinning only the clients measured far noisier.
  // The server's par pool keeps its width, so it is oversubscribed on the
  // two CPUs; only the advisor-cache misses of set-up use it, and a
  // change that puts the pool on the warm path is measured that way.
  int cpus() const override { return 2; }
  std::size_t requests() const override { return reqs_.size(); }
  std::size_t request_for(int lane, std::uint64_t k) const override {
    return seq_[static_cast<std::size_t>(lane)][k % kSequence];
  }

  // Starts the server, connects the clients and fills the advisor cache;
  // the responses seen here are what every later response must repeat.
  void setup() override {
    svc::ServerConfig cfg;
    cfg.executors = 2;
    cfg.advisor_cache_capacity = advisors_;
    cfg.jobs = jobs_;
    server_ = std::make_unique<svc::Server>(cfg);
    server_->start();
    for (auto& c : clients_) {
      c = std::make_unique<svc::Client>(
          svc::Client::connect_tcp_socket(server_->port()));
    }
    expected_.clear();
    expected_hash_.clear();
    for (const auto& req : reqs_) {
      svc::Response resp = clients_[0]->call(req);
      if (!resp.ok) {
        throw std::runtime_error("serve set-up: " + req.method + " failed: " +
                                 resp.message);
      }
      expected_hash_.push_back(hash_bytes(json::dump_compact(resp.result)));
      expected_.push_back(std::move(resp.result));
    }
  }

  OpResult op(std::size_t r, int lane, SpanLog* log) override {
    OpResult out;
    svc::Response resp;
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope root(log, "serve.op");
      SpanLog::Scope sp(log, "svc.call");
      resp = clients_[static_cast<std::size_t>(lane)]->call(reqs_[r]);
    }
    out.latency_s = seconds(t0, Clock::now());
    if (!resp.ok) {
      out.error = reqs_[r].method + ": " + resp.message;
    } else if (!(resp.result == expected_[r])) {
      out.error = "response differs from the first response to request " +
                  std::to_string(r);
    } else {
      out.output = expected_hash_[r];
    }
    return out;
  }

  // The set-up response, and for simulate requests the counters of the
  // same run made locally with a registry attached.
  Reference reference(std::size_t r) override {
    Reference ref;
    if (reqs_[r].method == "simulate") {
      const cfg::Scenario s = cfg::load_scenario(
          json::dump_compact(reqs_[r].scenario), "serve request");
      obs::Registry reg;
      trace::SimOptions opt = trace::sim_options_from_scenario(s);
      opt.metrics = &reg;
      (void)trace::simulate(s.machine, s.program, s.single_config(), opt);
      ref = counts_of(reg, 1.0);
    }
    ref.output = expected_hash_[r];
    return ref;
  }

  void layer_metrics(Values& out) override {
    svc::Request req;
    req.id = "stats";
    req.method = "stats";
    const svc::Response resp = clients_[0]->call(req);
    const auto num = [&](const char* section, const char* key) {
      const json::Value* s = resp.result.find(section);
      const json::Value* v = s != nullptr ? s->find(key) : nullptr;
      return v != nullptr ? v->as_number() : 0.0;
    };
    const double hits = num("advisors", "hits");
    const double misses = num("advisors", "misses");
    out["svc.advisor_cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out["svc.shed"] = num("counters", "shed");
    out["svc.timeouts"] = num("counters", "timeouts");
    out["svc.queue.high_water"] = num("queue", "high_water");
  }

 private:
  static constexpr int kSimulations = 8;
  static constexpr std::size_t kSequence = 4096;

  void add(const std::string& method, const std::string& scenario) {
    svc::Request req;
    req.id = "r" + std::to_string(reqs_.size());
    req.method = method;
    req.scenario = json::parse(scenario, "serve request");
    reqs_.push_back(std::move(req));
  }

  int jobs_;
  std::size_t advisors_ = 0;  // advise requests, first in reqs_
  std::vector<svc::Request> reqs_;
  std::vector<std::size_t> seq_[2];
  std::vector<json::Value> expected_;  // set-up responses, by request
  std::vector<std::uint64_t> expected_hash_;
  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::Client> clients_[2];
};

}  // namespace

std::size_t Workload::request_for(int, std::uint64_t k) const {
  return static_cast<std::size_t>(k % requests());
}

void Workload::count(const std::string& name, double value) {
  auto& [sum, calls] = counts_[name];
  sum += value;
  calls += 1.0;
}

void Workload::emit_counts(Values& out) const {
  for (const auto& [name, c] : counts_) out[name] = c.first / c.second;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"advise", "validate",
                                                 "scaleout", "serve"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int jobs) {
  if (name == "advise") return std::make_unique<Advise>(seed, jobs);
  if (name == "validate") return std::make_unique<Validate>(seed, jobs);
  if (name == "scaleout") return std::make_unique<Scaleout>(seed);
  if (name == "serve") return std::make_unique<Serve>(seed, jobs);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace hepbench
