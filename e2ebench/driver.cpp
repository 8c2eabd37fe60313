// End-to-end benchmark driver: runs one workload through the public
// cfd::Simulation API and prints one JSON object of raw samples as its
// last line. run.py builds it, maps the seed to an inflow speed, checks
// each step against reference.json and reduces the samples to metrics.
//
//   e2ebench --workload warm-24r --inflow 8.0 --seed 1 --seconds 10
//            [--mode run|trace] [--reps N] [--later-steps N]
//            [--trace-out spans.json]
//
// --mode run    repeat {set up, cold first step, later steps} until
//               --seconds is spent (at least once; --reps fixes the count,
//               --later-steps shortens each repetition)
// --mode trace  one untraced repetition, the executor cross-check (later
//               steps once serial, once on the pool, both inside spans)
//               and the per-layer probes; spans go to --trace-out

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cfd/simulation.hpp"
#include "e2e.hpp"
#include "par/thread_pool.hpp"

namespace e2e {

namespace {

constexpr Workload kWorkloads[] = {
    {"warm-24r", 24, true, 2},
    {"cold-24r", 24, false, 2},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The workload's SimConfig at the given inflow speed, the only input
/// the seed changes.
exw::cfd::SimConfig make_config(const Workload& w, double inflow) {
  exw::cfd::SimConfig cfg = w.optimized ? exw::cfd::SimConfig::optimized()
                                        : exw::cfd::SimConfig::baseline();
  cfg.inflow_speed = inflow;
  return cfg;
}

/// Process CPU time (user + sys, all threads) in seconds.
double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

/// Peak resident set size of this process in MiB.
double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Wall and CPU seconds of a fixed calibration kernel: 16 sweeps over an
/// 8 MiB array, after one untimed sweep. It runs before every timed
/// sample, so its median tells how fast the host ran during the run;
/// run.py scales the measured times by it.
struct Calibration {
  double wall = 0, cpu = 0;
};

/// Keeps the calibration sums observable, so the sweeps stay in.
volatile double g_calibration_sink = 0;

Calibration calibrate() {
  static const std::vector<double> data(std::size_t{1} << 20, 1.0);
  double sum = 0;
  for (double v : data) sum += v;
  Calibration c;
  const double c0 = cpu_s();
  const double t0 = now_s();
  for (int pass = 0; pass < 16; ++pass) {
    for (double v : data) sum += v;
  }
  c.wall = now_s() - t0;
  c.cpu = cpu_s() - c0;
  g_calibration_sink = sum;
  return c;
}

/// Tracer phases of the modeled Fig. 6/7 breakdown, and their metrics.
constexpr const char* kModelPhases[][2] = {
    {"nli/momentum", "cfd.model.momentum_s"},
    {"nli/scalar", "cfd.model.scalar_s"},
    {"nli/continuity/physics", "cfd.model.continuity.physics_s"},
    {"nli/continuity/local", "cfd.model.continuity.local_s"},
    {"nli/continuity/global", "cfd.model.continuity.global_s"},
    {"nli/continuity/setup", "cfd.model.continuity.setup_s"},
    {"nli/continuity/solve", "cfd.model.continuity.solve_s"},
};
constexpr std::size_t kNumModelPhases = std::size(kModelPhases);

/// Everything one step reports: wall/CPU time, the diagnostics the
/// correctness check reads, and the exact counters the model prices.
/// Counts are stored as doubles so every field averages the same way.
struct StepRec {
  double wall = 0, cpu = 0;
  Calibration cal;  ///< taken right before the step
  double vel_rms = 0, scalar_mean = 0, div_rms = 0;
  double it_mom = 0, it_cont = 0, it_scl = 0;
  double res_mom = 0, res_cont = 0, res_scl = 0;
  double amg_rebuilds = 0, amg_refreshes = 0;
  double nli_gpu = 0, nli_cpu = 0;
  double kernels = 0, messages = 0, collectives = 0, bytes = 0;
  /// Modeled seconds per kModelPhases entry (scaled Summit GPU).
  std::array<double, kNumModelPhases> model{};

  /// Bitwise equality of the solver history (not of the timings).
  bool same_history(const StepRec& o) const {
    return it_mom == o.it_mom && it_cont == o.it_cont && it_scl == o.it_scl &&
           res_mom == o.res_mom && res_cont == o.res_cont &&
           res_scl == o.res_scl && vel_rms == o.vel_rms &&
           scalar_mean == o.scalar_mean && div_rms == o.div_rms &&
           nli_gpu == o.nli_gpu && kernels == o.kernels &&
           messages == o.messages && collectives == o.collectives &&
           bytes == o.bytes;
  }
};

/// One repetition: case generation to constructed Simulation, the cold
/// first step, then the workload's later steps.
struct RepResult {
  double setup_s = 0;
  Calibration setup_cal;  ///< taken right before the set-up
  std::vector<StepRec> steps;  ///< [0] is the cold first step
  double nnz_max_over_mean = 0;
};

RepResult run_rep(const Workload& w, const exw::cfd::SimConfig& cfg,
                  SpanLog* log, bool serial_later, bool setup_only = false) {
  using namespace exw;
  RepResult out;
  out.setup_cal = calibrate();
  const double t0 = now_s();
  SpanScope rep_span(log, "bench.rep");
  mesh::OversetSystem sys;
  {
    SpanScope s(log, "mesh.make_case");
    sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, kRefine);
  }
  par::Runtime rt(w.nranks);
  std::unique_ptr<cfd::Simulation> sim;
  {
    SpanScope s(log, "cfd.construct");
    sim = std::make_unique<cfd::Simulation>(sys, cfg, rt);
  }
  out.setup_s = now_s() - t0;
  if (setup_only) return out;

  const double scale =
      bench::paper_scale(mesh::TurbineCase::kSingle, sys.total_nodes());
  const auto gpu = bench::scaled_model(perf::MachineModel::summit_gpu(), scale);
  const auto cpu = bench::scaled_model(perf::MachineModel::summit_cpu(), scale);

  for (int s = 0; s <= w.later_steps; ++s) {
    if (s == 1 && serial_later) par::set_serial_mode(true);
    rt.tracer().reset();
    StepRec r;
    r.cal = calibrate();
    const double c0 = cpu_s();
    const double t1 = now_s();
    {
      SpanScope sp(log, s == 0 ? "cfd.first_step" : "cfd.step");
      sim->step();
    }
    r.wall = now_s() - t1;
    r.cpu = cpu_s() - c0;
    r.vel_rms = sim->velocity_rms();
    r.scalar_mean = sim->scalar_mean();
    r.div_rms = sim->divergence_rms();
    const auto& ms = sim->momentum_stats();
    const auto& cs = sim->continuity_stats();
    const auto& ss = sim->scalar_stats();
    r.it_mom = ms.gmres_iterations;
    r.it_cont = cs.gmres_iterations;
    r.it_scl = ss.gmres_iterations;
    r.res_mom = ms.final_residual;
    r.res_cont = cs.final_residual;
    r.res_scl = ss.final_residual;
    r.amg_rebuilds = cs.amg_rebuilds;
    r.amg_refreshes = cs.amg_refreshes;
    const auto& tr = rt.tracer();
    const auto& nli = tr.phase("nli");
    r.nli_gpu = nli.modeled_time(gpu);
    r.nli_cpu = nli.modeled_time(cpu);
    r.kernels = static_cast<double>(nli.total_kernels());
    r.messages = static_cast<double>(nli.messages);
    r.collectives = static_cast<double>(nli.collectives);
    r.bytes = nli.total_bytes();
    for (std::size_t k = 0; k < kNumModelPhases; ++k) {
      const char* phase = kModelPhases[k][0];
      r.model[k] = tr.has_phase(phase) ? tr.phase(phase).modeled_time(gpu) : 0;
    }
    out.steps.push_back(r);
  }
  par::set_serial_mode(false);

  std::vector<double> nnz(static_cast<std::size_t>(w.nranks), 0.0);
  for (std::size_t m = 0; m < sys.meshes.size(); ++m) {
    const auto per = sim->pressure_nnz_per_rank(static_cast<int>(m));
    for (std::size_t r = 0; r < per.size(); ++r) nnz[r] += per[r];
  }
  double sum = 0, mx = 0;
  for (double v : nnz) {
    sum += v;
    mx = std::max(mx, v);
  }
  out.nnz_max_over_mean = mx / (sum / static_cast<double>(nnz.size()));
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A per-step value over the later steps of one repetition.
template <typename F>
std::vector<double> later(const RepResult& rep, F field) {
  std::vector<double> v;
  for (std::size_t s = 1; s < rep.steps.size(); ++s) {
    v.push_back(std::invoke(field, rep.steps[s]));
  }
  return v;
}

template <typename F>
double later_mean(const RepResult& rep, F field) {
  const std::vector<double> v = later(rep, field);
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

bool same_later_history(const RepResult& a, const RepResult& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t s = 1; s < a.steps.size(); ++s) {
    if (!a.steps[s].same_history(b.steps[s])) return false;
  }
  return true;
}

/// Per-step diagnostics of each repetition, [[vel_rms, scalar_mean,
/// div_rms, finite], ...], for run.py's reference check.
std::string diag_json(const std::vector<const RepResult*>& reps) {
  std::string out = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    out += i ? ",[" : "[";
    const auto& steps = reps[i]->steps;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const StepRec& r = steps[s];
      const bool finite =
          std::isfinite(r.vel_rms) && std::isfinite(r.scalar_mean) &&
          std::isfinite(r.div_rms) && std::isfinite(r.res_mom) &&
          std::isfinite(r.res_cont) && std::isfinite(r.res_scl) &&
          std::isfinite(r.nli_gpu) && std::isfinite(r.nli_cpu);
      out += s ? ",[" : "[";
      out += json_number(r.vel_rms) + "," + json_number(r.scalar_mean) + "," +
             json_number(r.div_rms) + "," + (finite ? "true" : "false") + "]";
    }
    out += "]";
  }
  return out + "]";
}

struct Args {
  std::string workload;
  std::string mode = "run";
  std::string trace_out;
  double inflow = 8.0;
  unsigned seed = 1;
  double seconds = 10;
  int reps = 0;  ///< 0: repeat until --seconds is spent
  int later_steps = -1;  ///< -1: the workload's own count
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--mode") a.mode = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--inflow") a.inflow = std::atof(v);
    else if (k == "--seed") a.seed = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--reps") a.reps = std::atoi(v);
    else if (k == "--later-steps") a.later_steps = std::atoi(v);
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() &&
         (a.mode == "run" || a.mode == "trace");
}

/// Set-ups measured on their own before each repetition of a timed run,
/// so setup_s is a median of several samples spread over the run. A run
/// with a fixed --reps count takes none.
constexpr int kExtraSetups = 2;

/// The untraced run: repetitions until the time budget is spent.
int run_mode(const Workload& w, const exw::cfd::SimConfig& cfg,
             const Args& a, JsonObject& out) {
  const double deadline = now_s() + a.seconds;
  std::vector<double> setup;
  std::vector<Calibration> cal;
  std::vector<RepResult> reps;
  double last = 0;
  while (reps.empty() || (a.reps > 0 ? static_cast<int>(reps.size()) < a.reps
                                     : now_s() + last <= deadline)) {
    const double t = now_s();
    for (int i = 0; i < (a.reps > 0 ? 0 : kExtraSetups); ++i) {
      const RepResult r = run_rep(w, cfg, nullptr, false, true);
      setup.push_back(r.setup_s);
      cal.push_back(r.setup_cal);
    }
    reps.push_back(run_rep(w, cfg, nullptr, false));
    last = now_s() - t;
  }
  std::vector<double> first, step, cpu;
  bool deterministic = true;
  std::vector<const RepResult*> ptrs;
  for (const RepResult& r : reps) {
    setup.push_back(r.setup_s);
    cal.push_back(r.setup_cal);
    for (const StepRec& s : r.steps) cal.push_back(s.cal);
    first.push_back(r.steps[0].wall);
    for (double v : later(r, &StepRec::wall)) step.push_back(v);
    for (double v : later(r, &StepRec::cpu)) cpu.push_back(v);
    deterministic = deterministic && same_later_history(r, reps[0]) &&
                    r.steps[0].same_history(reps[0].steps[0]);
    ptrs.push_back(&r);
  }
  out.num("reps", static_cast<double>(reps.size()));
  out.array("setup_s", setup);
  out.array("first_step_s", first);
  out.array("step_s", step);
  out.array("step_cpu_s", cpu);
  std::vector<double> cal_wall, cal_cpu;
  for (const Calibration& c : cal) {
    cal_wall.push_back(c.wall);
    cal_cpu.push_back(c.cpu);
  }
  out.array("cal_wall_s", cal_wall);
  out.array("cal_cpu_s", cal_cpu);
  out.num("nli_summit_gpu_s", later_mean(reps[0], &StepRec::nli_gpu));
  out.num("nli_summit_cpu_s", later_mean(reps[0], &StepRec::nli_cpu));
  out.boolean("deterministic", deterministic);
  out.raw("diag", diag_json(ptrs));
  out.num("peak_rss_mb", peak_rss_mb());
  return 0;
}

/// The traced run: per-layer numbers, executor cross-check, probes.
int trace_mode(const Workload& w, const exw::cfd::SimConfig& cfg,
               const Args& a, JsonObject& out) {
  const int threads = exw::par::ThreadPool::instance().num_threads();
  const RepResult untraced = run_rep(w, cfg, nullptr, false);
  SpanLog log;
  RepResult serial, pooled;
  {
    SpanScope s(&log, "bench.executor_serial");
    serial = run_rep(w, cfg, &log, true);
  }
  {
    SpanScope s(&log, "bench.executor_pool");
    pooled = run_rep(w, cfg, &log, false);
  }
  bool probes_ok = false;
  JsonObject layers;
  {
    SpanScope s(&log, "bench.probes");
    probes_ok = run_probes(w, cfg, a.seed, log, layers);
  }

  // Exact counters: means over the later steps of the pooled repetition.
  const std::pair<const char*, double StepRec::*> counters[] = {
      {"perf.kernels_per_step", &StepRec::kernels},
      {"perf.messages_per_step", &StepRec::messages},
      {"perf.collectives_per_step", &StepRec::collectives},
      {"perf.bytes_per_step", &StepRec::bytes},
      {"cfd.iters.momentum", &StepRec::it_mom},
      {"cfd.iters.continuity", &StepRec::it_cont},
      {"cfd.iters.scalar", &StepRec::it_scl},
      {"cfd.amg_rebuilds", &StepRec::amg_rebuilds},
      {"cfd.amg_refreshes", &StepRec::amg_refreshes},
  };
  for (const auto& [name, field] : counters) {
    layers.num(name, later_mean(pooled, field));
  }
  for (std::size_t k = 0; k < kNumModelPhases; ++k) {
    layers.num(kModelPhases[k][1],
               later_mean(pooled, [k](const StepRec& r) { return r.model[k]; }));
  }
  layers.num("part.nnz_max_over_mean", pooled.nnz_max_over_mean);

  const double serial_s = median(later(serial, &StepRec::wall));
  const double pool_s = median(later(pooled, &StepRec::wall));
  const double untraced_s = median(later(untraced, &StepRec::wall));
  layers.num("par.pool_speedup", serial_s / pool_s);
  layers.num("par.busy_frac", serial_s / (pool_s * threads));
  layers.num("trace.overhead_s", pool_s - untraced_s);
  for (const auto& [layer, self] : log.self_time_by_layer()) {
    layers.num("self." + layer + "_s", self);
  }

  out.raw("layers", layers.render());
  // First later step, pool and serial: the base of run.py's
  // instrumented-build ratios, whose runs take only that step.
  out.num("release_step1_s", untraced.steps[1].wall);
  out.num("release_step1_s_1t", serial.steps[1].wall);
  out.boolean("executor_identical", same_later_history(serial, pooled));
  out.boolean("deterministic", same_later_history(untraced, pooled) &&
                                   untraced.steps[0].same_history(pooled.steps[0]));
  out.boolean("probes_ok", probes_ok);
  out.raw("diag", diag_json({&untraced, &serial, &pooled}));
  out.num("spans", static_cast<double>(log.spans().size()));
  if (!a.trace_out.empty() && !log.write_json(a.trace_out)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", a.trace_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start = now_s();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  stack_.pop_back();
}

std::vector<std::pair<std::string, double>> SpanLog::self_time_by_layer()
    const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string layer = spans_[i].name.substr(0, spans_[i].name.find('.'));
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& p) { return p.first == layer; });
    if (it == out.end()) {
      out.emplace_back(layer, self[i]);
    } else {
      it->second += self[i];
    }
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream f(path);
  f << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"start\":" << json_number(s.start)
      << ",\"end\":" << json_number(s.end) << ",\"parent\":" << s.parent << "}";
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + k + "\":";
}

void JsonObject::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
}

void JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
}

void JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + v + "\"";
}

void JsonObject::array(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ",";
    body_ += json_number(v[i]);
  }
  body_ += "]";
}

void JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
}

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args a;
  if (!e2e::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --inflow V --seed N "
                 "--seconds S [--mode run|trace] [--reps N] "
                 "[--later-steps N] [--trace-out FILE]\n");
    return 2;
  }
  const e2e::Workload* found = e2e::find_workload(a.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  e2e::Workload workload = *found;
  if (a.later_steps >= 1) {
    workload.later_steps = std::min(a.later_steps, workload.later_steps);
  }
  const e2e::Workload* w = &workload;
  const exw::cfd::SimConfig cfg = e2e::make_config(*w, a.inflow);
  e2e::JsonObject out;
  out.str("workload", w->name);
  out.num("inflow", a.inflow);
  out.num("threads", exw::par::ThreadPool::instance().num_threads());
  out.num("later_steps", w->later_steps);
  int rc = 0;
  try {
    rc = a.mode == "trace" ? e2e::trace_mode(*w, cfg, a, out)
                           : e2e::run_mode(*w, cfg, a, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  if (rc == 0) std::printf("%s\n", out.render().c_str());
  return rc;
}
