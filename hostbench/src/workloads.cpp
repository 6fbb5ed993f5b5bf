#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "circuit/energy.hpp"
#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "graph/executor.hpp"
#include "graph/models.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/fault.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace hostbench {
namespace {

using namespace ptc;

constexpr std::size_t kFastPathSamples = 3;  ///< batches rerun on the oracle
/// Share by which the replayed child time may exceed serve.run_s: the
/// bound of sim_items_per_host_s, the end-to-end view of serve.run_s.
constexpr double kChildSlack = 0.25;

// --- report fingerprints -----------------------------------------------------
// Every modeled field of a report, doubles in exact hex, so two reports are
// identical exactly when their fingerprints are equal strings.  Without
// `energy` the ledger-derived energies are left out: a run books its energy
// as deltas of the fleet's cumulative ledger, so a later run on the same
// fleet can differ from the first in the last bits of those fields while
// every output and modeled time is identical.

void put(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a,", v);
  s += buf;
}
void put(std::string& s, std::size_t v) { s += std::to_string(v) + ','; }
void put(std::string& s, const std::string& v) { s += v + ','; }

void put(std::string& s, const serve::TenantCost& t, bool energy) {
  put(s, t.tenant);
  for (std::size_t v : {t.requests, t.batches, t.passes, t.warm_passes,
                        t.recalibrations, t.probes, t.faults, t.shed_requests,
                        t.tokens, t.kv_evicted_rows, t.preemptions}) {
    put(s, v);
  }
  for (double v : {t.service_seconds, t.busy_seconds, t.recalibration_seconds,
                   t.probe_seconds, t.fault_seconds, t.kv_row_seconds}) {
    put(s, v);
  }
  if (energy) put(s, t.energy_joules);
  s += '\n';
}

void put(std::string& s, const serve::LatencyStats& l) {
  put(s, l.count);
  for (double v : {l.mean, l.p50, l.p95, l.p99, l.max}) put(s, v);
}

std::string fingerprint(const serve::ServeReport& r, bool energy) {
  std::string s;
  for (const serve::RequestRecord& q : r.requests) {
    put(s, q.id);
    put(s, q.tenant);
    put(s, q.batch);
    put(s, q.predicted);
    put(s, static_cast<std::size_t>(q.matches_reference));
    for (double v : {q.arrival, q.dispatch, q.completion}) put(s, v);
    s += '\n';
  }
  for (const serve::BatchRecord& b : r.batches) {
    for (std::size_t v : {b.id, b.size, b.passes, b.warm_passes, b.epoch}) {
      put(s, v);
    }
    for (double v : {b.dispatch, b.completion, b.busy, b.detuning}) put(s, v);
    s += '\n';
  }
  for (std::size_t v :
       {r.completed, r.dispatched_batches, r.cores, r.passes, r.warm_passes,
        r.reference_matches, r.recalibrations, r.probes, r.health_alerts,
        r.faults, r.core_evictions, r.core_readmissions, r.shed}) {
    put(s, v);
  }
  for (double v : {r.makespan, r.busy, r.service_time, r.recalibration_time,
                   r.max_abs_detuning, r.probe_time, r.fault_time}) {
    put(s, v);
  }
  if (energy) put(s, r.energy);
  for (const serve::LatencyStats* l :
       {&r.queue_wait, &r.service, &r.total, &r.trigger_lag}) {
    put(s, *l);
  }
  for (const serve::TenantCost& t : r.tenant_costs) put(s, t, energy);
  return s;
}

// --- conservation: tenant rows re-summed in the report's own order ------------

bool tenant_sums_match(const serve::ServeReport& r) {
  std::size_t requests = 0, passes = 0, warm = 0, probes = 0, faults = 0,
              shed = 0;
  double busy = 0.0, energy = 0.0, service = 0.0, recal = 0.0, probe = 0.0,
         fault = 0.0;
  for (const serve::TenantCost& t : r.tenant_costs) {
    requests += t.requests;
    passes += t.passes;
    warm += t.warm_passes;
    probes += t.probes;
    faults += t.faults;
    shed += t.shed_requests;
    busy += t.busy_seconds;
    energy += t.energy_joules;
    service += t.service_seconds;
    recal += t.recalibration_seconds;
    probe += t.probe_seconds;
    fault += t.fault_seconds;
  }
  return requests == r.completed && passes == r.passes &&
         warm == r.warm_passes && probes == r.probes && faults == r.faults &&
         shed == r.shed && busy == r.busy && energy == r.energy &&
         service == r.service_time && recal == r.recalibration_time &&
         probe == r.probe_time && fault == r.fault_time;
}

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

std::string format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

std::vector<double> percentiles_us(std::vector<double> seconds,
                                   std::initializer_list<double> ps) {
  std::sort(seconds.begin(), seconds.end());
  std::vector<double> out;
  for (double p : ps) out.push_back(1e6 * nearest_rank(seconds, p));
  return out;
}

/// Median host time of `repeats` calls of `fn` [s].
template <typename Fn>
double time_median(std::size_t repeats, Fn&& fn) {
  std::vector<double> times;
  for (std::size_t i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    fn(i);
    times.push_back(seconds_since(start));
  }
  return median(std::move(times));
}

/// Peak resident memory of this process image [MiB]: VmHWM of
/// /proc/self/status.  getrusage's ru_maxrss would not do: Linux carries it
/// across execve, so it reports the launching process's footprint (the
/// Python driver's) whenever that is larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Summed eoADC conversions across the fleet's cores.
double adc_conversions(const runtime::Accelerator& accelerator) {
  double total = 0.0;
  for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
    total += static_cast<double>(accelerator.core(i).adc_conversions());
  }
  return total;
}

double counter(telemetry::MetricsRegistry& metrics, const std::string& name) {
  return metrics.contains(name) ? metrics.counter(name).value() : 0.0;
}

/// Host time of the layer replays a workload performs after its runs.
struct Replay {
  /// Summed replayed graph call and drift-advance time [s].
  double child_s = 0.0;
  std::size_t failed = 0;  ///< items whose replayed output disagrees
  std::vector<Metric> metrics;
};

/// A replay's metrics.  The replayed model-layer calls are graph::run; the
/// runtime metrics cover the matmuls beneath them.
Replay replay_result(const std::vector<double>& calls, double advance_s,
                     const TimingBackend& timing, std::size_t failed) {
  const double total = std::accumulate(calls.begin(), calls.end(), 0.0);
  const std::vector<double> call_us = percentiles_us(calls, {50.0, 99.0});
  const std::vector<double> matmul_us =
      percentiles_us(timing.durations(), {50.0, 99.0});
  const double matmuls = static_cast<double>(timing.durations().size());
  const double rows = static_cast<double>(std::accumulate(
      timing.rows().begin(), timing.rows().end(), std::size_t{0}));
  Replay out;
  out.child_s = total + advance_s;
  out.failed = failed;
  out.metrics = {
      {"graph.run_calls", static_cast<double>(calls.size()), "count"},
      {"graph.run_s", total, "s"},
      {"graph.call_us_p50", call_us[0], "us"},
      {"graph.call_us_p99", call_us[1], "us"},
      {"graph.self_s", total - timing.total_seconds(), "s"},
      {"runtime.drift_advance_s", advance_s, "s"},
      {"runtime.matmul_calls", matmuls, "count"},
      {"runtime.matmul_rows_mean", matmuls > 0 ? rows / matmuls : 0.0,
       "rows"},
      {"runtime.matmul_s", timing.total_seconds(), "s"},
      {"runtime.matmul_us_p50", matmul_us[0], "us"},
      {"runtime.matmul_us_p99", matmul_us[1], "us"},
  };
  return out;
}

/// Modeled latency metrics from per-request records: nearest-rank p50 and
/// the tail rule, each noted with its percentile and sample count.
void latency_metrics(Result& result, const std::vector<double>& total) {
  std::vector<double> sorted = total;
  std::sort(sorted.begin(), sorted.end());
  const Tail t = tail(total);
  result.metrics.push_back(
      {"modeled_latency_p50_s", nearest_rank(sorted, 50.0), "s"});
  result.metrics.push_back({"modeled_latency_tail_s", t.value, "s"});
  result.notes.push_back(format(
      "modeled_latency_p50_s: nearest-rank p50 of n=%.0f arrival-to-"
      "completion latencies",
      static_cast<double>(t.count)));
  result.notes.push_back(
      format("modeled_latency_tail_s: nearest-rank p%.2f (rank %.0f of "
             "n=%.0f, 10 samples beyond)",
             t.percentile, static_cast<double>(t.rank),
             static_cast<double>(t.count)));
}

// --- serve_cnn / serve_drift: Server dynamic batching ---------------------------

constexpr std::size_t kCnnRequests = 1536;
constexpr std::size_t kDriftRequests = 512;

bool is_drift(const std::string& workload) {
  return workload == "serve_drift";
}

std::size_t batch_requests(const std::string& workload) {
  return is_drift(workload) ? kDriftRequests : kCnnRequests;
}

runtime::AcceleratorConfig batch_fleet_config(const std::string& workload,
                                              std::size_t threads,
                                              bool fast_path) {
  runtime::AcceleratorConfig c;
  c.cores = 8;
  c.threads = threads;
  c.core.fast_path = fast_path;
  if (is_drift(workload)) {
    c.core.weight_bits = 6;
    c.variation.seed = 42;
    c.drift.sigma = 1.0;
    c.drift.tau = 4e-6;
  }
  return c;
}

nn::PhotonicBackendOptions batch_backend_options(const std::string& workload) {
  nn::PhotonicBackendOptions o;
  if (is_drift(workload)) {
    o.quantize_output = false;
    o.differential_weights = true;
  } else {
    // Readout ranging so the CNN's logits span the 3-bit eoADC codes; at
    // unit gain most rows quantize to code 0.
    o.adc_range_gain = 4.0;
  }
  return o;
}

const char* batch_model(const std::string& workload) {
  return is_drift(workload) ? "mlp" : "cnn";
}

/// Fleet + registry with the workload's model registered and compiled.
struct BatchFleet {
  BatchFleet(const std::string& workload, std::size_t threads, bool fast_path)
      : accelerator(batch_fleet_config(workload, threads, fast_path)),
        registry(accelerator, batch_backend_options(workload)) {
    if (is_drift(workload)) {
      Rng rng(7);
      registry.add("mlp", nn::Mlp(64, 32, 10, rng));  // 10 tiles > 8 cores
      return;
    }
    // The compiled CNN of the serving-policy sweep, same weight draws:
    // conv(4ch) -> pool -> dense, 5 tiles <= 8 cores, 36 im2col rows.
    Rng rng(99);
    nn::Mlp(64, 32, 10, rng);
    nn::Mlp(32, 16, 10, rng);
    registry.add_graph(
        "cnn", graph::cnn_graph(8, 8, graph::edge_kernel_bank(4), 3, 2,
                                random_signed(36, 16, rng),
                                std::vector<double>(16, 0.0),
                                random_signed(16, 10, rng),
                                std::vector<double>(10, 0.0)));
  }

  runtime::Accelerator accelerator;
  serve::ModelRegistry registry;
};

std::vector<serve::TenantConfig> batch_tenants(const std::string& workload) {
  const std::string model = batch_model(workload);
  const std::size_t requests = batch_requests(workload);
  if (is_drift(workload)) {
    return {{.name = "t", .model = model, .rate = 100e6, .requests = requests}};
  }
  // Three tenants, 1e8 req/s in total: about half the fleet's modeled
  // capacity on this model.
  const std::size_t a = requests / 2, b = requests * 3 / 10;
  return {{.name = "acme", .model = model, .rate = 50e6, .requests = a},
          {.name = "globex", .model = model, .rate = 30e6, .requests = b},
          {.name = "initech",
           .model = model,
           .rate = 20e6,
           .requests = requests - a - b}};
}

serve::BatchPolicy batch_policy(const std::string& workload) {
  if (!is_drift(workload)) return {.max_batch = 32, .max_wait = 50e-9};
  return {.max_batch = 8,
          .max_wait = 20e-9,
          .probe_period = 30e-9,
          .estimated_drift_threshold = 0.10,
          .evict_on_fault = true,
          .recalibrate_on_fault = true};
}

/// Fixed fault process of serve_drift (part of the workload, not the load):
/// about 7 strikes over the default load's 5.1 us.
std::vector<runtime::FaultEvent> drift_faults() {
  return runtime::poisson_fault_schedule(1.5e6, 5e-6, 8, 905);
}

/// Conditions each tenant's Poisson stream on its nominal length
/// requests / rate: the tenant's arrivals are rescaled so its last one
/// lands exactly there.  Given the n-th arrival time, the earlier arrivals
/// of a Poisson process are uniform order statistics below it, so this is
/// the same process conditioned on its length.  It removes the 1/sqrt(n)
/// seed-to-seed spread of the load's length from the modeled throughput.
/// Ids are renumbered in the merged arrival order.
void condition_on_length(std::vector<serve::Request>& load,
                         const std::vector<serve::TenantConfig>& tenants) {
  for (const serve::TenantConfig& tenant : tenants) {
    double last = 0.0;
    for (const serve::Request& r : load) {
      if (r.tenant == tenant.name) last = std::max(last, r.arrival);
    }
    const double scale =
        static_cast<double>(tenant.requests) / tenant.rate / last;
    for (serve::Request& r : load) {
      if (r.tenant == tenant.name) r.arrival *= scale;
    }
  }
  std::stable_sort(load.begin(), load.end(),
                   [](const serve::Request& a, const serve::Request& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < load.size(); ++i) load[i].id = i;
}

struct BatchDeployment {
  BatchDeployment(const std::string& workload, std::size_t threads,
                  std::uint64_t seed)
      : fleet(workload, threads, true), server(fleet.registry) {
    const std::vector<serve::TenantConfig> tenants = batch_tenants(workload);
    load = serve::LoadGenerator(tenants, seed).generate(fleet.registry);
    condition_on_length(load, tenants);
    if (is_drift(workload)) server.set_fault_schedule(drift_faults());
  }

  BatchFleet fleet;
  serve::Server server;
  std::vector<serve::Request> load;
};

/// One step of a served run that changes the fleet's state or uses it, at
/// the modeled instant the run took it.  The server advances the fleet's
/// drift clock exactly at these instants, so replaying them in order
/// reproduces the run's detuning, faults, evictions and re-locks.
struct FleetEvent {
  enum class Kind { kProbe, kFault, kEvict, kReadmit, kRecalibrate, kBatch };
  Kind kind = Kind::kBatch;
  double time = 0.0;
  std::size_t core = 0;  ///< struck, evicted or readmitted core
};

/// The fleet events of a run, in the order the run took them, read from
/// the serving track of its trace.
std::vector<FleetEvent> fleet_events(const telemetry::Tracer& tracer) {
  static const std::map<std::string, FleetEvent::Kind> kinds = {
      {"probe", FleetEvent::Kind::kProbe},
      {"fault_injected", FleetEvent::Kind::kFault},
      {"fault_cleared", FleetEvent::Kind::kFault},
      {"core_evicted", FleetEvent::Kind::kEvict},
      {"core_readmitted", FleetEvent::Kind::kReadmit},
      {"recalibrate", FleetEvent::Kind::kRecalibrate},
      {"batch", FleetEvent::Kind::kBatch}};
  std::vector<FleetEvent> out;
  for (const telemetry::TraceEvent& e : tracer.events()) {
    const auto kind = kinds.find(e.name);
    if (e.tid != telemetry::track::kServe || kind == kinds.end()) continue;
    FleetEvent event{.kind = kind->second, .time = e.ts};
    for (const auto& [key, value] : e.args) {
      if (key == "core") event.core = std::stoul(value);
    }
    out.push_back(event);
  }
  return out;
}

/// One workload's deployment, its last report, and the measurements and
/// checks the run protocols make on them.
class Workload {
 public:
  Workload(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  /// Builds the fleet (per-core calibration), registers and compiles the
  /// model, and generates the load — the timed set-up.  Needs no current
  /// deployment (see release).
  void setup(std::size_t threads) {
    timeline_.clear();
    d_ = std::make_unique<BatchDeployment>(workload_, threads, seed_);
  }
  /// Destroys the current deployment, so the next set-up's timing holds no
  /// teardown.
  void release() { d_.reset(); }
  /// Serves the load once; returns the requests served.
  std::size_t serve() {
    report_ = d_->server.run(d_->load, batch_policy(workload_));
    return report_.completed;
  }
  /// Fingerprint of the last run's report (see fingerprint above).
  std::string fingerprint(bool energy) const {
    return hostbench::fingerprint(report_, energy);
  }
  runtime::Accelerator& accelerator() {
    return d_->fleet.accelerator;
  }
  /// Attaches a metrics registry to the serving path (nullptr detaches).
  void attach(telemetry::MetricsRegistry* metrics) {
    d_->server.set_metrics(metrics);
  }
  /// Requests one run offers, and those the last run refused or shed.
  std::size_t offered() const { return d_->load.size(); }
  std::size_t refused() const {
    return d_->load.size() - report_.completed;
  }

  /// Modeled end-to-end metrics of the last run, from its report alone.
  void modeled(Result& result) const {
    std::vector<double> total;
    for (const serve::RequestRecord& q : report_.requests) {
      total.push_back(q.total());
    }
    latency_metrics(result, total);
    result.metrics.push_back(
        {"modeled_items_per_s", report_.throughput(), "1/s"});
    result.metrics.push_back(
        {"modeled_energy_per_item_j", report_.energy_per_request(), "J"});
  }

  /// Accuracy of the last run and the workload's output checks (fleets
  /// they build use `threads`); returns the requests failing a check.
  std::size_t check(Result& result, std::size_t threads) {
    // Argmax agreement of every served prediction with the float reference.
    const std::string model = batch_model(workload_);
    std::vector<std::size_t> all(d_->load.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const std::vector<std::size_t> want = nn::argmax_rows(
        d_->fleet.registry.reference_batch(model, load_inputs(all)));
    std::size_t matches = 0;
    for (const serve::RequestRecord& q : report_.requests) {
      if (q.predicted == want[q.id]) ++matches;
    }
    result.metrics.push_back({"accuracy",
                              static_cast<double>(matches) /
                                  static_cast<double>(report_.completed),
                              "ratio"});
    result.notes.push_back(format(
        "accuracy: %.0f of %.0f served predictions match the float reference",
        static_cast<double>(matches),
        static_cast<double>(report_.completed)));

    // A sample of served batches rerun on a fresh fast-path fleet and on a
    // physics-oracle (fast_path = false) fleet of the same config, each
    // advanced to the batch's dispatch instant: logits must match bit for
    // bit.  On the drift-free fleet the rerun must also reproduce every
    // served prediction.
    BatchFleet fast(workload_, threads, true);
    BatchFleet oracle(workload_, threads, false);
    const bool reproducible = !fast.accelerator.drift_enabled();
    const std::vector<std::vector<std::size_t>> members = batch_members();
    std::vector<std::size_t> sample;
    for (std::size_t k = 0; k < kFastPathSamples; ++k) {
      sample.push_back(k * (members.size() - 1) / (kFastPathSamples - 1));
    }
    sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
    std::size_t failed = 0, rows = 0;
    for (std::size_t b : sample) {
      const double t = report_.batches[b].dispatch;
      fast.accelerator.advance_to(t);
      oracle.accelerator.advance_to(t);
      const Matrix x = batch_inputs(members[b]);
      const Matrix y = graph::run(fast.registry.compiled(model),
                                  fast.registry.decode_backend(), x);
      const Matrix y_oracle = graph::run(oracle.registry.compiled(model),
                                         oracle.registry.decode_backend(), x);
      const bool ok = bit_identical(y, y_oracle) &&
                      (!reproducible || predictions_match(y, members[b]));
      rows += members[b].size();
      if (!ok) failed += members[b].size();
    }
    result.notes.push_back(
        format("check: %.0f sampled batches (%.0f requests) rerun on the "
               "physics oracle match bit for bit",
               static_cast<double>(sample.size()),
               static_cast<double>(rows)) +
        (failed == 0 ? " (yes)" : " (NO)") +
        (reproducible ? ", served predictions reproduced" : ""));
    return failed;
  }

  /// Conservation of the last report's tenant rows.
  bool conserves() const { return tenant_sums_match(report_); }

  /// Rebuilds the deployment at `threads` host threads, serves once, and
  /// returns the report fingerprint (the set-up is discarded afterwards).
  std::string fingerprint_at(std::size_t threads) {
    Workload other(workload_, seed_);
    other.setup(threads);
    other.serve();
    return other.fingerprint(true);
  }

  /// Per-layer metrics of the serve layer from the last report.
  std::vector<Metric> serve_layer() const {
    return {
        {"serve.dispatches", static_cast<double>(report_.dispatched_batches),
         "count"},
        {"serve.mean_batch", report_.mean_batch(), "items"},
        {"serve.passes", static_cast<double>(report_.passes), "count"},
        {"serve.warm_pass_ratio", report_.warm_fraction(), "ratio"},
        {"runtime.recalibrations",
         static_cast<double>(report_.recalibrations), "count"},
        {"fleet.probes", static_cast<double>(report_.probes), "count"},
        {"fleet.faults", static_cast<double>(report_.faults), "count"},
    };
  }

  /// Replays the last run's graph calls through a timing backend.
  Replay replay() {
    // Every served batch through graph::run on the fleet, from the state a
    // run starts in, with the run's own fleet events replayed between them
    // outside the timed calls: drift advances to the same instants, the
    // fault schedule's strikes with their self-tests, evictions,
    // readmissions and re-locks.  The replay thus sees the run's detuning,
    // active cores and calibration memo, and must reproduce every served
    // prediction.  The event order comes from one traced run.
    if (timeline_.empty()) {
      telemetry::Tracer tracer;
      d_->server.set_tracer(&tracer);
      serve();
      d_->server.set_tracer(nullptr);
      timeline_ = fleet_events(tracer);
    }
    runtime::Accelerator& fleet = d_->fleet.accelerator;
    fleet.reset_faults();
    fleet.reset_drift();
    const std::vector<runtime::FaultEvent> faults =
        is_drift(workload_) ? drift_faults()
                            : std::vector<runtime::FaultEvent>{};
    TimingBackend timing(d_->fleet.registry.decode_backend());
    const graph::CompiledGraph& compiled =
        d_->fleet.registry.compiled(batch_model(workload_));
    const std::vector<std::vector<std::size_t>> members = batch_members();
    std::vector<double> calls;
    double advance = 0.0;
    std::size_t failed = 0, next_fault = 0, b = 0;
    for (const FleetEvent& e : timeline_) {
      Clock::time_point start = Clock::now();
      fleet.advance_to(e.time);
      advance += seconds_since(start);
      switch (e.kind) {
        case FleetEvent::Kind::kProbe:  // reads the fleet, changes nothing
          break;
        case FleetEvent::Kind::kFault:
          fleet.inject(faults.at(next_fault++));
          fleet.run_self_test(e.core);
          break;
        case FleetEvent::Kind::kEvict:
          fleet.evict_core(e.core);
          break;
        case FleetEvent::Kind::kReadmit:
          fleet.readmit_core(e.core);
          break;
        case FleetEvent::Kind::kRecalibrate:
          fleet.recalibrate();
          break;
        case FleetEvent::Kind::kBatch: {
          const Matrix x = batch_inputs(members.at(b));
          start = Clock::now();
          const Matrix y = graph::run(compiled, timing, x);
          calls.push_back(seconds_since(start));
          if (!predictions_match(y, members[b])) failed += members[b].size();
          ++b;
          break;
        }
      }
    }
    if (b != members.size()) failed = d_->load.size();
    return replay_result(calls, advance, timing, failed);
  }

 private:
  /// True when the argmax of every row of `logits` is the prediction the
  /// run served to the corresponding batch member.
  bool predictions_match(const Matrix& logits,
                         const std::vector<std::size_t>& records) const {
    const std::vector<std::size_t> predicted = nn::argmax_rows(logits);
    for (std::size_t r = 0; r < records.size(); ++r) {
      if (predicted[r] != report_.requests[records[r]].predicted) return false;
    }
    return true;
  }

  /// Indices into report_.requests of each batch's members, by batch
  /// position in report_.batches (dispatch order).
  std::vector<std::vector<std::size_t>> batch_members() const {
    std::map<std::size_t, std::size_t> position;
    for (std::size_t b = 0; b < report_.batches.size(); ++b) {
      position[report_.batches[b].id] = b;
    }
    std::vector<std::vector<std::size_t>> members(report_.batches.size());
    for (std::size_t r = 0; r < report_.requests.size(); ++r) {
      members[position.at(report_.requests[r].batch)].push_back(r);
    }
    return members;
  }

  /// Input rows of the given records, in order.
  Matrix batch_inputs(const std::vector<std::size_t>& records) const {
    std::vector<std::size_t> ids;
    for (std::size_t r : records) ids.push_back(report_.requests[r].id);
    return load_inputs(ids);
  }

  /// Input rows of the given request ids (load ids are load positions).
  Matrix load_inputs(const std::vector<std::size_t>& ids) const {
    const std::size_t width = d_->load.front().input.size();
    Matrix x(ids.size(), width);
    for (std::size_t r = 0; r < ids.size(); ++r) {
      const std::vector<double>& input = d_->load.at(ids[r]).input;
      std::copy(input.begin(), input.end(), x.data().begin() + r * width);
    }
    return x;
  }

  std::string workload_;
  std::uint64_t seed_;
  std::unique_ptr<BatchDeployment> d_;
  serve::ServeReport report_;
  std::vector<FleetEvent> timeline_;  ///< of the deployment's runs
};

// --- micro-loads of single layers on the workload's own fleet -------------------

std::vector<Metric> micro_loads(runtime::Accelerator& fleet) {
  // From the state every run starts in: no injected faults, drift rewound.
  fleet.reset_faults();
  fleet.reset_drift();
  std::vector<Metric> out;
  core::TensorCore& core = fleet.core(0);
  Rng rng(2024);

  // Weight load: pSRAM write -> ring rebias -> chain build on tiles the
  // core has not seen (a cold reload), then the same tiles again,
  // which the core's calibration memo (64 entries) recalls instead of
  // rebuilding the chain (resident serving weights).
  constexpr std::size_t kTiles = 64;
  std::vector<Matrix> tiles;
  for (std::size_t i = 0; i < kTiles; ++i) {
    Matrix w(core.rows(), core.cols());
    for (double& v : w.data()) v = rng.uniform();
    tiles.push_back(std::move(w));
  }
  const auto load = [&](std::size_t i) {
    core.load_weights_normalized(tiles[i]);
  };
  out.push_back({"core.load_weights_us", 1e6 * time_median(kTiles, load),
                 "us"});
  out.push_back({"core.load_weights_memo_us",
                 1e6 * time_median(kTiles, load), "us"});

  // Tile-pass replay of the analog multiply over a batch of samples.
  constexpr std::size_t kSamples = 256;
  Matrix inputs(kSamples, core.cols());
  for (double& v : inputs.data()) v = rng.uniform();
  const double replay_s =
      time_median(9, [&](std::size_t) { core.multiply_analog_batch(inputs); });
  out.push_back({"core.replay_us_per_sample",
                 1e6 * replay_s / static_cast<double>(kSamples), "us"});

  // eoADC conversion across its input range.
  constexpr std::size_t kConversions = 4096;
  std::vector<double> volts(kConversions);
  const double full_scale = core.config().adc.v_full_scale;
  for (double& v : volts) v = rng.uniform(0.0, full_scale);
  core::EoAdc& adc = core.adc(0);
  const double adc_s = time_median(9, [&](std::size_t) {
    for (double v : volts) adc.code(v);
  });
  out.push_back({"core.eoadc_ns_per_conversion",
                 1e9 * adc_s / static_cast<double>(kConversions), "ns"});

  // Empty parallel_for at a dispatch's fan-out: one shard per active core.
  runtime::ThreadPool& pool = fleet.pool();
  const double pool_s = time_median(201, [&](std::size_t) {
    pool.parallel_for(0, fleet.active_core_count(), [](std::size_t) {});
  });
  out.push_back({"runtime.pool_parallel_for_us", 1e6 * pool_s, "us"});

  // Fleet-wide recalibration (heater re-lock + fast-path re-freeze).
  const double recal_s =
      time_median(5, [&](std::size_t) { fleet.recalibrate(); });
  out.push_back({"runtime.recalibrate_us", 1e6 * recal_s, "us"});

  // Energy ledger booking, as the pSRAM write path calls it.
  constexpr std::size_t kBookings = 100000;
  circuit::EnergyLedger ledger;
  const double ledger_s = time_median(9, [&](std::size_t) {
    for (std::size_t i = 0; i < kBookings; ++i) {
      ledger.add_energy("psram_write", 1e-15);
    }
  });
  out.push_back({"circuit.ledger_add_ns",
                 1e9 * ledger_s / static_cast<double>(kBookings), "ns"});
  return out;
}

const Metric& find(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return m;
  throw std::logic_error("missing metric " + name);
}

// --- the two run protocols -------------------------------------------------------

Result untraced(Workload& w, const Options& o) {
  Result result;
  // Set-ups are timed in two halves, before the reference run and after
  // the timed runs, so that they sample the host's speed across the whole
  // run, as the timed runs do.  The second half leaves a fresh deployment
  // of the same seed for the checks.
  std::vector<double> setup_times;
  const auto time_setups = [&](double seconds) {
    const Clock::time_point window = Clock::now();
    do {
      w.release();
      const Clock::time_point start = Clock::now();
      w.setup(kThreads);
      setup_times.push_back(seconds_since(start));
    } while (seconds_since(window) < seconds);
  };
  const double setup_half = std::min(kSetupSeconds, o.seconds) / 2.0;
  time_setups(setup_half);

  w.serve();  // reference run: fills caches, provides the modeled report
  const std::string reference = w.fingerprint(true);
  const std::string outputs = w.fingerprint(false);
  result.attempted = w.offered();
  std::size_t failed = w.refused();
  bool run_level_ok = w.conserves();
  result.notes.push_back(std::string("check: tenant rows sum to the report "
                                     "totals") +
                         (run_level_ok ? " (yes)" : " (NO)"));
  w.modeled(result);

  std::vector<double> rates;
  bool repeatable = true;
  const Clock::time_point window = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    const std::size_t items = w.serve();
    rates.push_back(static_cast<double>(items) / seconds_since(start));
    repeatable = repeatable && w.fingerprint(false) == outputs;
  } while (seconds_since(window) < o.seconds);
  // Read before the checks below build fleets of their own.
  const double peak_rss = peak_rss_mib();
  result.notes.push_back(
      format("sim_items_per_host_s: median of %.0f timed runs (min %.6g, "
             "max %.6g)",
             static_cast<double>(rates.size()),
             *std::min_element(rates.begin(), rates.end()),
             *std::max_element(rates.begin(), rates.end())));
  result.notes.push_back(std::string("check: every timed run reproduces the "
                                     "reference outputs and modeled times") +
                         (repeatable ? " (yes)" : " (NO)"));
  run_level_ok = run_level_ok && repeatable;

  time_setups(setup_half);
  result.notes.push_back(
      format("setup_s: median of %.0f set-ups",
             static_cast<double>(setup_times.size())));

  // Every timed run reproduced the reference outputs, so the last run's
  // report stands in for it.
  failed += w.check(result, kThreads);

  // The modeled report is a pure function of (load, policy, fleet config).
  const bool thread_stable = w.fingerprint_at(1) == reference;
  result.notes.push_back(
      format("check: modeled report identical at %.0f and 1 host threads",
             static_cast<double>(kThreads)) +
      (thread_stable ? " (yes)" : " (NO)"));
  run_level_ok = run_level_ok && thread_stable;

  result.failed = run_level_ok ? std::min(failed, result.attempted)
                               : result.attempted;
  result.correct = result.failed == 0;

  result.metrics.insert(result.metrics.begin(),
                        {{"sim_items_per_host_s", median(rates), "1/s"},
                         {"setup_s", median(setup_times), "s"},
                         {"host_peak_rss_mib", peak_rss, "MiB"}});
  return result;
}

Result traced(Workload& w, const Options& o) {
  Result result;
  w.setup(kThreads);
  w.serve();  // reference run
  const std::string reference = w.fingerprint(false);
  result.attempted = w.offered();
  std::size_t failed = w.refused();
  bool run_level_ok = w.conserves();

  // Each round: an untraced run, a metrics-attached run, and a replay of
  // the run's graph calls, so all three see the same warm state and
  // the same stretch of host noise.  Medians over rounds; the replay
  // metrics are those of the round with the median child time.
  std::vector<double> plain, with_metrics;
  std::unique_ptr<telemetry::MetricsRegistry> metrics;
  double conversions = 0.0;  // eoADC conversions of one run
  std::vector<Replay> replays;
  const Clock::time_point window = Clock::now();
  do {
    Clock::time_point start = Clock::now();
    w.serve();
    plain.push_back(seconds_since(start));
    run_level_ok = run_level_ok && w.fingerprint(false) == reference;

    metrics = std::make_unique<telemetry::MetricsRegistry>();
    const double adc_before = adc_conversions(w.accelerator());
    w.attach(metrics.get());
    start = Clock::now();
    w.serve();
    with_metrics.push_back(seconds_since(start));
    w.attach(nullptr);
    conversions = adc_conversions(w.accelerator()) - adc_before;
    run_level_ok = run_level_ok && w.fingerprint(false) == reference;

    // The replays double as the traced run's output checks.
    replays.push_back(w.replay());
    failed = std::max(failed, w.refused() + replays.back().failed);
  } while (seconds_since(window) < o.seconds);
  std::sort(replays.begin(), replays.end(),
            [](const Replay& a, const Replay& b) {
              return a.child_s < b.child_s;
            });
  const Replay& replay = replays[(replays.size() - 1) / 2];  // nearest-rank
  const double run_s = median(with_metrics);
  const double child_s = replay.child_s;
  const std::vector<Metric> micro = micro_loads(w.accelerator());
  result.notes.push_back(
      format("timing: replayed child time %.6g s is within serve.run_s "
             "%.6g s x %.2f",
             child_s, run_s, 1.0 + kChildSlack) +
      (child_s <= run_s * (1.0 + kChildSlack) ? " (yes)" : " (NO)"));

  std::vector<Metric>& out = result.metrics;
  out.push_back({"serve.run_s", run_s, "s"});
  out.push_back({"serve.self_s", run_s - child_s, "s"});
  out.push_back({"serve.traced_runs", static_cast<double>(with_metrics.size()),
                 "count"});
  for (const Metric& metric : w.serve_layer()) out.push_back(metric);
  for (const Metric& metric : replay.metrics) out.push_back(metric);
  telemetry::MetricsRegistry& m = *metrics;
  const double hits = counter(m, "fleet_plan_cache_hits_total");
  const double lookups = hits + counter(m, "fleet_plan_cache_misses_total");
  const double reloads = counter(m, "fleet_psram_reloads_total");
  out.push_back(
      {"runtime.tile_passes", counter(m, "fleet_tile_passes_total"), "count"});
  out.push_back({"runtime.psram_reloads", reloads, "count"});
  out.push_back(
      {"runtime.adc_samples", counter(m, "fleet_adc_samples_total"), "count"});
  out.push_back({"runtime.plan_lookups", lookups, "count"});
  out.push_back({"runtime.plan_cache_hit_ratio",
                 lookups > 0.0 ? hits / lookups : 0.0, "ratio"});
  for (const Metric& metric : micro) out.push_back(metric);
  // Shares of the replayed matmul time, from counts x micro-load cost.
  // Loads are costed at the memo-recall price, so that share is a lower
  // bound (a chain rebuild costs several times more).
  const double matmul_s = find(out, "runtime.matmul_s").value;
  out.push_back({"core.eoadc_conversions", conversions, "count"});
  out.push_back({"core.load_share_est",
                 reloads * 1e-6 *
                     find(out, "core.load_weights_memo_us").value / matmul_s,
                 "ratio"});
  out.push_back({"core.eoadc_share_est",
                 conversions * 1e-9 *
                     find(out, "core.eoadc_ns_per_conversion").value /
                     matmul_s,
                 "ratio"});
  out.push_back({"trace_overhead_ratio", run_s / median(plain), "ratio"});

  result.failed = run_level_ok ? std::min(failed, result.attempted)
                               : result.attempted;
  result.correct = result.failed == 0;
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"serve_cnn", "serve_drift"};
  return names;
}

Result run(const Options& options) {
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  Workload workload(options.workload, options.seed);
  return options.trace ? traced(workload, options)
                       : untraced(workload, options);
}

std::vector<serve::Request> serve_load(const std::string& workload,
                                       std::uint64_t seed) {
  return BatchDeployment(workload, 1, seed).load;
}

}  // namespace hostbench
