// fastiov_e2e: one repetition of one end-to-end benchmark workload.
//
// Drives libfastiov only through its public entry points, timing each call
// from outside with a SpanRecorder, and prints one JSON line: host seconds,
// simulated-time metrics, correctness checks, the result digest and — with
// --trace — the per-layer numbers. run.py runs this binary once per rep in a
// fresh process, so the peak RSS it reads back is the rep's own, and
// aggregates the reps. README.md describes the workloads and metrics.
//
//   fastiov_e2e --workload paper-burst --seed 1 [--trace] [--trace-out f.json]
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/spans.h"
#include "src/cli/flags.h"
#include "src/cluster/cluster.h"
#include "src/experiments/churn_experiment.h"
#include "src/experiments/host_cell.h"
#include "src/experiments/result_json.h"
#include "src/stats/digest.h"
#include "src/stats/json_writer.h"
#include "src/stats/timeline.h"

namespace fastiov::e2e {
namespace {

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// The paper's closed burst (§6.1) and the churn wave size; both fit the
// default host's 256 VFs.
constexpr int kPaperConcurrency = 200;
constexpr int kChurnPerWave = 200;

// One rep's sizes. Full sizes take roughly 1-3 host seconds per rep on a
// 4-core x86 box; --quick shrinks every workload for the smoke test.
struct Sizes {
  int paper_seeds = 0;            // seeds S..S+k-1 per Fig. 11 baseline
  int scale_containers = 0;       // one host sized to exactly this many VFs
  int churn_waves = 0;
  int cluster_hosts = 0;
  uint64_t cluster_launches = 0;  // per run
  int cluster_runs = 0;           // trace seeds S..S+k-1
};
constexpr Sizes kFullSizes{4, 2000, 25, 16, 2500, 4};
constexpr Sizes kQuickSizes{1, 300, 3, 4, 400, 1};

const std::array<const char*, 6> kSteps = {kStepCgroup,   kStepDmaRam,  kStepVirtioFs,
                                           kStepDmaImage, kStepVfioDev, kStepVfDriver};
// The five largest wait causes of the FastIOV p99 tail at 200 containers.
const std::array<const char*, 5> kBlockedCauses = {
    "lock-wait:nic.mailbox", "resource-wait:host.cpu", "lock-wait:host.cgroup",
    "lock-wait:host.virtiofs", "lock-wait:nic.pf-driver"};

// The baselines of §6.1, in Fig. 11 order.
std::vector<StackConfig> Fig11Baselines() {
  return {StackConfig::NoNetwork(),         StackConfig::Vanilla(),
          StackConfig::FastIov(),           StackConfig::FastIovWithout('L'),
          StackConfig::FastIovWithout('A'), StackConfig::FastIovWithout('S'),
          StackConfig::FastIovWithout('D'), StackConfig::PreZero(0.1),
          StackConfig::PreZero(0.5),        StackConfig::PreZero(1.0)};
}

// Per-layer sums over the hosts of a traced rep; LayerMetrics normalises them.
struct LayerSums {
  // FastIOV hosts whose observability section was read.
  int observed_hosts = 0;
  std::map<std::string, double> step_mean_s;
  std::map<std::string, double> step_p99_share;
  std::map<std::string, double> blocked_p99_share;
  double mailbox_wait_s = 0.0;
  double pf_driver_wait_s = 0.0;
  double iommu_mapped_pages = 0.0;
  // FastIOV launches and the memory work they caused (churn included).
  uint64_t launches = 0;
  uint64_t pages_zeroed = 0;
  uint64_t fault_zeroed = 0;
  uint64_t background_zeroed = 0;
  uint64_t local_allocs = 0;
  uint64_t remote_allocs = 0;
  uint64_t frames_reused = 0;
  // Vanilla hosts (paper-burst only).
  int vanilla_hosts = 0;
  double devset_contention = 0.0;
  double devset_wait_s = 0.0;
};

// Everything one rep reports besides its spans.
struct Rep {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t residue_reads = 0;
  uint64_t corruptions = 0;
  bool accounting_ok = true;
  Summary startup{Summary::kUnlimited};
  // Simulated seconds the launches took: summed per-host makespans for
  // independent hosts, summed wave makespans for churn, the cluster makespan.
  double sim_busy_s = 0.0;
  uint64_t events = 0;
  uint64_t result_bytes = 0;
  DigestOstream digest;
  LayerSums sums;
  std::map<std::string, double> cluster_layers;  // parallel_exec.* and cluster.*
  std::optional<double> paper_rel_err;
};

// Runs one host exactly as HostCell::RunStandalone does, each call timed.
ExperimentResult RunHost(const StackConfig& config, const ExperimentOptions& options,
                         SpanRecorder& spans) {
  HostCell cell(config, options);
  {
    ScopedSpan s(spans, "experiments.cell_begin");
    cell.CellBegin(nullptr);
  }
  try {
    ScopedSpan s(spans, "experiments.cell_execute");
    cell.ExecuteWindow(SimTime::Max());
  } catch (...) {
    cell.CellAbandon();
    throw;
  }
  {
    ScopedSpan s(spans, "experiments.cell_end");
    cell.CellEnd();
  }
  return cell.TakeResult();
}

double LockWaitMean(const ObservabilityHub& obs, const char* name) {
  const LockStats* lock = obs.lock_stats.Find(name);
  return lock == nullptr ? 0.0 : lock->wait_seconds().Mean();
}

// Folds one host's layer numbers into the sums. Only FastIOV and Vanilla
// hosts contribute; the other baselines are end-to-end load only.
void AddHostLayers(const ExperimentResult& r, LayerSums* sums) {
  if (r.config.name == "Vanilla") {
    ++sums->vanilla_hosts;
    sums->devset_contention += static_cast<double>(r.devset_lock_contention);
    if (r.observability != nullptr) {
      sums->devset_wait_s += LockWaitMean(*r.observability, "vfio.devset.global");
    }
    return;
  }
  if (r.config.name != "FastIOV") {
    return;
  }
  sums->launches += r.timeline.NumContainers();
  sums->pages_zeroed += r.pages_zeroed;
  sums->fault_zeroed += r.fault_zeroed_pages;
  sums->background_zeroed += r.background_zeroed_pages;
  sums->local_allocs += r.local_allocations;
  sums->remote_allocs += r.remote_allocations;
  if (r.observability == nullptr) {
    return;
  }
  ++sums->observed_hosts;
  for (const char* step : kSteps) {
    sums->step_mean_s[step] += r.timeline.StepSummary(step).Mean();
    sums->step_p99_share[step] += r.timeline.StepShareOfP99(step);
  }
  if (r.blocked_time.has_value()) {
    for (const BlockedTimeRow& row : r.blocked_time->rows) {
      sums->blocked_p99_share[row.cause] += row.share_of_p99_tail;
    }
  }
  const ObservabilityHub& obs = *r.observability;
  sums->mailbox_wait_s += LockWaitMean(obs, "nic.mailbox");
  sums->pf_driver_wait_s += LockWaitMean(obs, "nic.pf-driver");
  sums->iommu_mapped_pages += obs.metrics.Gauge("iommu.mapped_pages");
}

// Accounts one finished host and streams its result document into the
// rep digest. The observability section is dropped first: with it removed a
// traced host's document must be byte-identical to the untraced one.
void CollectHost(ExperimentResult& r, uint64_t attempted, bool traced, SpanRecorder& spans,
                 Rep* rep) {
  {
    ScopedSpan s(spans, "bench.collect");
    SimTime makespan = SimTime::Zero();
    uint64_t ready = 0;
    for (const ContainerTimeline& lane : r.timeline.containers()) {
      if (lane.has_ready) {
        ++ready;
        makespan = std::max(makespan, lane.ready);
      }
    }
    rep->attempted += attempted;
    rep->completed += ready;
    rep->residue_reads += r.residue_reads;
    rep->corruptions += r.corruptions;
    rep->events += r.events_processed;
    rep->startup.Merge(r.startup);
    rep->sim_busy_s += makespan.ToSecondsF();
    if (traced) {
      AddHostLayers(r, &rep->sums);
    }
    r.observability.reset();
    r.blocked_time.reset();
  }
  ScopedSpan s(spans, "stats.result_json");
  const size_t before = rep->digest.bytes();
  WriteExperimentResultJson(r, rep->digest);
  rep->result_bytes += rep->digest.bytes() - before;
}

ExperimentOptions HostOptions(uint64_t seed, int concurrency, bool traced) {
  ExperimentOptions o;
  o.seed = seed;
  o.concurrency = concurrency;
  o.collect_metrics = traced;
  return o;
}

// Mean |sim - paper| / paper over the nine calibration targets printed by
// tools/calibrate.cpp. The cost model was tuned to these, so this is fit
// error, not validation.
double PaperRelErr(const std::map<std::string, std::array<double, 3>>& mean_p99_vf) {
  auto mean = [&](const char* name) { return mean_p99_vf.at(name)[0]; };
  const auto& vanilla = mean_p99_vf.at("Vanilla");
  const auto& fast = mean_p99_vf.at("FastIOV");
  auto reduction = [&](double v, double base) { return 1.0 - v / base; };
  const std::vector<std::pair<double, double>> sim_vs_paper = {
      {vanilla[0], 16.2},
      {reduction(fast[0], vanilla[0]), 0.657},
      {reduction(fast[1], vanilla[1]), 0.754},
      {reduction(fast[2], vanilla[2]), 0.961},
      {reduction(mean("FastIOV-L"), vanilla[0]), 0.218},
      {reduction(mean("FastIOV-A"), vanilla[0]), 0.403},
      {reduction(mean("FastIOV-S"), vanilla[0]), 0.582},
      {reduction(mean("FastIOV-D"), vanilla[0]), 0.437},
      {reduction(fast[0], mean("Pre100")), 0.564},
  };
  double sum = 0.0;
  for (const auto& [sim, paper] : sim_vs_paper) {
    sum += std::abs(sim - paper) / paper;
  }
  return sum / static_cast<double>(sim_vs_paper.size());
}

// paper-burst: every Fig. 11 baseline, a closed burst of 200 on the paper
// host, seeds S..S+k-1, hosts one at a time.
void RunPaperBurst(uint64_t seed, const Sizes& sizes, bool traced, SpanRecorder& spans,
                   Rep* rep) {
  std::map<std::string, std::array<double, 3>> sums;
  for (int k = 0; k < sizes.paper_seeds; ++k) {
    for (const StackConfig& config : Fig11Baselines()) {
      ScopedSpan cell(spans, "cell");
      ExperimentResult r = RunHost(
          config, HostOptions(seed + static_cast<uint64_t>(k), kPaperConcurrency, traced),
          spans);
      std::array<double, 3>& s = sums[config.name];
      s[0] += r.startup.Mean() / sizes.paper_seeds;
      s[1] += r.startup.Percentile(99.0) / sizes.paper_seeds;
      s[2] += r.vf_related.Mean() / sizes.paper_seeds;
      CollectHost(r, kPaperConcurrency, traced, spans, rep);
    }
  }
  rep->paper_rel_err = PaperRelErr(sums);
}

// scale-burst: one FastIOV host grown to N VFs and N GiB, a closed burst of N.
void RunScaleBurst(uint64_t seed, const Sizes& sizes, bool traced, SpanRecorder& spans,
                   Rep* rep) {
  const int n = sizes.scale_containers;
  ExperimentOptions options = HostOptions(seed, n, traced);
  options.host.num_vfs = n;
  options.host.memory_bytes = static_cast<uint64_t>(n) * kGiB;
  ScopedSpan cell(spans, "cell");
  ExperimentResult r = RunHost(StackConfig::FastIov(), options, spans);
  CollectHost(r, static_cast<uint64_t>(n), traced, spans, rep);
}

// churn-reuse: FastIOV waves of 200 start -> run -> stop on the paper host,
// each wave reusing the previous wave's dirty frames.
void RunChurnReuse(uint64_t seed, const Sizes& sizes, bool traced, SpanRecorder& spans,
                   Rep* rep) {
  const StackConfig config = StackConfig::FastIov();
  // RunChurnExperiment builds its host internally, so set-up is timed on an
  // identical host built and dropped beforehand.
  {
    ScopedSpan cell(spans, "cell");
    HostCell probe(config, HostOptions(seed, kChurnPerWave, false));
    {
      ScopedSpan s(spans, "experiments.cell_begin");
      probe.CellBegin(nullptr);
    }
    probe.CellAbandon();
  }
  ChurnOptions options;
  options.waves = sizes.churn_waves;
  options.concurrency_per_wave = kChurnPerWave;
  options.seed = seed;
  ChurnResult result;
  {
    ScopedSpan s(spans, "experiments.churn_run");
    result = RunChurnExperiment(config, options);
  }
  ScopedSpan s(spans, "bench.collect");
  const uint64_t launches = static_cast<uint64_t>(options.waves) * kChurnPerWave;
  rep->attempted += launches;
  rep->completed += result.all_startup.Count();
  rep->residue_reads += result.residue_reads;
  rep->corruptions += result.corruptions;
  rep->startup.Merge(result.all_startup);
  // Waves start as a burst at their own t=0 (plus the dispatch stagger), so
  // the slowest startup bounds each wave's start phase.
  JsonWriter json(rep->digest);
  json.BeginObject().Key("waves").BeginArray();
  for (const Summary& wave : result.wave_startup) {
    rep->sim_busy_s += wave.Max();
    json.BeginObject()
        .KV("count", static_cast<uint64_t>(wave.Count()))
        .KV("mean", wave.Mean())
        .KV("p99", wave.Percentile(99.0))
        .KV("max", wave.Max())
        .EndObject();
  }
  json.EndArray()
      .KV("residue_reads", result.residue_reads)
      .KV("corruptions", result.corruptions)
      .KV("pages_zeroed", result.pages_zeroed)
      .KV("frames_reused", result.frames_reused)
      .EndObject();
  if (traced) {
    rep->sums.launches += launches;
    rep->sums.pages_zeroed += result.pages_zeroed;
    rep->sums.frames_reused += result.frames_reused;
  }
}

// One cluster run. Counts are summed into the rep's layer values; rates,
// means and percentiles are weighted by `weight` so the rep reports their
// mean over runs.
void RunCluster(const ClusterOptions& options, double weight, SpanRecorder& spans, Rep* rep) {
  // The runner generates and places the trace itself; doing both here first
  // times that set-up from outside.
  std::vector<ClusterLaunch> trace;
  {
    ScopedSpan s(spans, "cluster.trace_gen");
    trace = GenerateLaunchTrace(options.trace, options.seed);
  }
  ClusterPlacement placement;
  {
    ScopedSpan s(spans, "cluster.place");
    placement = PlaceLaunches(trace, options.hosts, options.slots_per_host, options.policy);
  }
  ClusterResult result;
  {
    ScopedSpan s(spans, "cluster.run");
    result = RunClusterExperiment(options);
  }
  {
    ScopedSpan s(spans, "bench.collect");
    rep->attempted += result.launches;
    rep->completed += result.completed;
    rep->sim_busy_s += result.sim_makespan.ToSecondsF();
    rep->accounting_ok = rep->accounting_ok && result.launches == trace.size() &&
                         result.per_host_assigned == placement.per_host;
    for (ClusterHostOutcome& host : result.host_results) {
      const ClusterHostExtras& e = host.extras;
      rep->accounting_ok =
          rep->accounting_ok && e.completed + e.cp_rejected + e.aborted == e.assigned;
      rep->residue_reads += host.result.residue_reads;
      rep->corruptions += host.result.corruptions;
      rep->events += host.result.events_processed;
      rep->startup.Merge(host.result.startup);
      if (options.collect_metrics) {
        AddHostLayers(host.result, &rep->sums);
      }
      host.result.observability.reset();
      host.result.blocked_time.reset();
    }
    if (result.control_plane.has_value()) {
      rep->events += result.control_plane->events_processed;
    }
    if (options.collect_metrics) {
      const ParallelExecStats& x = result.exec;
      const double rounds = static_cast<double>(x.cell_rounds + x.cell_rounds_elided);
      const uint64_t fetches = result.registry_cache_hits + result.registry_cache_misses;
      auto& l = rep->cluster_layers;
      l["parallel_exec.windows"] += static_cast<double>(x.windows);
      l["parallel_exec.cell_rounds"] += static_cast<double>(x.cell_rounds);
      l["parallel_exec.elision_rate"] +=
          weight * (rounds > 0 ? static_cast<double>(x.cell_rounds_elided) / rounds : 0.0);
      l["parallel_exec.messages"] += static_cast<double>(x.messages_delivered);
      l["parallel_exec.mean_window_span_us"] += weight * x.mean_window_span_us;
      l["parallel_exec.barrier_wait_s"] += x.barrier_wait_seconds;
      l["parallel_exec.deliver_s"] += x.profile_deliver_seconds;
      l["parallel_exec.execute_s"] += x.profile_execute_seconds;
      l["parallel_exec.plan_s"] += x.profile_plan_seconds;
      if (result.control_plane.has_value()) {
        const ControlPlaneReport& cp = *result.control_plane;
        l["cluster.ipam_wait_p99_s"] += weight * cp.ipam.queue_wait.Percentile(99.0);
        l["cluster.cni_wait_p99_s"] += weight * cp.cni.queue_wait.Percentile(99.0);
        l["cluster.registry_wait_p99_s"] += weight * cp.registry.queue_wait.Percentile(99.0);
      }
      l["cluster.registry_hit_rate"] +=
          weight *
          (fetches > 0 ? static_cast<double>(result.registry_cache_hits) / fetches : 0.0);
      l["cluster.cp_rejected"] += static_cast<double>(result.cp_rejected);
      l["cluster.imbalance"] += weight * result.imbalance;
    }
  }
  ScopedSpan s(spans, "stats.cluster_digest");
  const std::string doc = ClusterDigest(result);
  rep->digest << doc;
  rep->result_bytes += doc.size();
}

// cluster-trace: 16 FastIOV hosts plus the control plane, least-loaded
// placement of an open-loop Poisson trace at 1200 launches/s, trace seeds
// S..S+k-1 run one after another. Every run's makespan is set by the ~80 s
// registry backlog of first image fetches, whose order the seed decides;
// pooling several seeds keeps the simulated metrics from swinging with it.
void RunClusterTrace(uint64_t seed, const Sizes& sizes, bool traced, SpanRecorder& spans,
                     Rep* rep) {
  ClusterOptions options;
  options.hosts = sizes.cluster_hosts;
  options.threads =
      std::min(2, static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  options.policy = ClusterSchedPolicy::kLeastLoaded;
  options.trace.launches = sizes.cluster_launches;
  options.trace.arrival_rate_per_s = 1200.0;
  options.rtt = Milliseconds(1);
  options.dwell = Seconds(2.0);
  options.collect_metrics = traced;
  options.profile_driver = traced;
  for (int k = 0; k < sizes.cluster_runs; ++k) {
    options.seed = seed + static_cast<uint64_t>(k);
    RunCluster(options, 1.0 / sizes.cluster_runs, spans, rep);
  }
}

// Every per-layer value of a traced rep except the span self times. Names
// match BENCHMARK.json; a layer the workload does not exercise reads 0.
std::map<std::string, double> LayerMetrics(const Rep& rep, double execute_s,
                                           double cluster_run_s) {
  const LayerSums& s = rep.sums;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto get = [](const std::map<std::string, double>& map, const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
  };
  const double hosts = s.observed_hosts;
  std::map<std::string, double> m;
  for (const char* name :
       {"parallel_exec.windows", "parallel_exec.cell_rounds", "parallel_exec.elision_rate",
        "parallel_exec.messages", "parallel_exec.mean_window_span_us",
        "parallel_exec.barrier_wait_s", "parallel_exec.deliver_s", "parallel_exec.execute_s",
        "parallel_exec.plan_s", "cluster.ipam_wait_p99_s", "cluster.cni_wait_p99_s",
        "cluster.registry_wait_p99_s", "cluster.registry_hit_rate", "cluster.cp_rejected",
        "cluster.imbalance"}) {
    m[name] = get(rep.cluster_layers, name);
  }
  m["stats.result_bytes"] = static_cast<double>(rep.result_bytes);
  m["simcore.events_per_launch"] = ratio(static_cast<double>(rep.events), rep.attempted);
  // Host ns per simulated event, over whichever call ran the event loop.
  m["simcore.ns_per_event"] = ratio((execute_s + cluster_run_s) * 1e9, rep.events);
  for (const char* step : kSteps) {
    const std::string key = std::string("container.step.") + step;
    m[key + ".mean_s"] = ratio(get(s.step_mean_s, step), hosts);
    m[key + ".p99_share"] = ratio(get(s.step_p99_share, step), hosts);
  }
  for (std::string cause : kBlockedCauses) {
    const double share = get(s.blocked_p99_share, cause);
    std::replace(cause.begin(), cause.end(), ':', '.');
    m["container.blocked." + cause + ".p99_share"] = ratio(share, hosts);
  }
  m["vfio.devset_lock_contention"] = ratio(s.devset_contention, s.vanilla_hosts);
  m["vfio.devset.global.wait_mean_s"] = ratio(s.devset_wait_s, s.vanilla_hosts);
  m["nic.mailbox.wait_mean_s"] = ratio(s.mailbox_wait_s, hosts);
  m["nic.pf-driver.wait_mean_s"] = ratio(s.pf_driver_wait_s, hosts);
  m["mem.pages_zeroed_per_launch"] =
      ratio(static_cast<double>(s.pages_zeroed), static_cast<double>(s.launches));
  m["mem.remote_alloc_frac"] = ratio(static_cast<double>(s.remote_allocs),
                                     static_cast<double>(s.local_allocs + s.remote_allocs));
  m["mem.frames_reused"] = static_cast<double>(s.frames_reused);
  m["fastiovd.fault_zeroed_pages"] = static_cast<double>(s.fault_zeroed);
  m["fastiovd.background_zeroed_pages"] = static_cast<double>(s.background_zeroed);
  m["fastiovd.lazy_frac"] = ratio(static_cast<double>(s.fault_zeroed),
                                  static_cast<double>(s.fault_zeroed + s.background_zeroed));
  m["iommu.mapped_pages"] = ratio(s.iommu_mapped_pages, hosts);
  return m;
}

using WorkloadFn = void (*)(uint64_t, const Sizes&, bool, SpanRecorder&, Rep*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"paper-burst", RunPaperBurst},
      {"scale-burst", RunScaleBurst},
      {"churn-reuse", RunChurnReuse},
      {"cluster-trace", RunClusterTrace},
  };
  return kWorkloads;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("workload", "", "paper-burst | scale-burst | churn-reuse | cluster-trace");
  flags.AddInt("seed", 1, "workload seed");
  flags.AddBool("trace", false,
                "traced rep: collect_metrics + profile_driver, per-layer numbers");
  flags.AddString("trace-out", "", "write the rep's spans here as a Chrome trace");
  flags.AddInt("run-id", 0, "rep index, recorded in every span");
  flags.AddBool("quick", false, "smoke-test sizes");
  flags.AddBool("allow-debug", false, "run even when built without NDEBUG");
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n\n%s", error.c_str(), flags.HelpText(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.HelpText(argv[0]).c_str(), stdout);
    return 0;
  }
  if (!kOptimizedBuild && !flags.GetBool("allow-debug")) {
    std::fprintf(stderr,
                 "error: built without NDEBUG; timings would not be comparable "
                 "(pass --allow-debug to run anyway)\n");
    return 2;
  }
  const std::string workload = flags.GetString("workload");
  const auto it = Workloads().find(workload);
  if (it == Workloads().end()) {
    std::fprintf(stderr, "error: unknown --workload '%s'\n", workload.c_str());
    return 2;
  }
  if (flags.GetInt("seed") < 0) {
    std::fprintf(stderr, "error: --seed must be non-negative\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const bool traced = flags.GetBool("trace");
  const Sizes& sizes = flags.GetBool("quick") ? kQuickSizes : kFullSizes;

  SpanRecorder spans;
  Rep rep;
  {
    ScopedSpan root(spans, "rep");
    it->second(seed, sizes, traced, spans, &rep);
  }
  const std::map<std::string, double> self = spans.SelfSeconds();
  const double wall_s = spans.TotalSeconds("rep");
  const double setup_s = workload == "cluster-trace"
                             ? spans.TotalSeconds("cluster.trace_gen") +
                                   spans.TotalSeconds("cluster.place")
                             : spans.TotalSeconds("experiments.cell_begin");

  std::string line;
  JsonWriter json(line);
  json.BeginObject()
      .KV("workload", workload)
      .KV("seed", seed)
      .KV("traced", traced)
      .KV("build_type", FASTIOV_E2E_BUILD_TYPE)
      .KV("compiler", FASTIOV_E2E_COMPILER)
      .KV("attempted", rep.attempted)
      .KV("completed", rep.completed)
      .KV("wall_s", wall_s)
      .KV("setup_s", setup_s)
      .KV("launches_per_s", static_cast<double>(rep.attempted) / wall_s)
      .KV("sim_startup_p50_s", rep.startup.Percentile(50.0))
      .KV("sim_startup_p99_s", rep.startup.Percentile(99.0))
      .KV("sim_launches_per_s", static_cast<double>(rep.completed) / rep.sim_busy_s)
      .KV("digest", rep.digest.Hex());
  if (rep.paper_rel_err.has_value()) {
    json.KV("paper_rel_err", *rep.paper_rel_err);
  }
  json.Key("checks");
  json.BeginObject()
      .KV("isolation", rep.residue_reads == 0 && rep.corruptions == 0)
      .KV("all_completed", rep.completed == rep.attempted)
      .KV("accounting", rep.accounting_ok)
      .EndObject();
  json.Key("self_s");
  json.BeginObject();
  for (const auto& [name, seconds] : self) {
    json.KV(name, seconds);
  }
  json.EndObject();
  if (traced) {
    const auto self_of = [&](const char* name) {
      return self.count(name) ? self.at(name) : 0.0;
    };
    json.Key("layers");
    json.BeginObject();
    for (const auto& [name, value] :
         LayerMetrics(rep, self_of("experiments.cell_execute"), self_of("cluster.run"))) {
      json.KV(name, value);
    }
    json.EndObject();
  }
  json.EndObject();
  std::printf("%s\n", line.c_str());

  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    spans.WriteChromeTrace(os, flags.GetInt("run-id"));
    if (!os) {
      std::fprintf(stderr, "error: could not write %s\n", trace_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace fastiov::e2e

int main(int argc, char** argv) {
  try {
    return fastiov::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fastiov_e2e: %s\n", e.what());
    return 3;
  }
}
