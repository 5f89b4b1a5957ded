// The `campaign` workload: the default fault-campaign grid from base seed
// 1, run one at a time through campaign::RunOne inside recycled worlds
// (exec::WorldPool), each run checked by the benchmark. The traced run
// also replays every run through a staged replica of RunOne built from
// the same public calls, which times each stage and must reproduce the
// run's fingerprint.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "campaign/audit.h"
#include "campaign/fault_plan.h"
#include "campaign/injector.h"
#include "campaign/runner.h"
#include "common/rng.h"
#include "core/system.h"
#include "exec/world_pool.h"
#include "trace/checker.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

namespace campaign = o2pc::campaign;
namespace core = o2pc::core;
namespace trace = o2pc::trace;
using o2pc::Millis;

/// Seeds 1..30 of the default grid: 30 x 14 templates x {O2PC, 2PC}. The
/// round reaches grid index 788 (seed 29, `partitions`, O2PC), the one
/// run of the default sweep that fails its SG oracle.
constexpr int kRoundRuns = 840;
constexpr int kKnownFailingIndex = 788;
/// Runs of the untimed warm-up: the first seed's templates.
constexpr int kWarmupRuns = 28;
/// Runs between two samples of the calibration kernel (30 per round).
constexpr int kCalibrationEvery = 28;

/// The i-th run of the default campaign grid (CampaignOptions defaults):
/// protocol fastest, then template, then seed.
campaign::CampaignRunConfig GridConfig(int i) {
  const campaign::CampaignOptions defaults;
  const std::vector<std::string>& templates = campaign::DefaultTemplateNames();
  const int num_protocols = static_cast<int>(defaults.protocols.size());
  const int num_templates = static_cast<int>(templates.size());
  campaign::CampaignRunConfig config;
  config.protocol = defaults.protocols[i % num_protocols];
  config.template_name = templates[(i / num_protocols) % num_templates];
  config.seed = defaults.base_seed +
                static_cast<std::uint64_t>(i / (num_protocols * num_templates));
  config.num_sites = defaults.num_sites;
  config.keys_per_site = defaults.keys_per_site;
  config.num_globals = defaults.num_globals;
  config.num_locals = defaults.num_locals;
  config.vote_abort_probability = defaults.vote_abort_probability;
  config.plan = campaign::GeneratePlan(config.template_name, config.seed,
                                       config.num_sites);
  return config;
}

std::string Describe(int index, const campaign::CampaignRunConfig& config) {
  return "grid " + std::to_string(index) + " (seed " +
         std::to_string(config.seed) + ", " + config.template_name + ", " +
         (config.protocol == core::CommitProtocol::kOptimistic ? "o2pc"
                                                               : "2pc") +
         ")";
}

/// The benchmark's checks of one RunOne result: the oracle battery's
/// verdict and the fingerprint recomputed from the journal. (Whether every
/// global finished is the liveness oracle's call: under a permanent
/// coordinator outage a global legitimately never reports.)
std::vector<std::string> CheckRun(const campaign::CampaignRunResult& result,
                                  std::uint64_t fingerprint) {
  std::vector<std::string> problems = result.oracle.violations;
  if (campaign::Fingerprint(result.journal) != fingerprint) {
    problems.push_back("fingerprint does not match the run's journal");
  }
  return problems;
}

/// runner.cc's private option mapping, restated. A drift between the two
/// shows as a fingerprint mismatch in the traced run.
core::SystemOptions ReplicaSystemOptions(
    const campaign::CampaignRunConfig& config) {
  core::SystemOptions options;
  options.num_sites = config.num_sites;
  options.keys_per_site = config.keys_per_site;
  options.seed = config.seed;
  options.protocol.protocol = config.protocol;
  options.protocol.resend_timeout = Millis(15);
  options.protocol.max_resends = 300;
  options.protocol.retry_backoff_multiplier = 2.0;
  options.protocol.retry_backoff_cap = Millis(120);
  options.protocol.coordinator_crash_probability = 0.0;
  options.protocol.coordinator_recovery_delay = Millis(40);
  options.protocol.decision_timeout = Millis(30);
  options.protocol.decision_req_attempts = 2;
  options.protocol.termination_budget = 20;
  options.protocol.prevote_timeout = o2pc::Seconds(2);
  options.network.duplicate_copies = config.duplicate_copies;
  options.network.duplicate_filter = config.duplicate_filter;
  return options;
}

o2pc::workload::WorkloadOptions ReplicaWorkloadOptions(
    const campaign::CampaignRunConfig& config) {
  o2pc::workload::WorkloadOptions options;
  options.num_global_txns = config.num_globals;
  options.num_local_txns = config.num_locals;
  options.min_sites_per_txn = std::min(2, config.num_sites);
  options.max_sites_per_txn = std::min(3, config.num_sites);
  options.vote_abort_probability = config.vote_abort_probability;
  options.semantic_ops = true;
  options.mean_global_interarrival = Millis(8);
  options.mean_local_interarrival = Millis(4);
  options.seed = config.seed * 31 + 7;
  return options;
}

struct Stages {
  /// RunOne's build stage: construction, injector arming and workload
  /// scheduling; of which the system's construction and the scheduling.
  double build_s = 0;
  double construct_s = 0;
  double drive_s = 0;
  double engine_s = 0;
  double oracles_s = 0;
  double export_s = 0;
  double fingerprint_s = 0;
  double analyze_s = 0;
  double check_s = 0;
  double trace_events = 0;
  double journal_bytes = 0;
  double faults = 0;
  /// The worlds' layer counters.
  Layers counters;
};

struct ReplicaResult {
  std::uint64_t fingerprint = 0;
  bool oracles_ok = false;
};

/// RunOne, stage by stage, from the same public calls. Returns the
/// journal fingerprint and the oracles' verdict, adds the stage costs and
/// layer counters to `stages`, and appends the journal cross-check's
/// problems.
ReplicaResult StagedRun(const campaign::CampaignRunConfig& config,
                        Stages* stages, std::vector<std::string>* problems) {
  const double t0 = ThreadCpuSeconds();
  core::DistributedSystem system(ReplicaSystemOptions(config));
  const o2pc::Value initial_total = system.TotalValue();
  trace::TraceRecorder recorder;
  const double built = ThreadCpuSeconds();
  double drive = 0;
  double t1 = 0;
  double t2 = 0;
  {
    trace::ScopedTrace scope(&recorder, &system.simulator());
    campaign::FaultInjector injector(&system, config.plan);
    injector.Arm();
    o2pc::workload::WorkloadGenerator generator(
        config.num_sites, config.keys_per_site, ReplicaWorkloadOptions(config));
    drive = ThreadCpuSeconds();
    generator.Drive(system);
    t1 = ThreadCpuSeconds();
    system.Run();
    t2 = ThreadCpuSeconds();
    stages->faults += injector.faults_triggered();
  }
  const campaign::OracleReport oracle =
      campaign::RunOracles(system, recorder.events(), initial_total);
  const double t3 = ThreadCpuSeconds();
  const std::string journal = trace::ExportJsonlString(recorder.events());
  const double t4 = ThreadCpuSeconds();
  const std::uint64_t fingerprint = campaign::Fingerprint(journal);
  const double t5 = ThreadCpuSeconds();
  stages->build_s += t1 - t0;
  stages->construct_s += built - t0;
  stages->drive_s += t1 - drive;
  stages->engine_s += t2 - t1;
  stages->oracles_s += t3 - t2;
  stages->export_s += t4 - t3;
  stages->fingerprint_s += t5 - t4;

  // The layers, read apart from the stages: the §5 analysis and the trace
  // checker on their own (RunOracles runs both inside).
  const double a0 = ThreadCpuSeconds();
  system.Analyze();
  const double a1 = ThreadCpuSeconds();
  trace::CheckTrace(recorder.events());
  const double a2 = ThreadCpuSeconds();
  stages->analyze_s += a1 - a0;
  stages->check_s += a2 - a1;
  stages->trace_events += static_cast<double>(recorder.size());
  stages->journal_bytes += static_cast<double>(journal.size());

  const std::string disagreement =
      JournalCrossCheck(recorder.events(), system);
  if (!disagreement.empty()) problems->push_back(disagreement);
  AddWorldCounters(system, &stages->counters);
  return {fingerprint, oracle.ok()};
}

/// The round's run order: every grid index of the round, shuffled by the
/// workload seed (the grid itself is fixed by base seed 1).
std::vector<int> RoundOrder(std::uint64_t seed) {
  std::vector<int> order(kRoundRuns);
  for (int i = 0; i < kRoundRuns; ++i) order[i] = i;
  o2pc::Rng rng(seed);
  for (int i = kRoundRuns - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(0, i)]);
  }
  return order;
}

struct RunCost {
  double run_s = 0;
  double check_s = 0;
};

/// One RunOne inside a recycled world, then the benchmark's checks, which
/// read the result before the next run rewinds the arena.
RunCost RunChecked(const campaign::CampaignRunConfig& config, int index,
                   Tally* tally, bool count) {
  RunCost cost;
  const double t0 = ThreadCpuSeconds();
  std::optional<o2pc::exec::WorldPool::ScopedRun> scope(std::in_place);
  const campaign::CampaignRunResult result = campaign::RunOne(config);
  scope.reset();
  const double t1 = ThreadCpuSeconds();
  const std::vector<std::string> problems =
      CheckRun(result, result.fingerprint);
  const double t2 = ThreadCpuSeconds();
  cost.run_s = t1 - t0;
  cost.check_s = t2 - t1;
  const bool known = index == kKnownFailingIndex;
  if (count) {
    tally->Count(Describe(index, config), problems, known);
  } else if (!problems.empty() && !known) {
    tally->RunCheck(false, Describe(index, config) + ": " + problems[0]);
  }
  return cost;
}

}  // namespace

Result RunCampaignWorkload(const Args& args) {
  Result result;
  std::vector<campaign::CampaignRunConfig> configs;
  configs.reserve(kRoundRuns);
  for (int i = 0; i < kRoundRuns; ++i) configs.push_back(GridConfig(i));
  const std::vector<int> order = RoundOrder(args.seed);
  const bool recycled = o2pc::exec::WorldPool::Enabled();
  result.tally.RunCheck(recycled, "exec::WorldPool recycling is enabled");
  const double setup_s = ProcessCpuSeconds();

  for (int i = 0; i < kWarmupRuns; ++i) {
    RunChecked(configs[i], i, &result.tally, false);
  }

  if (args.trace) {
    Stages stages;
    double arena_bytes = 0;
    double arena_allocs = 0;
    double heap_allocs = 0;
    for (const int index : order) {
      const campaign::CampaignRunConfig& config = configs[index];
      std::uint64_t fingerprint = 0;
      bool run_ok = false;
      std::vector<std::string> problems;
      {
        std::optional<o2pc::exec::WorldPool::ScopedRun> scope(std::in_place);
        const campaign::CampaignRunResult run = campaign::RunOne(config);
        arena_bytes += static_cast<double>(scope->arena_bytes());
        arena_allocs += static_cast<double>(scope->arena_allocs());
        heap_allocs += static_cast<double>(scope->heap_allocs());
        scope.reset();
        fingerprint = run.fingerprint;
        run_ok = run.ok();
        problems = CheckRun(run, run.fingerprint);
      }
      const ReplicaResult replica = StagedRun(config, &stages, &problems);
      if (replica.fingerprint != fingerprint) {
        problems.push_back("staged replica fingerprint differs from RunOne");
      }
      if (replica.oracles_ok != run_ok) {
        problems.push_back("staged replica oracle verdict differs from RunOne");
      }
      result.tally.Count(Describe(index, config), problems,
                         index == kKnownFailingIndex);
    }
    const double runs = kRoundRuns;
    Layers layers = stages.counters;
    layers.core_build_ms = stages.construct_s * 1e3;
    layers.workload_submit_ms = stages.drive_s * 1e3;
    layers.core_run_ms = stages.engine_s * 1e3;
    layers.sg_analyze_ms = stages.analyze_s * 1e3;
    layers.trace_events = stages.trace_events;
    layers.trace_journal_bytes = stages.journal_bytes;
    layers.trace_check_ms = stages.check_s * 1e3;
    layers.trace_export_ms = stages.export_s * 1e3;
    layers.campaign_build_ms = stages.build_s * 1e3 / runs;
    layers.campaign_engine_ms = stages.engine_s * 1e3 / runs;
    layers.campaign_oracles_ms = stages.oracles_s * 1e3 / runs;
    layers.campaign_export_ms = stages.export_s * 1e3 / runs;
    layers.campaign_fingerprint_ms = stages.fingerprint_s * 1e3 / runs;
    layers.campaign_faults_triggered = stages.faults;
    layers.exec_arena_bytes_per_run = arena_bytes / runs;
    layers.exec_arena_allocs_per_run = arena_allocs / runs;
    layers.exec_heap_allocs_per_run = heap_allocs / runs;
    result.metrics = LayerMetrics(layers);
    return result;
  }

  std::vector<std::vector<OpCost>> costs;
  std::vector<std::vector<double>> calibration;
  CalibrationSeconds();  // builds the kernel's buffers
  const double start = WallSeconds();
  do {
    std::vector<OpCost> round(kRoundRuns);
    std::vector<double> samples;
    double round_s = 0;
    for (int position = 0; position < kRoundRuns; ++position) {
      if (position % kCalibrationEvery == 0) {
        samples.push_back(CalibrationSeconds());
      }
      const int index = order[position];
      const RunCost cost =
          RunChecked(configs[index], index, &result.tally, true);
      round[index] = {cost.run_s, cost.check_s, cost.run_s + cost.check_s};
      round_s += cost.run_s + cost.check_s;
    }
    std::printf("round %zu: %.4f s (cpu), calibration %.5f s\n",
                costs.size() + 1, round_s, Median(samples));
    costs.push_back(std::move(round));
    calibration.push_back(std::move(samples));
  } while (WallSeconds() - start < args.seconds);

  EndToEnd e2e;
  e2e.peak_rss_mb = PeakRssMb();
  e2e.SetOperationCosts(costs, calibration, setup_s);
  result.metrics = EndToEndMetrics(e2e);
  return result;
}

std::vector<std::string> SelfTestCampaign(Fault fault) {
  const campaign::CampaignRunConfig config = GridConfig(0);
  const campaign::CampaignRunResult run = campaign::RunOne(config);
  std::uint64_t fingerprint = run.fingerprint;
  if (fault == Fault::kFlipFingerprint) fingerprint ^= 1;
  std::vector<std::string> problems = CheckRun(run, fingerprint);
  Stages stages;
  if (StagedRun(config, &stages, &problems).fingerprint != fingerprint) {
    problems.push_back("staged replica fingerprint differs from RunOne");
  }
  return problems;
}

}  // namespace perfbench
