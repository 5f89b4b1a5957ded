#ifndef O2PC_PERFBENCH_BENCH_H_
#define O2PC_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.h"
#include "trace/trace.h"

/// \file
/// Shared pieces of the repository benchmark (see README.md): clocks,
/// the operation tally, metric records and the workload entry points.

namespace perfbench {

/// CPU time of the calling thread. Every timed metric is the load
/// thread's CPU time: the benchmark is single-threaded, so on an idle host
/// this equals wall time, and it leaves out the time the thread spends
/// descheduled, the largest noise source on a shared host.
double ThreadCpuSeconds();
/// CPU time of the whole process since it started (the cold set-up clock).
double ProcessCpuSeconds();
double WallSeconds();

/// CPU seconds of a fixed calibration kernel: a pointer chase through a
/// 16 MB permutation plus a sort of 64k integers, code of the benchmark's
/// own that no change to the o2pc libraries can speed up or slow down.
double CalibrationSeconds();
/// The kernel's CPU time on an uncontended host. Each round's times are
/// divided by (median kernel time in the round / this): a shared host's
/// speed drifts by up to 40% over minutes, in CPU time too, and this
/// scales every round to one reference speed.
inline constexpr double kReferenceCalibrationS = 0.019;

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// A deliberate fault in the benchmark's own bookkeeping, used by the
/// self-test to show that each check can fail.
enum class Fault {
  kNone,
  /// Flip the recorded outcome of one committed global transaction.
  kCorruptOutcome,
  /// Leave one submitted global transaction out of the bookkeeping.
  kDropGlobal,
  /// Flip one bit of one campaign run's fingerprint.
  kFlipFingerprint,
};

/// Attempted and failed operations of a run. An operation is one
/// simulation or one campaign run; it fails when any of its checks fails.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False once an operation fails that is not a known fault of the
  /// program, or a run-level cross-check fails.
  bool correct = true;
  std::vector<std::string> problems;

  /// Counts one operation. `problems` empty means it passed; a failure
  /// with `known_fault` set keeps `correct` true.
  void Count(const std::string& op, const std::vector<std::string>& problems,
             bool known_fault = false);
  /// Records a check that belongs to the run, not to one operation.
  void RunCheck(bool ok, const std::string& what);
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  Tally tally;
  std::vector<Metric> metrics;
};

/// CPU seconds of one operation of one measured round.
struct OpCost {
  double simulate_s = 0;
  double verify_s = 0;
  /// Build to teardown, checks included.
  double total_s = 0;
};

/// The end-to-end metrics, every one reported on every workload. A round
/// is the workload's fixed set of operations (README.md, "Workloads").
/// Every operation's cost is its minimum over the measured rounds: host
/// contention only ever adds time, and on a shared host it comes in bursts
/// that slow a few consecutive operations of one round.
struct EndToEnd {
  /// Process CPU seconds from start until the first world is ready to run.
  double setup_s = 0;
  /// The round's simulation and verification CPU seconds.
  double simulate_s = 0;
  double verify_s = 0;
  double peak_rss_mb = 0;
  /// Operations per CPU second, and percentiles of the per-operation CPU
  /// milliseconds, over the round's operations.
  double runs_per_s = 0;
  double run_ms_p50 = 0;
  double run_ms_p99 = 0;

  /// Fills every metric but peak_rss_mb from `costs[round][op]`, scaling
  /// each round by its calibration samples `calibration[round]` and the
  /// measured cold set-up `setup_cpu_s` by the first round's.
  void SetOperationCosts(const std::vector<std::vector<OpCost>>& costs,
                         const std::vector<std::vector<double>>& calibration,
                         double setup_cpu_s);
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e);

/// The per-layer metrics of one traced round (times are the round's sums
/// unless the name says "per_run"). A layer a workload does not exercise
/// reads 0.
struct Layers {
  double core_build_ms = 0;
  double workload_submit_ms = 0;
  double core_run_ms = 0;
  double sim_events = 0;
  double net_messages = 0;
  double net_dropped = 0;
  double storage_wal_records = 0;
  double lock_acquires = 0;
  double lock_waits = 0;
  double lock_deadlocks = 0;
  double core_restarts = 0;
  double core_r1_rejections = 0;
  double core_udum_unmarks = 0;
  double core_compensations = 0;
  double core_committed = 0;
  double core_witness_facts = 0;
  double sg_analyze_ms = 0;
  double sg_tracked_accesses = 0;
  double trace_events = 0;
  double trace_journal_bytes = 0;
  double trace_check_ms = 0;
  double trace_export_ms = 0;
  double campaign_build_ms = 0;
  double campaign_engine_ms = 0;
  double campaign_oracles_ms = 0;
  double campaign_export_ms = 0;
  double campaign_fingerprint_ms = 0;
  double campaign_faults_triggered = 0;
  double exec_arena_bytes_per_run = 0;
  double exec_arena_allocs_per_run = 0;
  double exec_heap_allocs_per_run = 0;
};
std::vector<Metric> LayerMetrics(const Layers& layers);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// `overload_marking` and `bulk_uncontended`.
Result RunSimWorkload(const Args& args);
/// `campaign`.
Result RunCampaignWorkload(const Args& args);

/// Self-test pieces: each runs one small operation with `fault` planted
/// and returns that operation's problems (empty = the check stayed quiet).
std::vector<std::string> SelfTestSim(Fault fault);
std::vector<std::string> SelfTestCampaign(Fault fault);

/// Cross-checks a drained world's journal against the layers' own
/// counters, two independent records of the same run. Returns the
/// disagreement, or an empty string.
std::string JournalCrossCheck(const std::vector<o2pc::trace::TraceEvent>& events,
                              const o2pc::core::DistributedSystem& system);

/// Adds the layer counters of one drained world to `layers`: counts are
/// summed, `core_witness_facts` keeps the largest per-site knowledge.
void AddWorldCounters(o2pc::core::DistributedSystem& system, Layers* layers);

/// Median and nearest-rank percentile (q in [0, 1]) of `values`.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // O2PC_PERFBENCH_BENCH_H_
