// The repository benchmark program. Usage:
//
//   o2pc_perfbench --workload campaign|overload_marking|bulk_uncontended
//                  --seed N --seconds S --trace 0|1
//   o2pc_perfbench --self-test
//
// With --trace 0 it measures the end-to-end metrics for S seconds of whole
// rounds; with --trace 1 it runs one traced round and reports the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. See README.md.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {
namespace {

double Clock(clockid_t id) {
  timespec now{};
  clock_gettime(id, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

}  // namespace

double ThreadCpuSeconds() { return Clock(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return Clock(CLOCK_PROCESS_CPUTIME_ID); }
double WallSeconds() { return Clock(CLOCK_MONOTONIC); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Tally::Count(const std::string& op,
                  const std::vector<std::string>& op_problems,
                  bool known_fault) {
  ++attempted;
  if (op_problems.empty()) return;
  ++failed;
  if (!known_fault) correct = false;
  problems.push_back(op + (known_fault ? " [known fault]: " : ": ") +
                     op_problems[0]);
}

void Tally::RunCheck(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string JournalCrossCheck(
    const std::vector<o2pc::trace::TraceEvent>& events,
    const o2pc::core::DistributedSystem& system) {
  using o2pc::trace::EventType;
  std::uint64_t sends = 0;
  std::uint64_t grants = 0;
  std::uint64_t waits = 0;
  std::uint64_t compensation_ends = 0;
  for (const o2pc::trace::TraceEvent& event : events) {
    sends += event.type == EventType::kMsgSend;
    grants += event.type == EventType::kLockAcquire;
    waits += event.type == EventType::kLockWait;
    compensation_ends += event.type == EventType::kCompensationEnd;
  }
  // LockStats::acquires counts lock *requests*: it also holds re-entrant
  // requests already covered by a held lock and waits that end in a
  // deadlock, neither of which is journaled as kLockAcquire. So grants are
  // bounded by requests from above and by granted waits from below, and
  // waits match exactly. A site crash rebuilds its lock manager, whose
  // counters then start again from zero, so the lock comparison holds only
  // for runs without one.
  std::uint64_t requests = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t granted_waits = 0;
  for (int site = 0; site < system.options().num_sites; ++site) {
    const o2pc::lock::LockStats& locks = system.db(site).lock_manager().stats();
    requests += locks.acquires;
    lock_waits += locks.waits;
    granted_waits += locks.wait_time.size();
  }
  const std::uint64_t sent = system.network().stats().sent_total;
  const std::uint64_t compensations =
      system.stats().Count("compensations_committed");
  const bool locks_ok =
      system.stats().Count("site_crashes") > 0 ||
      (waits == lock_waits && grants <= requests && grants >= granted_waits);
  if (sends == sent && locks_ok && compensation_ends == compensations) {
    return "";
  }
  return "journal disagrees with the layer counters: kMsgSend " +
         std::to_string(sends) + " vs sent_total " + std::to_string(sent) +
         ", kLockWait " + std::to_string(waits) + " vs waits " +
         std::to_string(lock_waits) + ", kLockAcquire " +
         std::to_string(grants) + " vs requests " + std::to_string(requests) +
         " and granted waits " + std::to_string(granted_waits) +
         ", kCompensationEnd " + std::to_string(compensation_ends) +
         " vs compensations_committed " + std::to_string(compensations);
}

double CalibrationSeconds() {
  static const std::vector<std::uint32_t> next = [] {
    // One cycle through every slot (Sattolo's shuffle), so the chase
    // touches the whole buffer in a data-dependent order.
    std::vector<std::uint32_t> cycle(1u << 22);
    for (std::uint32_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
    o2pc::Rng rng(12345);
    for (std::size_t i = cycle.size() - 1; i > 0; --i) {
      std::swap(cycle[i], cycle[rng.Uniform(0, static_cast<std::int64_t>(i) - 1)]);
    }
    return cycle;
  }();
  static std::vector<std::uint64_t> values(1u << 16);
  static std::uint64_t sink = 0;
  const double start = ThreadCpuSeconds();
  std::uint32_t at = 0;
  for (int i = 0; i < 100'000; ++i) at = next[at];
  std::uint64_t x = at;
  for (std::uint64_t& value : values) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    value = x;
  }
  std::sort(values.begin(), values.end());
  sink += values[values.size() / 2];
  return ThreadCpuSeconds() - start;
}

void EndToEnd::SetOperationCosts(
    const std::vector<std::vector<OpCost>>& costs,
    const std::vector<std::vector<double>>& calibration, double setup_cpu_s) {
  std::vector<double> scale;
  for (const std::vector<double>& samples : calibration) {
    scale.push_back(kReferenceCalibrationS / Median(samples));
  }
  setup_s = setup_cpu_s * scale.front();
  std::vector<double> op_ms;
  double total_s = 0;
  simulate_s = verify_s = 0;
  for (std::size_t op = 0; op < costs.front().size(); ++op) {
    const double inf = std::numeric_limits<double>::infinity();
    OpCost best{inf, inf, inf};
    for (std::size_t r = 0; r < costs.size(); ++r) {
      const OpCost& cost = costs[r][op];
      best.simulate_s = std::min(best.simulate_s, cost.simulate_s * scale[r]);
      best.verify_s = std::min(best.verify_s, cost.verify_s * scale[r]);
      best.total_s = std::min(best.total_s, cost.total_s * scale[r]);
    }
    simulate_s += best.simulate_s;
    verify_s += best.verify_s;
    total_s += best.total_s;
    op_ms.push_back(best.total_s * 1e3);
  }
  runs_per_s = static_cast<double>(op_ms.size()) / total_s;
  run_ms_p50 = Median(op_ms);
  run_ms_p99 = Percentile(op_ms, 0.99);
}

void AddWorldCounters(o2pc::core::DistributedSystem& system, Layers* layers) {
  const auto count = [&](const char* name) {
    return static_cast<double>(system.stats().Count(name));
  };
  layers->sim_events += static_cast<double>(system.simulator().events_executed());
  layers->net_messages += static_cast<double>(system.network().stats().sent_total);
  layers->net_dropped += static_cast<double>(system.network().stats().dropped);
  for (int site = 0; site < system.options().num_sites; ++site) {
    const o2pc::lock::LockStats& locks = system.db(site).lock_manager().stats();
    layers->lock_acquires += static_cast<double>(locks.acquires);
    layers->lock_waits += static_cast<double>(locks.waits);
    layers->lock_deadlocks += static_cast<double>(locks.deadlocks);
    layers->storage_wal_records += static_cast<double>(system.db(site).wal().size());
    layers->sg_tracked_accesses +=
        static_cast<double>(system.db(site).tracker().access_count());
    layers->core_witness_facts = std::max(
        layers->core_witness_facts,
        static_cast<double>(
            system.participant(site).ExportKnowledge()->witnesses.size()));
  }
  layers->core_restarts += count("global_restarts");
  layers->core_r1_rejections += count("r1_rejections");
  layers->core_udum_unmarks += count("udum_unmarks");
  layers->core_compensations += count("compensations_committed");
  layers->core_committed += count("globals_committed");
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"simulate_s", e.simulate_s, "s"},
      {"verify_s", e.verify_s, "s"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"campaign_runs_per_s", e.runs_per_s, "1/s"},
      {"campaign_run_ms_p50", e.run_ms_p50, "ms"},
      {"campaign_run_ms_p99", e.run_ms_p99, "ms"},
  };
}

std::vector<Metric> LayerMetrics(const Layers& l) {
  const double ns_per_event =
      l.sim_events > 0 ? l.core_run_ms * 1e6 / l.sim_events : 0;
  return {
      {"core.build_ms", l.core_build_ms, "ms"},
      {"workload.submit_ms", l.workload_submit_ms, "ms"},
      {"core.run_ms", l.core_run_ms, "ms"},
      {"sim.events", l.sim_events, "count"},
      {"sim.ns_per_event", ns_per_event, "ns"},
      {"net.messages", l.net_messages, "count"},
      {"net.dropped", l.net_dropped, "count"},
      {"storage.wal_records", l.storage_wal_records, "count"},
      {"lock.acquires", l.lock_acquires, "count"},
      {"lock.waits", l.lock_waits, "count"},
      {"lock.deadlocks", l.lock_deadlocks, "count"},
      {"core.restarts", l.core_restarts, "count"},
      {"core.r1_rejections", l.core_r1_rejections, "count"},
      {"core.udum_unmarks", l.core_udum_unmarks, "count"},
      {"core.compensations", l.core_compensations, "count"},
      {"core.committed", l.core_committed, "count"},
      {"core.witness_facts", l.core_witness_facts, "count"},
      {"sg.analyze_ms", l.sg_analyze_ms, "ms"},
      {"sg.tracked_accesses", l.sg_tracked_accesses, "count"},
      {"trace.events", l.trace_events, "count"},
      {"trace.journal_bytes", l.trace_journal_bytes, "bytes"},
      {"trace.check_ms", l.trace_check_ms, "ms"},
      {"trace.export_ms", l.trace_export_ms, "ms"},
      {"campaign.build_ms", l.campaign_build_ms, "ms"},
      {"campaign.engine_ms", l.campaign_engine_ms, "ms"},
      {"campaign.oracles_ms", l.campaign_oracles_ms, "ms"},
      {"campaign.export_ms", l.campaign_export_ms, "ms"},
      {"campaign.fingerprint_ms", l.campaign_fingerprint_ms, "ms"},
      {"campaign.faults_triggered", l.campaign_faults_triggered, "count"},
      {"exec.arena_bytes_per_run", l.exec_arena_bytes_per_run, "bytes"},
      {"exec.arena_allocs_per_run", l.exec_arena_allocs_per_run, "count"},
      {"exec.heap_allocs_per_run", l.exec_heap_allocs_per_run, "count"},
  };
}

namespace {

void PrintResult(const Result& result) {
  for (const std::string& problem : result.tally.problems) {
    std::printf("problem: %s\n", problem.c_str());
  }
  for (const Metric& metric : result.metrics) {
    std::printf("metric %-28s %.10g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.tally.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.tally.attempted);
  json += ", \"failed\": " + std::to_string(result.tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Plants each bookkeeping fault in one small operation and confirms the
/// checks report it; the clean controls must pass.
int SelfTest() {
  struct Case {
    const char* name;
    bool campaign;
    Fault fault;
  };
  const Case cases[] = {
      {"clean simulation", false, Fault::kNone},
      {"corrupted outcome", false, Fault::kCorruptOutcome},
      {"dropped global", false, Fault::kDropGlobal},
      {"clean campaign run", true, Fault::kNone},
      {"flipped fingerprint", true, Fault::kFlipFingerprint},
  };
  Result result;
  for (const Case& c : cases) {
    const std::vector<std::string> problems =
        c.campaign ? SelfTestCampaign(c.fault) : SelfTestSim(c.fault);
    const bool planted = c.fault != Fault::kNone;
    const bool as_expected = problems.empty() != planted;
    std::printf("self-test %-20s %s%s%s\n", c.name,
                problems.empty() ? "passed" : "failed",
                as_expected ? "" : "  UNEXPECTED",
                problems.empty() ? "" : ("  (" + problems[0] + ")").c_str());
    result.tally.Count(c.name, problems, planted);
    result.tally.RunCheck(as_expected, std::string(c.name) + " misjudged");
  }
  PrintResult(result);
  return result.tally.correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: o2pc_perfbench --workload "
               "campaign|overload_marking|bulk_uncontended --seed N "
               "--seconds S --trace 0|1\n"
               "       o2pc_perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      args.trace = value[0] == '1';
    } else {
      return Usage();
    }
  }
  std::printf("host: compiler=%s build_type=%s\n", __VERSION__,
              PERFBENCH_BUILD_TYPE);
  if (self_test) return SelfTest();

  Result result;
  if (args.workload == "campaign") {
    result = RunCampaignWorkload(args);
  } else if (args.workload == "overload_marking" ||
             args.workload == "bulk_uncontended") {
    result = RunSimWorkload(args);
  } else {
    return Usage();
  }
  PrintResult(result);
  return 0;
}
