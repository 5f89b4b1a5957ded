// The two simulation workloads: `overload_marking` (O2PC/P1 at a contended
// offered load) and `bulk_uncontended` (one large input under 2PC and
// under O2PC with governance none). The benchmark generates every input
// itself and checks the simulator's outcome against its own bookkeeping.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/system.h"
#include "trace/checker.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using o2pc::DataKey;
using o2pc::Duration;
using o2pc::SimTime;
using o2pc::SiteId;
using o2pc::Value;
using o2pc::core::CommitProtocol;
using o2pc::core::GovernancePolicy;
namespace core = o2pc::core;
namespace local = o2pc::local;
namespace trace = o2pc::trace;

struct World {
  CommitProtocol protocol;
  GovernancePolicy governance;
  const char* label;
};

/// The make-up of one workload's inputs (README.md, "Workloads").
struct Shape {
  int num_sites = 4;
  DataKey keys_per_site = 128;
  int globals = 0;
  int locals = 0;
  Duration global_gap = o2pc::Millis(8);
  Duration local_gap = o2pc::Millis(4);
  double zipf_theta = 0.8;
  double abort_probability = 0.2;
  int ops_per_subtxn = 4;
  int ops_per_local = 3;
  /// Distinct generated inputs per round.
  int inputs_per_round = 1;
  /// Worlds each input runs in, in this order.
  std::vector<World> worlds;
  /// The workload is uncontended: with no restart, every global without a
  /// forced abort vote must commit.
  bool expect_all_unforced_commit = false;
  /// The pair checks of O2PC against 2PC on the same input.
  bool pair_checks = false;
};

// Contended: a zipf skew of 1.5 on 128 keys puts every input well past the
// restart-storm tipping point (at 0.8 some seeds stay healthy and cost a
// tenth of the others; at 1.2 a few still straddle it), so a round of 16
// inputs costs much the same whatever the seed.
Shape OverloadShape() {
  Shape shape;
  shape.keys_per_site = 128;
  shape.globals = 150;
  shape.locals = 100;
  shape.zipf_theta = 1.5;
  shape.inputs_per_round = 16;
  shape.worlds = {{CommitProtocol::kOptimistic, GovernancePolicy::kP1,
                   "o2pc/p1"}};
  return shape;
}

Shape BulkShape() {
  Shape shape;
  shape.keys_per_site = 100'000;
  shape.globals = 4000;
  shape.locals = 1000;
  shape.local_gap = o2pc::Millis(32);
  shape.zipf_theta = 0.8;
  // The §5 analysis cost depends on each input's conflict structure; two
  // inputs per round halve that spread between seeds.
  shape.inputs_per_round = 2;
  shape.worlds = {
      {CommitProtocol::kTwoPhaseCommit, GovernancePolicy::kNone, "2pc"},
      {CommitProtocol::kOptimistic, GovernancePolicy::kNone, "o2pc/none"}};
  shape.expect_all_unforced_commit = true;
  shape.pair_checks = true;
  return shape;
}

struct GlobalInput {
  SimTime at = 0;
  core::GlobalTxnSpec spec;
  bool forced_abort = false;
};

struct LocalInput {
  SimTime at = 0;
  SiteId site = 0;
  std::vector<local::Operation> ops;
};

struct Input {
  std::uint64_t seed = 0;
  std::vector<GlobalInput> globals;
  std::vector<LocalInput> locals;
};

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t k) {
  o2pc::Rng rng(seed * 0x9E3779B97F4A7C15ULL + k + 1);
  return rng.Next();
}

local::Operation RandomOp(o2pc::Rng& rng, const o2pc::ZipfGenerator& zipf) {
  local::Operation op;
  op.key = static_cast<DataKey>(zipf.Sample(rng));
  if (rng.Bernoulli(0.5)) {
    op.type = local::OpType::kRead;
  } else {
    op.type = local::OpType::kIncrement;
    op.value = rng.Uniform(1, 9);
  }
  return op;
}

/// Poisson arrivals; every global spans two distinct sites; increments
/// are positive, so a lost or doubled one changes the key's final value.
Input Generate(const Shape& shape, std::uint64_t seed) {
  Input input;
  input.seed = seed;
  o2pc::Rng rng(seed);
  const o2pc::ZipfGenerator zipf(static_cast<std::uint64_t>(
                                     shape.keys_per_site),
                                 shape.zipf_theta);
  SimTime at = 0;
  for (int i = 0; i < shape.globals; ++i) {
    at += static_cast<Duration>(
        rng.Exponential(static_cast<double>(shape.global_gap)));
    GlobalInput global;
    global.at = at;
    const SiteId first =
        static_cast<SiteId>(rng.Uniform(0, shape.num_sites - 1));
    SiteId second = first;
    while (second == first) {
      second = static_cast<SiteId>(rng.Uniform(0, shape.num_sites - 1));
    }
    for (const SiteId site : {first, second}) {
      core::SubtxnSpec sub;
      sub.site = site;
      for (int k = 0; k < shape.ops_per_subtxn; ++k) {
        sub.ops.push_back(RandomOp(rng, zipf));
      }
      global.spec.subtxns.push_back(std::move(sub));
    }
    if (rng.Bernoulli(shape.abort_probability)) {
      global.forced_abort = true;
      global.spec.subtxns[rng.Uniform(0, 1)].force_abort_vote = true;
    }
    input.globals.push_back(std::move(global));
  }
  at = 0;
  for (int i = 0; i < shape.locals; ++i) {
    at += static_cast<Duration>(
        rng.Exponential(static_cast<double>(shape.local_gap)));
    LocalInput txn;
    txn.at = at;
    txn.site = static_cast<SiteId>(rng.Uniform(0, shape.num_sites - 1));
    for (int k = 0; k < shape.ops_per_local; ++k) {
      txn.ops.push_back(RandomOp(rng, zipf));
    }
    input.locals.push_back(std::move(txn));
  }
  return input;
}

/// What the benchmark itself recorded about one world's transactions.
struct Book {
  /// False for a global deliberately left out (Fault::kDropGlobal).
  std::vector<char> tracked;
  std::vector<int> reports;
  std::vector<char> committed;
  std::vector<int> local_reports;
  std::vector<char> local_committed;
  int untracked_reports = 0;
};

/// Costs of one world (one operation), and what the pair checks compare.
struct WorldStats {
  double build_s = 0;
  double submit_s = 0;
  double run_s = 0;
  double analyze_s = 0;
  double check_s = 0;
  double destroy_s = 0;
  /// For the pair checks.
  double messages = 0;
  double mean_exclusive_hold = 0;
  /// Traced runs only.
  double trace_events = 0;
  double journal_bytes = 0;
  double trace_check_s = 0;
  double trace_export_s = 0;

  double total_s() const {
    return build_s + submit_s + run_s + analyze_s + check_s + destroy_s;
  }
};

struct WorldOutcome {
  WorldStats stats;
  std::vector<std::string> problems;
};

std::string Format(const char* fmt, long long a, long long b = 0,
                   long long c = 0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b, c);
  return buffer;
}

/// Checks the drained world against the bookkeeping; appends problems.
void CheckOutcome(const Shape& shape, const Input& input,
                  const core::DistributedSystem& system, const Book& book,
                  std::vector<std::string>* problems) {
  const int n = static_cast<int>(input.globals.size());
  int forced = 0;
  int committed = 0;
  for (int i = 0; i < n; ++i) {
    if (!book.tracked[i]) continue;
    if (book.reports[i] != 1) {
      problems->push_back(Format("global %lld reported %lld times", i,
                                 book.reports[i]));
    }
    if (input.globals[i].forced_abort) ++forced;
    if (book.committed[i]) ++committed;
    if (input.globals[i].forced_abort && book.committed[i]) {
      problems->push_back(
          Format("global %lld committed despite a forced abort vote", i));
    }
  }
  if (book.untracked_reports != 0) {
    problems->push_back(Format("%lld reports from globals missing in the "
                               "bookkeeping",
                               book.untracked_reports));
  }
  for (std::size_t j = 0; j < input.locals.size(); ++j) {
    if (book.local_reports[j] != 1) {
      problems->push_back(Format("local %lld reported %lld times",
                                 static_cast<long long>(j),
                                 book.local_reports[j]));
    }
  }
  const double restarts =
      static_cast<double>(system.stats().Count("global_restarts"));
  if (shape.expect_all_unforced_commit && restarts == 0 &&
      committed != n - forced) {
    problems->push_back(Format("%lld committed, expected %lld (submitted "
                               "minus forced aborts)",
                               committed, n - forced));
  }

  // Final value of every key: its initial value plus the increments of
  // every committed global and local transaction.
  const Value initial = system.options().initial_value;
  std::vector<std::vector<Value>> expected(
      shape.num_sites,
      std::vector<Value>(static_cast<std::size_t>(shape.keys_per_site),
                         initial));
  auto apply = [&](SiteId site, const std::vector<local::Operation>& ops) {
    for (const local::Operation& op : ops) {
      if (op.type == local::OpType::kIncrement) {
        expected[site][static_cast<std::size_t>(op.key)] += op.value;
      }
    }
  };
  for (int i = 0; i < n; ++i) {
    if (!book.tracked[i] || !book.committed[i]) continue;
    for (const core::SubtxnSpec& sub : input.globals[i].spec.subtxns) {
      apply(sub.site, sub.ops);
    }
  }
  for (std::size_t j = 0; j < input.locals.size(); ++j) {
    if (book.local_committed[j]) {
      apply(input.locals[j].site, input.locals[j].ops);
    }
  }
  for (int site = 0; site < shape.num_sites; ++site) {
    long long wrong = 0;
    long long first_wrong = -1;
    DataKey seen = 0;
    for (const auto& [key, cell] : system.db(site).table().cells()) {
      if (key >= shape.keys_per_site) continue;
      ++seen;
      if (cell.value != expected[site][static_cast<std::size_t>(key)]) {
        if (first_wrong < 0) first_wrong = key;
        ++wrong;
      }
    }
    if (seen != shape.keys_per_site) {
      problems->push_back(Format("site %lld holds %lld of %lld keys", site,
                                 seen, shape.keys_per_site));
    }
    if (wrong != 0) {
      problems->push_back(Format("site %lld: %lld keys differ from the "
                                 "expected final value (first: key %lld)",
                                 site, wrong, first_wrong));
    }
  }
}

/// Runs one world on `input`: build, schedule, simulate, analyze, check.
/// `setup_mark` (optional) receives the process CPU clock once the world
/// is built and its inputs scheduled; `layers` (optional) receives the
/// world's layer counters.
WorldOutcome RunWorld(const Shape& shape, const Input& input,
                      const World& world, Fault fault, bool traced,
                      double* setup_mark, Layers* layers) {
  WorldOutcome outcome;
  WorldStats& stats = outcome.stats;
  const int n = static_cast<int>(input.globals.size());

  double t0 = ThreadCpuSeconds();
  core::SystemOptions options;
  options.num_sites = shape.num_sites;
  options.keys_per_site = shape.keys_per_site;
  options.seed = input.seed;
  options.protocol.protocol = world.protocol;
  options.protocol.governance = world.governance;
  auto system = std::make_unique<core::DistributedSystem>(options);
  double t1 = ThreadCpuSeconds();
  stats.build_s = t1 - t0;

  Book book;
  book.tracked.assign(n, 1);
  book.reports.assign(n, 0);
  book.committed.assign(n, 0);
  book.local_reports.assign(input.locals.size(), 0);
  book.local_committed.assign(input.locals.size(), 0);
  if (fault == Fault::kDropGlobal) book.tracked[0] = 0;

  trace::TraceRecorder recorder;
  std::unique_ptr<trace::ScopedTrace> scope;
  if (traced) {
    scope = std::make_unique<trace::ScopedTrace>(&recorder,
                                                 &system->simulator());
  }
  core::DistributedSystem* sys = system.get();
  Book* bk = &book;
  const Input* in = &input;
  for (int i = 0; i < n; ++i) {
    sys->simulator().ScheduleAt(input.globals[i].at, [sys, bk, in, i] {
      sys->SubmitGlobal(in->globals[i].spec,
                        [bk, i](const core::GlobalResult& result) {
                          if (!bk->tracked[i]) {
                            ++bk->untracked_reports;
                            return;
                          }
                          ++bk->reports[i];
                          bk->committed[i] = result.committed ? 1 : 0;
                        });
    });
  }
  for (std::size_t j = 0; j < input.locals.size(); ++j) {
    sys->simulator().ScheduleAt(input.locals[j].at, [sys, bk, in, j] {
      sys->SubmitLocal(in->locals[j].site, in->locals[j].ops,
                       [bk, j](bool committed) {
                         ++bk->local_reports[j];
                         bk->local_committed[j] = committed ? 1 : 0;
                       });
    });
  }
  double t2 = ThreadCpuSeconds();
  stats.submit_s = t2 - t1;
  if (setup_mark != nullptr) *setup_mark = ProcessCpuSeconds();

  system->Run();
  double t3 = ThreadCpuSeconds();
  stats.run_s = t3 - t2;
  scope.reset();

  const o2pc::sg::CorrectnessReport report = system->Analyze();
  double t4 = ThreadCpuSeconds();
  stats.analyze_s = t4 - t3;

  if (fault == Fault::kCorruptOutcome) {
    // Forget one committed global that wrote, as if its commit were lost.
    for (int i = 0; i < n; ++i) {
      bool writes = false;
      for (const core::SubtxnSpec& sub : input.globals[i].spec.subtxns) {
        for (const local::Operation& op : sub.ops) {
          writes = writes || op.type == local::OpType::kIncrement;
        }
      }
      if (book.committed[i] && writes) {
        book.committed[i] = 0;
        break;
      }
    }
  }
  CheckOutcome(shape, input, *system, book, &outcome.problems);
  if (!report.locally_serializable) {
    outcome.problems.push_back("sg: a local serialization graph has a cycle");
  }
  // Governance none is the saga mode: it promises semantic atomicity, not
  // the §5 criterion, so only 2PC and the marking protocols are held to it.
  const bool governed = world.protocol == CommitProtocol::kTwoPhaseCommit ||
                        world.governance != GovernancePolicy::kNone;
  if (governed && (!report.correct || !report.atomic_compensation)) {
    outcome.problems.push_back("sg: " + report.Summary());
  }

  stats.messages = static_cast<double>(system->network().stats().sent_total);
  double hold_sum = 0;
  double hold_count = 0;
  for (int site = 0; site < shape.num_sites; ++site) {
    for (const Duration hold :
         system->db(site).lock_manager().stats().exclusive_hold) {
      hold_sum += static_cast<double>(hold);
      hold_count += 1;
    }
  }
  stats.mean_exclusive_hold = hold_count > 0 ? hold_sum / hold_count : 0;
  if (layers != nullptr) AddWorldCounters(*system, layers);

  if (traced) {
    const std::string disagreement =
        JournalCrossCheck(recorder.events(), *system);
    if (!disagreement.empty()) outcome.problems.push_back(disagreement);
    const double c0 = ThreadCpuSeconds();
    const trace::CheckReport check = trace::CheckTrace(recorder.events());
    const double c1 = ThreadCpuSeconds();
    const std::string journal = trace::ExportJsonlString(recorder.events());
    const double c2 = ThreadCpuSeconds();
    stats.trace_check_s = c1 - c0;
    stats.trace_export_s = c2 - c1;
    stats.trace_events = static_cast<double>(recorder.size());
    stats.journal_bytes = static_cast<double>(journal.size());
    if (!check.ok()) outcome.problems.push_back("trace: " + check.Summary());
  }
  double t5 = ThreadCpuSeconds();
  stats.check_s = t5 - t4 - stats.trace_check_s - stats.trace_export_s;

  system.reset();
  stats.destroy_s = ThreadCpuSeconds() - t5;
  return outcome;
}

/// The pair checks on one input: O2PC adds no messages to 2PC's, and its
/// early lock release shortens the mean exclusive-lock hold.
void PairChecks(const WorldStats& two_pc, const WorldStats& optimistic,
                std::vector<std::string>* problems) {
  if (optimistic.messages != two_pc.messages) {
    problems->push_back(
        Format("o2pc sent %lld messages, 2pc %lld on the same input",
               static_cast<long long>(optimistic.messages),
               static_cast<long long>(two_pc.messages)));
  }
  if (!(optimistic.mean_exclusive_hold < two_pc.mean_exclusive_hold)) {
    problems->push_back(Format(
        "o2pc mean exclusive-lock hold %lld us is not below 2pc's %lld us",
        static_cast<long long>(optimistic.mean_exclusive_hold),
        static_cast<long long>(two_pc.mean_exclusive_hold)));
  }
}

struct RoundTotals {
  std::vector<OpCost> ops;
  WorldStats sum;
  Layers layers;
};

void Accumulate(const WorldStats& w, RoundTotals* round) {
  WorldStats& s = round->sum;
  s.build_s += w.build_s;
  s.submit_s += w.submit_s;
  s.run_s += w.run_s;
  s.analyze_s += w.analyze_s;
  s.trace_events += w.trace_events;
  s.journal_bytes += w.journal_bytes;
  s.trace_check_s += w.trace_check_s;
  s.trace_export_s += w.trace_export_s;
  round->ops.push_back({w.run_s, w.analyze_s + w.check_s, w.total_s()});
}

/// Runs every operation of one round, counting each in `tally`. With
/// `calibration`, samples the calibration kernel before each operation.
RoundTotals RunRound(const Shape& shape, const std::vector<Input>& inputs,
                     bool traced, Tally* tally,
                     std::vector<double>* calibration) {
  RoundTotals round;
  for (const Input& input : inputs) {
    WorldStats previous;
    for (std::size_t w = 0; w < shape.worlds.size(); ++w) {
      if (calibration != nullptr) {
        calibration->push_back(CalibrationSeconds());
      }
      WorldOutcome outcome =
          RunWorld(shape, input, shape.worlds[w], Fault::kNone, traced,
                   nullptr, traced ? &round.layers : nullptr);
      if (shape.pair_checks && w == 1) {
        PairChecks(previous, outcome.stats, &outcome.problems);
      }
      previous = outcome.stats;
      Accumulate(outcome.stats, &round);
      tally->Count(std::string(shape.worlds[w].label) + " input seed " +
                       std::to_string(input.seed),
                   outcome.problems);
    }
  }
  return round;
}

}  // namespace

Result RunSimWorkload(const Args& args) {
  const Shape shape = args.workload == "overload_marking" ? OverloadShape()
                                                          : BulkShape();
  std::vector<Input> inputs;
  for (int k = 0; k < shape.inputs_per_round; ++k) {
    inputs.push_back(Generate(shape, MixSeed(args.seed, k)));
  }

  // Warm-up: the round's first operation, untimed and not counted (its
  // checks still apply). Its set-up is the cold set-up of the process.
  Result result;
  double setup_mark = 0;
  WorldOutcome warm = RunWorld(shape, inputs[0], shape.worlds[0],
                               Fault::kNone, false, &setup_mark, nullptr);
  result.tally.RunCheck(warm.problems.empty(),
                        warm.problems.empty() ? "warm-up"
                                              : "warm-up: " + warm.problems[0]);

  if (args.trace) {
    const RoundTotals round =
        RunRound(shape, inputs, true, &result.tally, nullptr);
    const WorldStats& s = round.sum;
    Layers layers = round.layers;
    layers.core_build_ms = s.build_s * 1e3;
    layers.workload_submit_ms = s.submit_s * 1e3;
    layers.core_run_ms = s.run_s * 1e3;
    layers.sg_analyze_ms = s.analyze_s * 1e3;
    layers.trace_events = s.trace_events;
    layers.trace_journal_bytes = s.journal_bytes;
    layers.trace_check_ms = s.trace_check_s * 1e3;
    layers.trace_export_ms = s.trace_export_s * 1e3;
    result.metrics = LayerMetrics(layers);
    return result;
  }

  std::vector<std::vector<OpCost>> costs;
  std::vector<std::vector<double>> calibration;
  CalibrationSeconds();  // builds the kernel's buffers
  const double start = WallSeconds();
  do {
    std::vector<double> samples;
    RoundTotals round = RunRound(shape, inputs, false, &result.tally, &samples);
    double simulate_s = 0;
    for (const OpCost& op : round.ops) simulate_s += op.simulate_s;
    std::printf("round %zu: simulate %.4f s (cpu), calibration %.5f s\n",
                costs.size() + 1, simulate_s, Median(samples));
    costs.push_back(std::move(round.ops));
    calibration.push_back(std::move(samples));
  } while (WallSeconds() - start < args.seconds);

  EndToEnd e2e;
  e2e.peak_rss_mb = PeakRssMb();
  e2e.SetOperationCosts(costs, calibration, setup_mark);
  result.metrics = EndToEndMetrics(e2e);
  return result;
}

std::vector<std::string> SelfTestSim(Fault fault) {
  Shape shape = OverloadShape();
  shape.globals = 40;
  const Input input = Generate(shape, MixSeed(7, 0));
  return RunWorld(shape, input, shape.worlds[0], fault, true, nullptr,
                  nullptr)
      .problems;
}

}  // namespace perfbench
