// Site crash & recovery: WAL-driven rollback of losers, survival of
// prepared (2PC) subtransactions with recovery locks, persistence of
// compensation across crashes (plans rebuilt from logged
// counter-operations), checkpoint/truncation, and whole-protocol recovery
// through coordinator retransmission.

#include <gtest/gtest.h>

#include "campaign/fault_plan.h"
#include "campaign/injector.h"
#include "core/system.h"
#include "local/local_db.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace o2pc {
namespace {

// --- LocalDb-level recovery ------------------------------------------------

class LocalCrashTest : public ::testing::Test {
 protected:
  LocalCrashTest() : db_(&sim_, Options()) {
    db_.Preload(1, 100);
    db_.Preload(2, 200);
  }

  static local::LocalDb::Options Options() {
    local::LocalDb::Options options;
    options.site = 0;
    options.op_cost = Micros(10);
    return options;
  }

  void Exec(TxnId txn, local::Operation op) {
    bool ok = false;
    db_.Execute(txn, op, [&](Result<Value> r) { ok = r.ok(); });
    sim_.Run();
    ASSERT_TRUE(ok);
  }

  sim::Simulator sim_;
  local::LocalDb db_;
};

TEST_F(LocalCrashTest, ActiveTransactionsRollBack) {
  db_.Begin(10, TxnKind::kLocal);
  Exec(10, {local::OpType::kWrite, 1, 999});
  const std::uint64_t epoch_before = db_.epoch();
  std::vector<TxnId> losers = db_.Crash();
  EXPECT_EQ(losers, std::vector<TxnId>{10});
  EXPECT_EQ(db_.table().Get(1)->value, 100);
  EXPECT_EQ(db_.TxnState(10), local::LocalTxnState::kAborted);
  EXPECT_GT(db_.epoch(), epoch_before);
}

TEST_F(LocalCrashTest, ActiveGlobalSubtxnRollsBackInvisibly) {
  db_.Begin(10, TxnKind::kGlobal, 7);
  Exec(10, {local::OpType::kIncrement, 1, 50});
  db_.Crash();
  EXPECT_EQ(db_.table().Get(1)->value, 100);
  // A crash-time loser is pre-vote: its locks covered everything, nothing
  // was exposed, and it must leave no SG trace (the coordinator may
  // re-execute the same global transaction here after its resend).
  EXPECT_EQ(db_.table().Get(1)->writer.id, 0u);  // original provenance
  sg::SerializationGraph graph = db_.tracker().BuildGraph();
  EXPECT_FALSE(graph.HasNode(sg::GlobalNode(7)));
  EXPECT_FALSE(graph.HasNode(sg::CompNode(7)));
}

TEST_F(LocalCrashTest, PreparedSubtxnSurvivesWithRecoveryLocks) {
  db_.Begin(10, TxnKind::kGlobal, 7);
  Exec(10, {local::OpType::kIncrement, 1, 50});
  db_.PrepareAndReleaseShared(10);
  db_.Crash();
  // The update survives, the state survives, and the key is re-locked.
  EXPECT_EQ(db_.table().Get(1)->value, 150);
  EXPECT_EQ(db_.TxnState(10), local::LocalTxnState::kPrepared);
  sim_.Run();  // drain recovery-lock grants
  EXPECT_TRUE(db_.lock_manager().Holds(10, 1, lock::LockMode::kExclusive));
  // A commit decision later finalizes it.
  db_.FinalizeCommit(10);
  EXPECT_EQ(db_.TxnState(10), local::LocalTxnState::kCommitted);
  EXPECT_FALSE(db_.lock_manager().Holds(10, 1, lock::LockMode::kShared));
}

TEST_F(LocalCrashTest, LocallyCommittedPendingSurvives) {
  db_.Begin(10, TxnKind::kGlobal, 7);
  Exec(10, {local::OpType::kIncrement, 1, 50});
  Exec(10, {local::OpType::kInsert, 5, 11});
  db_.LocallyCommit(10);
  db_.Crash();
  // Exposed updates survive; the pending window is visible in the WAL.
  EXPECT_EQ(db_.table().Get(1)->value, 150);
  auto pending = db_.PendingExposedSubtxns();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].local_id, 10u);
  EXPECT_EQ(pending[0].global_id, 7u);
  // The compensation plan rebuilds from the WAL (the in-memory log was
  // wiped by the crash) in reverse order.
  std::vector<local::Operation> plan = db_.CompensationPlan(10);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].type, local::OpType::kErase);
  EXPECT_EQ(plan[0].key, 5u);
  EXPECT_EQ(plan[1].type, local::OpType::kIncrement);
  EXPECT_EQ(plan[1].value, -50);
}

TEST_F(LocalCrashTest, PendingWindowClosesOnFinalization) {
  db_.Begin(10, TxnKind::kGlobal, 7);
  Exec(10, {local::OpType::kIncrement, 1, 50});
  db_.LocallyCommit(10);
  db_.FinalizeCommit(10);
  db_.Crash();
  EXPECT_TRUE(db_.PendingExposedSubtxns().empty());
}

TEST_F(LocalCrashTest, CommittedWorkUntouchedByCrash) {
  db_.Begin(10, TxnKind::kLocal);
  Exec(10, {local::OpType::kWrite, 1, 777});
  db_.CommitLocal(10);
  db_.Crash();
  EXPECT_EQ(db_.table().Get(1)->value, 777);
}

TEST_F(LocalCrashTest, CheckpointTruncatesSettledHistory) {
  for (int i = 0; i < 5; ++i) {
    const TxnId txn = 100 + i;
    db_.Begin(txn, TxnKind::kLocal);
    Exec(txn, {local::OpType::kIncrement, 1, 1});
    db_.CommitLocal(txn);
  }
  const std::size_t before = db_.wal().size();
  db_.Checkpoint();
  EXPECT_LT(db_.wal().size(), before);
  // Everything settled: only the checkpoint record remains.
  EXPECT_EQ(db_.wal().size(), 1u);
  EXPECT_EQ(db_.wal().records().front().kind,
            storage::LogRecordKind::kCheckpoint);
}

TEST_F(LocalCrashTest, CheckpointRetainsInFlightUndo) {
  db_.Begin(10, TxnKind::kLocal);
  Exec(10, {local::OpType::kWrite, 1, 999});
  db_.Checkpoint();
  // The in-flight transaction's records must survive truncation so a
  // crash can still undo it.
  EXPECT_FALSE(db_.wal().TxnUpdates(10).empty());
  db_.Crash();
  EXPECT_EQ(db_.table().Get(1)->value, 100);
}

TEST_F(LocalCrashTest, CheckpointRetainsPendingCompensationInfo) {
  db_.Begin(10, TxnKind::kGlobal, 7);
  Exec(10, {local::OpType::kIncrement, 1, 50});
  db_.LocallyCommit(10);
  db_.Checkpoint();
  db_.Crash();
  std::vector<local::Operation> plan = db_.CompensationPlan(10);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].value, -50);
}

// --- System-level crash recovery -------------------------------------------

core::SystemOptions CrashSystemOptions() {
  core::SystemOptions options;
  options.num_sites = 2;
  options.keys_per_site = 16;
  options.seed = 77;
  options.protocol.resend_timeout = Millis(40);
  options.protocol.max_resends = 100;
  return options;
}

TEST(SystemCrashTest, ExposedSubtxnCompensatedAfterCrash) {
  // Site 0 locally commits, then crashes before the abort decision (site 1
  // votes abort) can be processed. After recovery the resent DECISION
  // finds no runtime, rebuilds the pending subtransaction from the WAL,
  // and compensates using the logged counter-operations.
  core::SystemOptions options = CrashSystemOptions();
  core::DistributedSystem system(options);
  core::GlobalTxnSpec spec = workload::MakeTransfer(0, 1, 1, 2, 100);
  spec.subtxns[1].force_abort_vote = true;
  bool done = false;
  core::GlobalResult result;
  system.SubmitGlobal(spec, [&](const core::GlobalResult& r) {
    done = true;
    result = r;
  });
  // Crash site 0 right after its vote (it votes at ~11ms with default 5ms
  // latency); recover after 100ms.
  system.simulator().ScheduleAt(Millis(13), [&] {
    system.CrashSite(0, Millis(100));
  });
  system.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.committed);
  // Semantic atomicity across the crash: the debit was compensated.
  EXPECT_EQ(system.db(0).table().Get(1)->value, 1000);
  EXPECT_EQ(system.db(1).table().Get(2)->value, 1000);
  EXPECT_EQ(system.stats().Count("site_crashes"), 1u);
  EXPECT_GE(system.stats().Count("compensations_committed"), 1u);
}

TEST(SystemCrashTest, CommitSurvivesParticipantCrashAfterVote) {
  // Site 0 locally commits (O2PC), crashes, and the decision is COMMIT:
  // recovery finds the pending-exposed subtransaction and finalizes it.
  core::SystemOptions options = CrashSystemOptions();
  core::DistributedSystem system(options);
  bool done = false;
  core::GlobalResult result;
  system.SubmitGlobal(workload::MakeTransfer(0, 1, 1, 2, 100),
                      [&](const core::GlobalResult& r) {
                        done = true;
                        result = r;
                      });
  system.simulator().ScheduleAt(Millis(13), [&] {
    system.CrashSite(0, Millis(100));
  });
  system.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(system.db(0).table().Get(1)->value, 900);
  EXPECT_EQ(system.db(1).table().Get(2)->value, 1100);
}

TEST(SystemCrashTest, TwoPcPreparedSurvivesCrashAndCommits) {
  core::SystemOptions options = CrashSystemOptions();
  options.protocol.protocol = core::CommitProtocol::kTwoPhaseCommit;
  core::DistributedSystem system(options);
  bool done = false;
  core::GlobalResult result;
  system.SubmitGlobal(workload::MakeTransfer(0, 1, 1, 2, 100),
                      [&](const core::GlobalResult& r) {
                        done = true;
                        result = r;
                      });
  system.simulator().ScheduleAt(Millis(13), [&] {
    system.CrashSite(0, Millis(100));
  });
  system.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(system.db(0).table().Get(1)->value, 900);
}

// A crash empties the lock table but not the site's LockStats: summed
// counters only ever grow, so a crash run's lock figures cover the whole
// run rather than restarting at the last crash.
TEST(SystemCrashTest, LockStatsNeverGoDownAcrossACrash) {
  core::SystemOptions options = CrashSystemOptions();
  core::DistributedSystem system(options);
  workload::WorkloadOptions load;
  load.num_global_txns = 40;
  load.num_local_txns = 40;
  load.mean_global_interarrival = Millis(1);
  load.mean_local_interarrival = Millis(1);
  workload::WorkloadGenerator generator(options.num_sites,
                                        options.keys_per_site, load);
  generator.Drive(system);

  struct Totals {
    std::uint64_t acquires = 0;
    std::uint64_t waits = 0;
  };
  auto summed = [&system, &options] {
    Totals totals;
    for (int s = 0; s < options.num_sites; ++s) {
      const lock::LockStats& stats =
          system.db(static_cast<SiteId>(s)).lock_manager().stats();
      totals.acquires += stats.acquires;
      totals.waits += stats.waits;
    }
    return totals;
  };
  std::vector<Totals> before_crash;
  for (SimTime at : {Millis(20), Millis(70)}) {
    system.simulator().ScheduleAt(at, [&] {
      const Totals before = summed();
      system.CrashSite(0, Millis(30));
      const Totals after = summed();
      EXPECT_GE(after.acquires, before.acquires);
      EXPECT_GE(after.waits, before.waits);
      before_crash.push_back(before);
    });
  }
  system.Run();

  ASSERT_EQ(before_crash.size(), 2u);
  EXPECT_GT(before_crash[0].waits, 0u);  // contended before the first crash
  EXPECT_GE(before_crash[1].acquires, before_crash[0].acquires);
  EXPECT_GE(before_crash[1].waits, before_crash[0].waits);
  EXPECT_GE(summed().acquires, before_crash[1].acquires);
  EXPECT_GE(summed().waits, before_crash[1].waits);
  EXPECT_EQ(system.stats().Count("site_crashes"), 2u);
}

TEST(SystemCrashTest, CrashDuringExecutionRestartsAndCommits) {
  // Crash site 1 while the transaction is still executing there: the
  // in-flight subtransaction is a loser; the coordinator's retries /
  // the system's restart eventually push the work through.
  core::SystemOptions options = CrashSystemOptions();
  core::DistributedSystem system(options);
  bool done = false;
  core::GlobalResult result;
  system.SubmitGlobal(workload::MakeTransfer(0, 1, 1, 2, 100),
                      [&](const core::GlobalResult& r) {
                        done = true;
                        result = r;
                      });
  // The invoke reaches site 1 at ~10.5ms; crash it mid-execution.
  system.simulator().ScheduleAt(Micros(10'700), [&] {
    system.CrashSite(1, Millis(80));
  });
  system.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(system.db(0).table().Get(1)->value, 900);
  EXPECT_EQ(system.db(1).table().Get(2)->value, 1100);
  sg::CorrectnessReport report = system.Analyze();
  EXPECT_TRUE(report.correct) << report.Summary();
}

TEST(SystemCrashTest, ConservationHoldsAcrossRandomCrashes) {
  core::SystemOptions options = CrashSystemOptions();
  options.num_sites = 3;
  core::DistributedSystem system(options);
  const Value before = system.TotalValue();
  for (int i = 0; i < 12; ++i) {
    core::GlobalTxnSpec spec = workload::MakeTransfer(
        static_cast<SiteId>(i % 3), i % 8, static_cast<SiteId>((i + 1) % 3),
        (i + 3) % 8, 10 + i);
    if (i % 4 == 0) spec.subtxns[1].force_abort_vote = true;
    system.SubmitGlobal(spec);
  }
  // Two staggered crashes while traffic flows.
  system.simulator().ScheduleAt(Millis(9), [&] {
    system.CrashSite(1, Millis(60));
  });
  system.simulator().ScheduleAt(Millis(30), [&] {
    system.CrashSite(2, Millis(60));
  });
  system.Run();
  EXPECT_EQ(system.TotalValue(), before);
  EXPECT_EQ(system.globals_finished(), 12u);
  sg::CorrectnessReport report = system.Analyze();
  EXPECT_TRUE(report.correct) << report.Summary();
}

TEST(SystemCrashTest, PeriodicCheckpointsTruncateAndStaySafe) {
  core::SystemOptions options = CrashSystemOptions();
  options.checkpoint_interval = Millis(20);
  core::DistributedSystem system(options);
  const Value before = system.TotalValue();
  for (int i = 0; i < 10; ++i) {
    core::GlobalTxnSpec spec = workload::MakeTransfer(
        0, static_cast<DataKey>(i), 1, static_cast<DataKey>(i + 1), 5);
    if (i % 3 == 0) spec.subtxns[1].force_abort_vote = true;
    system.SubmitGlobal(spec);
  }
  system.simulator().ScheduleAt(Millis(25), [&] {
    system.CrashSite(0, Millis(40));
  });
  system.Run();
  EXPECT_GT(system.stats().Count("checkpoints"), 0u);
  // Truncation really happened (the retained log is a suffix).
  EXPECT_GT(system.db(0).wal().base_lsn(), 1u);
  EXPECT_EQ(system.TotalValue(), before);
  EXPECT_EQ(system.globals_finished(), 10u);
  sg::CorrectnessReport report = system.Analyze();
  EXPECT_TRUE(report.correct) << report.Summary();
}

// --- Step-indexed crash points (via the fault-campaign injector) -----------

TEST(SystemCrashTest, CoordinatorCrashBeforeDecisionViaStepPoint) {
  // The coordinator reaches its decision, force-logs it, and crashes
  // before broadcasting (the classic in-doubt window). Recovery re-reads
  // the log and rebroadcasts; the participants were never told anything
  // contradictory, so the transfer still commits exactly once.
  core::SystemOptions options = CrashSystemOptions();
  core::DistributedSystem system(options);
  campaign::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      campaign::FaultPlan::Parse("coordinator_crash occurrence=0\n", &plan,
                                 &error))
      << error;
  campaign::FaultInjector injector(&system, plan);
  injector.Arm();
  const Value before = system.TotalValue();
  bool done = false;
  core::GlobalResult result;
  system.SubmitGlobal(workload::MakeTransfer(0, 1, 1, 2, 100),
                      [&](const core::GlobalResult& r) {
                        done = true;
                        result = r;
                      });
  system.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(injector.faults_triggered(), 1);
  EXPECT_EQ(system.stats().Count("coordinator_crashes"), 1u);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(system.db(0).table().Get(1)->value, 900);
  EXPECT_EQ(system.db(1).table().Get(2)->value, 1100);
  EXPECT_EQ(system.TotalValue(), before);
}

TEST(SystemCrashTest, CrashDuringCompensationViaStepPoint) {
  // Site 0 exposes its debit, the decision is ABORT (site 1 votes no),
  // and the site crashes the instant its compensating transaction starts.
  // Recovery must rebuild the CT from the WAL's counter-operations and
  // run it to completion: conservation holds despite the crash landing
  // inside the compensation window.
  core::SystemOptions options = CrashSystemOptions();
  core::DistributedSystem system(options);
  campaign::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(campaign::FaultPlan::Parse(
      "crash site=0 step=compensation_begin occurrence=0 outage_us=60000\n",
      &plan, &error))
      << error;
  campaign::FaultInjector injector(&system, plan);
  injector.Arm();
  const Value before = system.TotalValue();
  core::GlobalTxnSpec spec = workload::MakeTransfer(0, 1, 1, 2, 100);
  spec.subtxns[1].force_abort_vote = true;
  bool done = false;
  core::GlobalResult result;
  system.SubmitGlobal(spec, [&](const core::GlobalResult& r) {
    done = true;
    result = r;
  });
  system.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(injector.faults_triggered(), 1);
  EXPECT_EQ(system.stats().Count("site_crashes"), 1u);
  EXPECT_FALSE(result.committed);
  EXPECT_GE(system.stats().Count("compensations_committed"), 1u);
  EXPECT_EQ(system.db(0).table().Get(1)->value, 1000);
  EXPECT_EQ(system.db(1).table().Get(2)->value, 1000);
  EXPECT_EQ(system.TotalValue(), before);
  sg::CorrectnessReport report = system.Analyze();
  EXPECT_TRUE(report.correct) << report.Summary();
}

}  // namespace
}  // namespace o2pc
