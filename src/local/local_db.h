#ifndef O2PC_LOCAL_LOCAL_DB_H_
#define O2PC_LOCAL_LOCAL_DB_H_

#include <functional>
#include <map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "local/local_txn.h"
#include "lock/lock_manager.h"
#include "sg/conflict_tracker.h"
#include "sim/simulator.h"
#include "storage/recovery.h"
#include "storage/table.h"
#include "storage/wal.h"

/// \file
/// One site's autonomous DBMS: strict-2PL locking, WAL + undo rollback,
/// versioned storage, and online conflict tracking. Local transactions use
/// Begin/Execute/CommitLocal/AbortLocal. The commit layer (core) drives
/// subtransactions through the additional verbs that differentiate 2PC
/// from O2PC:
///
///   * ReleaseSharedLocks  — distributed 2PL at VOTE-REQ;
///   * LocallyCommit       — O2PC's early release at vote time;
///   * FinalizeCommit      — DECISION = commit;
///   * RollbackSubtxn      — abort vote or DECISION = abort before
///                           local-commit (undo attributed to CT_i);
///   * CompensationPlan    — the counter-operations a CT must replay after
///                           a locally-committed subtransaction must be
///                           semantically undone.

namespace o2pc::local {

/// Completion callback of Execute: the read/new value, or the failure that
/// aborted the operation (kDeadlock, kConflict, kNotFound, ...).
using OpCallback = std::function<void(Result<Value>)>;

class LocalDb {
 public:
  struct Options {
    SiteId site = 0;
    /// CPU cost charged per applied operation.
    Duration op_cost = Micros(100);
    /// A lock wait longer than this fails with kDeadlock (0 disables).
    /// Local waits-for detection handles same-site deadlocks; this timeout
    /// is the standard resolution for *distributed* deadlocks, which no
    /// single site can see. Each wait's actual bound is jittered in
    /// [timeout, 2*timeout] so that symmetric distributed deadlocks pick a
    /// single victim instead of killing both parties in lockstep.
    Duration lock_wait_timeout = Millis(300);
    /// Seed for the timeout jitter (deterministic per site/run).
    std::uint64_t seed = 0;
    lock::LockManager::Options lock_options;
  };

  LocalDb(sim::Simulator* simulator, Options options);
  LocalDb(const LocalDb&) = delete;
  LocalDb& operator=(const LocalDb&) = delete;

  /// Loads `value` under `key` outside any transaction (initial state).
  void Preload(DataKey key, Value value);

  // --- Transaction lifecycle -------------------------------------------

  /// Registers a transaction. `id` must be unique site-wide per execution
  /// attempt. For kCompensating, `global_id` names the forward transaction
  /// being compensated; for kGlobal it must equal the global transaction's
  /// id (defaulted).
  void Begin(TxnId id, TxnKind kind, TxnId global_id = kInvalidTxn);

  /// Executes one operation: acquires the lock (possibly waiting), charges
  /// `op_cost`, applies, records undo + compensation info, and completes
  /// through `callback`. A transaction may run one operation at a time.
  void Execute(TxnId id, const Operation& op, OpCallback callback);

  /// Commits a local or compensating transaction: flushes SG records,
  /// WAL-commits, releases all locks.
  void CommitLocal(TxnId id);

  /// Aborts a local (or partially executed compensating) transaction:
  /// cancels any lock wait, undoes from the WAL restoring original
  /// provenance, releases locks. Leaves no SG trace.
  void AbortLocal(TxnId id);

  // --- Subtransaction verbs driven by the commit layer ------------------

  /// Distributed 2PL refinement: drop shared locks at VOTE-REQ, enter
  /// kPrepared. `coordinator` / `peers` are force-logged with the prepared
  /// record so a post-crash recovery can direct DECISION-REQ/termination
  /// queries without any volatile state.
  void PrepareAndReleaseShared(TxnId id, SiteId coordinator = kInvalidSite,
                               std::vector<SiteId> peers = {});

  /// O2PC: the site votes commit and immediately exposes the
  /// subtransaction — WAL commit, *all* locks released, state
  /// kLocallyCommitted. SG records flush now (this is the moment the
  /// updates join the site's visible history). `coordinator` / `peers` are
  /// force-logged as for PrepareAndReleaseShared.
  void LocallyCommit(TxnId id, SiteId coordinator = kInvalidSite,
                     std::vector<SiteId> peers = {});

  /// DECISION = commit. For kPrepared (2PC) this durably commits and
  /// releases everything; for kLocallyCommitted it finalizes bookkeeping.
  /// Deferred real actions execute now (returned to the caller).
  std::vector<Operation> FinalizeCommit(TxnId id);

  /// Rolls back a subtransaction whose locks are still held (abort vote,
  /// or 2PC DECISION = abort). The undo is an exact restore leaving no SG
  /// or provenance trace: with exclusive locks covering every written key
  /// from first write through the undo, the rollback is invisible — an
  /// ordinary 2PL abort, not a compensating transaction (CTs exist only
  /// for exposed, locally-committed subtransactions).
  void RollbackSubtxn(TxnId id);

  /// Counter-operations for compensating a locally-committed
  /// subtransaction, already reversed into replay order.
  std::vector<Operation> CompensationPlan(TxnId id) const;

  /// Records that a locally-committed subtransaction has been
  /// compensated-for (terminal transition to kAborted; the CT itself ran
  /// as its own transaction). Logs kGlobalFinal, closing the pending
  /// window crash recovery watches.
  void MarkCompensated(TxnId id);

  // --- Crash / recovery / checkpointing ---------------------------------

  /// Simulates a site crash followed by immediate restart-recovery. All
  /// volatile state (lock table, transaction records) is lost; the table
  /// and WAL survive (the table is the force-written store of this
  /// undo/no-redo scheme). Recovery:
  ///   * losers (active transactions) are rolled back from the WAL — for
  ///     global subtransactions the undo is attributed to CT_i;
  ///   * *prepared* (2PC) subtransactions survive with their exclusive
  ///     locks re-acquired from the WAL (recovery locks), keeping the 2PC
  ///     promise;
  ///   * *locally-committed* subtransactions whose global fate is unknown
  ///     (kLocallyCommitted without kGlobalFinal) are rebuilt as pending;
  ///     their compensation plans are recoverable from the logged
  ///     counter-operations — persistence of compensation across crashes.
  /// Returns the rolled-back loser ids.
  std::vector<TxnId> Crash();

  /// Bumped on every Crash(); pre-crash callbacks compare epochs and
  /// abandon themselves.
  std::uint64_t epoch() const { return epoch_; }

  /// An exposed subtransaction whose global decision is still pending.
  struct PendingExposed {
    TxnId local_id = kInvalidTxn;
    TxnId global_id = kInvalidTxn;
    /// Coordinator / peer set force-logged with the vote record
    /// (kInvalidSite / empty on records that predate the extension).
    SiteId coordinator = kInvalidSite;
    std::vector<SiteId> participants;
  };
  /// Locally-committed subtransactions without a terminal kGlobalFinal,
  /// per the WAL (survives crashes).
  std::vector<PendingExposed> PendingExposedSubtxns() const;

  /// A prepared (2PC) subtransaction awaiting its decision, per the WAL.
  std::vector<PendingExposed> PendingPreparedSubtxns() const;

  /// Rebuilds a compensation plan from the WAL's logged counter-operations
  /// (replay order). Works after a crash, when the in-memory record is
  /// gone.
  std::vector<Operation> CompensationPlanFromWal(TxnId id) const;

  /// Fuzzy checkpoint: logs the in-flight transaction set and truncates
  /// the WAL below the recovery low-watermark (the oldest record still
  /// needed to roll back an in-flight transaction or compensate a pending
  /// exposed one).
  void Checkpoint();

  /// Transactions currently holding undo obligations (active/prepared).
  std::vector<TxnId> ActiveTxnIds() const;

  // --- Introspection -----------------------------------------------------

  bool HasTxn(TxnId id) const { return txns_.contains(id); }
  LocalTxnState TxnState(TxnId id) const;
  /// The global transaction a (sub)transaction belongs to.
  TxnId GlobalIdOf(TxnId id) const;
  TxnKind KindOf(TxnId id) const;
  bool HasRealAction(TxnId id) const;

  SiteId site() const { return options_.site; }
  const storage::Table& table() const { return table_; }
  const storage::Wal& wal() const { return wal_; }
  lock::LockManager& lock_manager() { return locks_; }
  const lock::LockManager& lock_manager() const { return locks_; }
  sg::ConflictTracker& tracker() { return tracker_; }
  const sg::ConflictTracker& tracker() const { return tracker_; }

  /// Count of real actions actually performed (at commit decisions).
  std::uint64_t real_actions_performed() const {
    return real_actions_performed_;
  }

 private:
  LocalTxnRec& Rec(TxnId id);
  const LocalTxnRec& Rec(TxnId id) const;

  /// Applies `op` after its lock is granted; returns the operation result
  /// and appends undo/compensation/SG bookkeeping to `rec`.
  Result<Value> ApplyOp(LocalTxnRec& rec, const Operation& op);

  /// Moves buffered access/provenance records into the conflict tracker.
  void FlushSgRecords(LocalTxnRec& rec);

  sim::Simulator* simulator_;  // not owned
  Options options_;
  Rng rng_;
  storage::Table table_;
  storage::Wal wal_;
  /// Emptied on Crash() — lock state is volatile; its LockStats are not.
  lock::LockManager locks_;
  sg::ConflictTracker tracker_;
  std::map<TxnId, LocalTxnRec> txns_;
  std::uint64_t real_actions_performed_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace o2pc::local

#endif  // O2PC_LOCAL_LOCAL_DB_H_
