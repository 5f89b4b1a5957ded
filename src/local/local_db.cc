#include "local/local_db.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "trace/trace.h"

namespace o2pc::local {

namespace {

/// The lock manager labels its trace events with the owning site.
lock::LockManager::Options LockOptionsFor(const LocalDb::Options& options) {
  lock::LockManager::Options lock_options = options.lock_options;
  lock_options.site = options.site;
  return lock_options;
}

}  // namespace

LocalDb::LocalDb(sim::Simulator* simulator, Options options)
    : simulator_(simulator),
      options_(options),
      rng_(options.seed ^ (static_cast<std::uint64_t>(options.site) * 7919 +
                           0x5bd1e995ULL)),
      locks_(simulator, LockOptionsFor(options)),
      tracker_(options.site) {
  O2PC_CHECK(simulator != nullptr);
}

void LocalDb::Preload(DataKey key, Value value) {
  table_.Put(key, value, storage::WriterTag{});
}

void LocalDb::Begin(TxnId id, TxnKind kind, TxnId global_id) {
  O2PC_CHECK(id != kInvalidTxn);
  O2PC_CHECK(!txns_.contains(id))
      << "txn " << id << " already exists at site " << options_.site;
  LocalTxnRec rec;
  rec.id = id;
  rec.kind = kind;
  rec.global_id = kind == TxnKind::kGlobal && global_id == kInvalidTxn
                      ? id
                      : global_id;
  if (kind == TxnKind::kCompensating) {
    O2PC_CHECK(global_id != kInvalidTxn)
        << "compensating txn must name its forward transaction";
  }
  rec.begin_time = simulator_->Now();
  {
    storage::LogRecord r;
    r.kind = storage::LogRecordKind::kBegin;
    r.txn = id;
    if (kind == TxnKind::kGlobal) {
      r.aux = static_cast<std::int64_t>(rec.global_id);
    }
    wal_.Append(std::move(r));
  }
  if (kind == TxnKind::kCompensating) {
    storage::LogRecord r;
    r.kind = storage::LogRecordKind::kCompensationBegin;
    r.txn = id;
    r.aux = static_cast<std::int64_t>(global_id);
    wal_.Append(std::move(r));
  }
  txns_.emplace(id, std::move(rec));
}

LocalTxnRec& LocalDb::Rec(TxnId id) {
  auto it = txns_.find(id);
  O2PC_CHECK(it != txns_.end())
      << "unknown txn " << id << " at site " << options_.site;
  return it->second;
}

const LocalTxnRec& LocalDb::Rec(TxnId id) const {
  auto it = txns_.find(id);
  O2PC_CHECK(it != txns_.end())
      << "unknown txn " << id << " at site " << options_.site;
  return it->second;
}

void LocalDb::Execute(TxnId id, const Operation& op, OpCallback callback) {
  LocalTxnRec& rec = Rec(id);
  if (rec.state != LocalTxnState::kActive) {
    // A crash (or racing abort) terminated this transaction between the
    // caller's decision to issue the operation and now.
    simulator_->Schedule(0, [cb = std::move(callback)] {
      cb(Status::Aborted("txn no longer active"));
    });
    return;
  }
  const lock::LockMode mode = IsWriteOp(op.type)
                                  ? lock::LockMode::kExclusive
                                  : lock::LockMode::kShared;
  // Arm the distributed-deadlock timeout; cancelled the moment the lock is
  // granted (or the wait fails for another reason).
  auto timeout_event = std::make_shared<sim::EventId>(sim::kInvalidEvent);
  if (options_.lock_wait_timeout > 0) {
    const Duration bound = options_.lock_wait_timeout +
                           rng_.Uniform(0, options_.lock_wait_timeout);
    *timeout_event = simulator_->Schedule(bound, [this, id] {
      locks_.CancelWaits(id, Status::Deadlock("lock wait timeout"));
    });
  }
  locks_.Acquire(
      id, op.key, mode,
      [this, id, op, timeout_event,
       cb = std::move(callback)](const Status& status) {
        if (*timeout_event != sim::kInvalidEvent) {
          simulator_->Cancel(*timeout_event);
        }
        if (!status.ok()) {
          cb(status);
          return;
        }
        simulator_->Schedule(options_.op_cost, [this, id, op, cb,
                                                epoch = epoch_] {
          auto it = txns_.find(id);
          if (epoch != epoch_ || it == txns_.end()) {
            // The site crashed (or the record vanished) between the lock
            // grant and the apply: the pre-crash work is void.
            cb(Status::Aborted("site crashed"));
            return;
          }
          LocalTxnRec& rec = it->second;
          if (rec.state != LocalTxnState::kActive) {
            // The transaction was aborted between grant and apply.
            cb(Status::Aborted("txn no longer active"));
            return;
          }
          cb(ApplyOp(rec, op));
        });
      });
}

Result<Value> LocalDb::ApplyOp(LocalTxnRec& rec, const Operation& op) {
  const storage::WriterTag tag{
      rec.kind == TxnKind::kLocal ? rec.id : rec.global_id, rec.kind};
  switch (op.type) {
    case OpType::kRead: {
      Result<storage::Cell> cell = table_.Get(op.key);
      if (!cell.ok()) return cell.status();
      rec.accesses.emplace_back(op.key, false);
      rec.reads_from.push_back(cell->writer);
      return cell->value;
    }
    case OpType::kWrite: {
      Result<storage::Cell> before = table_.Get(op.key);
      std::optional<storage::Cell> before_img;
      if (before.ok()) before_img = *before;
      table_.Put(op.key, op.value, tag);
      Operation counter = before_img.has_value()
                              ? Operation{OpType::kWrite, op.key,
                                          before_img->value}
                              : Operation{OpType::kErase, op.key, 0};
      wal_.LogUpdate(rec.id, op.key, before_img, *table_.Get(op.key),
                     static_cast<std::uint8_t>(counter.type) + 1,
                     counter.key, counter.value);
      rec.compensation_log.push_back(counter);
      rec.accesses.emplace_back(op.key, true);
      return op.value;
    }
    case OpType::kIncrement: {
      Result<storage::Cell> cell = table_.Get(op.key);
      if (!cell.ok()) return cell.status();
      const Value new_value = cell->value + op.value;
      rec.reads_from.push_back(cell->writer);
      table_.Put(op.key, new_value, tag);
      wal_.LogUpdate(
          rec.id, op.key, *cell, *table_.Get(op.key),
          static_cast<std::uint8_t>(OpType::kIncrement) + 1, op.key,
          -op.value);
      rec.compensation_log.push_back(
          Operation{OpType::kIncrement, op.key, -op.value});
      rec.accesses.emplace_back(op.key, true);
      return new_value;
    }
    case OpType::kInsert: {
      if (table_.Contains(op.key)) {
        return Status::Conflict(StrCat("insert: key ", op.key, " exists"));
      }
      table_.Put(op.key, op.value, tag);
      wal_.LogUpdate(rec.id, op.key, std::nullopt, *table_.Get(op.key),
                     static_cast<std::uint8_t>(OpType::kErase) + 1, op.key,
                     0);
      rec.compensation_log.push_back(Operation{OpType::kErase, op.key, 0});
      rec.accesses.emplace_back(op.key, true);
      return op.value;
    }
    case OpType::kErase: {
      Result<storage::Cell> cell = table_.Get(op.key);
      if (!cell.ok()) return cell.status();
      wal_.LogUpdate(rec.id, op.key, *cell, std::nullopt,
                     static_cast<std::uint8_t>(OpType::kInsert) + 1, op.key,
                     cell->value);
      Status erased = table_.Erase(op.key, tag);
      O2PC_CHECK(erased.ok());
      rec.compensation_log.push_back(
          Operation{OpType::kInsert, op.key, cell->value});
      rec.accesses.emplace_back(op.key, true);
      return cell->value;
    }
    case OpType::kRealAction: {
      rec.has_real_action = true;
      rec.deferred_real_actions.push_back(op);
      rec.accesses.emplace_back(op.key, true);
      return Value{0};
    }
  }
  return Status::Internal("unhandled op type");
}

void LocalDb::FlushSgRecords(LocalTxnRec& rec) {
  const sg::NodeRef node = rec.Node();
  for (const auto& [key, is_write] : rec.accesses) {
    tracker_.RecordAccess(node, key, is_write);
  }
  for (const storage::WriterTag& tag : rec.reads_from) {
    tracker_.RecordReadFrom(node, sg::NodeRef{tag.id, tag.kind});
  }
  rec.accesses.clear();
  rec.reads_from.clear();
}

void LocalDb::CommitLocal(TxnId id) {
  LocalTxnRec& rec = Rec(id);
  O2PC_CHECK(rec.state == LocalTxnState::kActive)
      << "CommitLocal on " << LocalTxnStateName(rec.state);
  O2PC_CHECK(rec.kind != TxnKind::kGlobal)
      << "subtransactions terminate through the commit protocol";
  wal_.LogCommit(id);
  if (rec.kind == TxnKind::kCompensating) {
    storage::LogRecord r;
    r.kind = storage::LogRecordKind::kCompensationCommit;
    r.txn = id;
    r.aux = static_cast<std::int64_t>(rec.global_id);
    wal_.Append(std::move(r));
  }
  FlushSgRecords(rec);
  if (rec.kind == TxnKind::kLocal) tracker_.MarkLocalCommitted(id);
  locks_.ReleaseAll(id);
  rec.state = LocalTxnState::kCommitted;
}

void LocalDb::AbortLocal(TxnId id) {
  LocalTxnRec& rec = Rec(id);
  O2PC_CHECK(rec.state == LocalTxnState::kActive)
      << "AbortLocal on " << LocalTxnStateName(rec.state);
  locks_.CancelWaits(id, Status::Aborted("txn aborting"));
  // Exact restore: an aborted local (or CT attempt) leaves no SG trace.
  storage::RollbackTxn(wal_, table_, id, storage::WriterTag{});
  rec.accesses.clear();
  rec.reads_from.clear();
  rec.compensation_log.clear();
  rec.deferred_real_actions.clear();
  locks_.ReleaseAll(id);
  rec.state = LocalTxnState::kAborted;
}

void LocalDb::PrepareAndReleaseShared(TxnId id, SiteId coordinator,
                                      std::vector<SiteId> peers) {
  LocalTxnRec& rec = Rec(id);
  O2PC_CHECK(rec.state == LocalTxnState::kActive);
  O2PC_CHECK(rec.kind == TxnKind::kGlobal);
  rec.state = LocalTxnState::kPrepared;
  {
    storage::LogRecord r;
    r.kind = storage::LogRecordKind::kPrepared;
    r.txn = id;
    r.aux = static_cast<std::int64_t>(rec.global_id);
    r.coordinator = coordinator;
    r.peers = std::move(peers);
    wal_.Append(std::move(r));
  }
  // The access set is frozen here — a prepared subtransaction never reads
  // or writes again — and the shared-lock release below lets later writers
  // overtake this subtransaction's reads. Flush the SG records now so they
  // land in lock-grant order (the tracker's contract): deferring the flush
  // to the final commit records a late-deciding reader AFTER a writer that
  // overtook it, manufacturing a reversed r->w edge and phantom regular
  // cycles whenever the decision is slow to arrive (e.g. a crashed
  // coordinator whose outcome the participant recovers via DECISION-REQ).
  FlushSgRecords(rec);
  // Journal the prepared transition before the shared-lock releases it
  // permits: only exclusive locks are pinned until the DECISION.
  O2PC_TRACE(kPrepare, options_.site, rec.global_id, id);
  locks_.ReleaseShared(id);
}

void LocalDb::LocallyCommit(TxnId id, SiteId coordinator,
                            std::vector<SiteId> peers) {
  LocalTxnRec& rec = Rec(id);
  O2PC_CHECK(rec.state == LocalTxnState::kActive);
  O2PC_CHECK(rec.kind == TxnKind::kGlobal);
  O2PC_CHECK(!rec.has_real_action)
      << "sites with real actions must keep locks until the decision";
  wal_.LogCommit(id);
  {
    storage::LogRecord r;
    r.kind = storage::LogRecordKind::kLocallyCommitted;
    r.txn = id;
    r.aux = static_cast<std::int64_t>(rec.global_id);
    r.coordinator = coordinator;
    r.peers = std::move(peers);
    wal_.Append(std::move(r));
  }
  FlushSgRecords(rec);
  locks_.ReleaseAll(id);
  // Journaled after the releases: at this instant the subtxn holds nothing
  // (the O2PC early-release invariant the trace checker replays).
  O2PC_TRACE(kLocalCommit, options_.site, rec.global_id, id);
  rec.state = LocalTxnState::kLocallyCommitted;
}

std::vector<Operation> LocalDb::FinalizeCommit(TxnId id) {
  LocalTxnRec& rec = Rec(id);
  O2PC_CHECK(rec.kind == TxnKind::kGlobal);
  if (rec.state == LocalTxnState::kLocallyCommitted) {
    storage::LogRecord r;
    r.kind = storage::LogRecordKind::kGlobalFinal;
    r.txn = id;
    r.aux = static_cast<std::int64_t>(rec.global_id);
    wal_.Append(std::move(r));
    O2PC_TRACE(kFinalCommit, options_.site, rec.global_id, id);
    rec.state = LocalTxnState::kCommitted;
    return {};
  }
  O2PC_CHECK(rec.state == LocalTxnState::kActive ||
             rec.state == LocalTxnState::kPrepared)
      << "FinalizeCommit on " << LocalTxnStateName(rec.state);
  wal_.LogCommit(id);
  {
    storage::LogRecord r;
    r.kind = storage::LogRecordKind::kGlobalFinal;
    r.txn = id;
    r.aux = static_cast<std::int64_t>(rec.global_id);
    wal_.Append(std::move(r));
  }
  FlushSgRecords(rec);
  std::vector<Operation> actions = std::move(rec.deferred_real_actions);
  rec.deferred_real_actions.clear();
  real_actions_performed_ += actions.size();
  locks_.ReleaseAll(id);
  O2PC_TRACE(kFinalCommit, options_.site, rec.global_id, id);
  rec.state = LocalTxnState::kCommitted;
  return actions;
}

void LocalDb::RollbackSubtxn(TxnId id) {
  LocalTxnRec& rec = Rec(id);
  O2PC_CHECK(rec.kind == TxnKind::kGlobal);
  O2PC_CHECK(rec.state == LocalTxnState::kActive ||
             rec.state == LocalTxnState::kPrepared)
      << "RollbackSubtxn on " << LocalTxnStateName(rec.state);
  locks_.CancelWaits(id, Status::Aborted("subtxn rolling back"));
  // The forward accesses stay in the SG (aborted global transactions are SG
  // nodes, per §5). The undo, however, leaves no trace: this subtransaction
  // never locally committed, so its exclusive locks covered every written
  // key continuously from first write through the undo — no observer can
  // distinguish the history from one where the writes never happened. CT
  // nodes belong only to real compensation of *exposed* subtransactions;
  // attributing this invisible undo to a CT manufactures SG edges that can
  // close phantom regular cycles (found by the fault campaign: a partition
  // stretching a mixed-vote window chained CT_i -> T_j through the
  // abort-voting site even though the observable history serializes).
  FlushSgRecords(rec);
  storage::RollbackTxn(wal_, table_, id, storage::WriterTag{});
  rec.compensation_log.clear();
  rec.deferred_real_actions.clear();
  locks_.ReleaseAll(id);
  O2PC_TRACE(kRollback, options_.site, rec.global_id, id);
  rec.state = LocalTxnState::kAborted;
}

std::vector<Operation> LocalDb::CompensationPlan(TxnId id) const {
  const LocalTxnRec& rec = Rec(id);
  if (rec.compensation_log.empty()) {
    // Post-crash: the in-memory log is gone; rebuild from the WAL.
    return CompensationPlanFromWal(id);
  }
  std::vector<Operation> plan(rec.compensation_log.rbegin(),
                              rec.compensation_log.rend());
  return plan;
}

std::vector<Operation> LocalDb::CompensationPlanFromWal(TxnId id) const {
  std::vector<storage::LogRecord> updates = wal_.TxnUpdates(id);
  std::vector<Operation> plan;
  plan.reserve(updates.size());
  for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
    if (it->comp_kind == 0) continue;
    plan.push_back(Operation{static_cast<OpType>(it->comp_kind - 1),
                             it->comp_key, it->comp_value});
  }
  return plan;
}

std::vector<TxnId> LocalDb::ActiveTxnIds() const {
  std::vector<TxnId> active;
  for (const auto& [id, rec] : txns_) {
    if (rec.state == LocalTxnState::kActive ||
        rec.state == LocalTxnState::kPrepared) {
      active.push_back(id);
    }
  }
  return active;
}

std::vector<LocalDb::PendingExposed> LocalDb::PendingExposedSubtxns() const {
  std::map<TxnId, PendingExposed> pending;  // keyed by local id
  for (const storage::LogRecord& r : wal_.records()) {
    if (r.kind == storage::LogRecordKind::kLocallyCommitted) {
      pending[r.txn] = PendingExposed{r.txn, static_cast<TxnId>(r.aux),
                                      r.coordinator, r.peers};
    } else if (r.kind == storage::LogRecordKind::kGlobalFinal) {
      pending.erase(r.txn);
    }
  }
  std::vector<PendingExposed> out;
  for (auto& [local_id, entry] : pending) out.push_back(std::move(entry));
  return out;
}

std::vector<LocalDb::PendingExposed> LocalDb::PendingPreparedSubtxns() const {
  std::map<TxnId, PendingExposed> pending;  // keyed by local id
  for (const storage::LogRecord& r : wal_.records()) {
    switch (r.kind) {
      case storage::LogRecordKind::kPrepared:
        pending[r.txn] = PendingExposed{r.txn, static_cast<TxnId>(r.aux),
                                        r.coordinator, r.peers};
        break;
      case storage::LogRecordKind::kGlobalFinal:
      case storage::LogRecordKind::kAbort:
        pending.erase(r.txn);
        break;
      default:
        break;
    }
  }
  std::vector<PendingExposed> out;
  for (auto& [local_id, entry] : pending) out.push_back(std::move(entry));
  return out;
}

std::vector<TxnId> LocalDb::Crash() {
  ++epoch_;
  // Volatile state is gone: empty lock table (its counters carry over).
  locks_.DropLockTable();

  // Survivors, per the durable log.
  std::set<TxnId> prepared;
  for (const PendingExposed& p : PendingPreparedSubtxns()) {
    prepared.insert(p.local_id);
  }

  // Roll back the losers: every in-flight transaction that is neither
  // prepared nor terminal. The in-memory records still name them (the
  // tracker is an analysis oracle; the records themselves are rebuilt
  // below as a real restart would from the WAL).
  std::vector<TxnId> losers;
  for (auto& [id, rec] : txns_) {
    if (rec.state != LocalTxnState::kActive) continue;
    if (prepared.contains(id)) continue;
    losers.push_back(id);
  }
  for (TxnId id : losers) {
    LocalTxnRec& rec = txns_.at(id);
    // A crash-time loser is pre-vote by definition (prepared and
    // locally-committed states survive), so its locks covered its entire
    // lifetime and nothing was exposed: the rollback is invisible and must
    // leave no SG trace — crucially so, because the coordinator may resend
    // the invoke and *re-execute* the same global transaction here; a
    // ghost T_i/CT_i pair from the first attempt would fabricate a local
    // cycle with the successful retry.
    rec.accesses.clear();
    rec.reads_from.clear();
    storage::RollbackTxn(wal_, table_, id, storage::WriterTag{});
    rec.compensation_log.clear();
    rec.deferred_real_actions.clear();
    O2PC_TRACE(kRollback, options_.site, rec.global_id, id);
    rec.state = LocalTxnState::kAborted;
  }

  // Prepared survivors: re-acquire exclusive locks on their written keys
  // (recovery locks) so the 2PC promise holds across the crash.
  for (TxnId id : prepared) {
    for (const storage::LogRecord& update : wal_.TxnUpdates(id)) {
      locks_.Acquire(id, update.key, lock::LockMode::kExclusive,
                      [](const Status&) {});
    }
  }

  // Exposed-pending subtransactions survive lock-free; wipe their volatile
  // compensation logs so plans demonstrably rebuild from the WAL.
  for (const PendingExposed& p : PendingExposedSubtxns()) {
    auto it = txns_.find(p.local_id);
    if (it != txns_.end()) it->second.compensation_log.clear();
  }
  return losers;
}

void LocalDb::Checkpoint() {
  std::vector<TxnId> needed = ActiveTxnIds();
  const std::vector<TxnId> active = needed;
  for (const PendingExposed& p : PendingExposedSubtxns()) {
    needed.push_back(p.local_id);
  }
  const std::uint64_t checkpoint_lsn = wal_.LogCheckpoint(active);
  wal_.TruncateBelow(std::min(wal_.LowWatermark(needed), checkpoint_lsn));
}

void LocalDb::MarkCompensated(TxnId id) {
  LocalTxnRec& rec = Rec(id);
  O2PC_CHECK(rec.state == LocalTxnState::kLocallyCommitted)
      << "MarkCompensated on " << LocalTxnStateName(rec.state);
  storage::LogRecord r;
  r.kind = storage::LogRecordKind::kGlobalFinal;
  r.txn = id;
  r.aux = static_cast<std::int64_t>(rec.global_id);
  wal_.Append(std::move(r));
  rec.state = LocalTxnState::kAborted;
}

LocalTxnState LocalDb::TxnState(TxnId id) const { return Rec(id).state; }

TxnId LocalDb::GlobalIdOf(TxnId id) const { return Rec(id).global_id; }

TxnKind LocalDb::KindOf(TxnId id) const { return Rec(id).kind; }

bool LocalDb::HasRealAction(TxnId id) const { return Rec(id).has_real_action; }

}  // namespace o2pc::local
