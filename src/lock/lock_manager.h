#ifndef O2PC_LOCK_LOCK_MANAGER_H_
#define O2PC_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/waits_for.h"
#include "sim/callback.h"
#include "sim/simulator.h"

/// \file
/// A strict-2PL lock manager for one site. Shared/exclusive modes, FIFO
/// queues with upgrade priority, callback-based grants (requests never
/// block the simulation thread), waits-for deadlock detection with
/// youngest-victim selection, and the selective-release entry points the
/// commit layer needs:
///
///  * `ReleaseAll`    — local commit/abort, and O2PC's early release at
///                      vote time (the crux of the paper);
///  * `ReleaseShared` — distributed 2PL's release of read locks when
///                      VOTE-REQ arrives (paper §2).
///
/// Hold-time and wait-time samples feed experiment E1.

namespace o2pc::lock {

enum class LockMode : std::uint8_t { kShared = 0, kExclusive = 1 };

const char* LockModeName(LockMode mode);

/// True if two holders with these modes may coexist.
constexpr bool Compatible(LockMode a, LockMode b) {
  return a == LockMode::kShared && b == LockMode::kShared;
}

/// Inline capture budget of GrantCallback. Sized so the grant wrapper
/// `[cb = std::move(cb)]() mutable { cb(Status::OK()); }` — a GrantCallback
/// (40 bytes of storage + ops pointer = 48 bytes) — still fits inline in
/// the 56-byte event-queue Callback: a granted Acquire never touches the
/// heap.
inline constexpr std::size_t kGrantCallbackBytes = 40;

/// Invoked exactly once per Acquire: OK when granted, kDeadlock when the
/// requester was chosen as a deadlock victim, kAborted when the wait was
/// cancelled by CancelWaits.
using GrantCallback = sim::BasicCallback<kGrantCallbackBytes, const Status&>;

/// Aggregate counters plus raw duration samples.
struct LockStats {
  std::uint64_t acquires = 0;
  std::uint64_t immediate_grants = 0;
  std::uint64_t waits = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t cancelled_waits = 0;
  /// Exclusive-lock hold durations (grant -> release), microseconds.
  std::vector<Duration> exclusive_hold;
  /// Shared-lock hold durations.
  std::vector<Duration> shared_hold;
  /// Wait durations for requests that were eventually granted.
  std::vector<Duration> wait_time;
};

class LockManager {
 public:
  struct Options {
    bool detect_deadlocks = true;
    /// If true, hold/wait duration samples are recorded (costs memory).
    bool record_samples = true;
    /// Site this manager belongs to; only used to label trace events.
    SiteId site = kInvalidSite;
  };

  LockManager(sim::Simulator* simulator, Options options);
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `key` in `mode` for `txn`. The callback fires (via a
  /// zero-delay simulator event) once granted or failed. Re-acquiring an
  /// already-held lock in the same or weaker mode grants immediately;
  /// holding S and requesting X is an upgrade (granted when `txn` is the
  /// sole holder, queued with priority otherwise).
  ///
  /// A transaction may have at most one pending request at a time.
  void Acquire(TxnId txn, DataKey key, LockMode mode, GrantCallback callback);

  /// Releases `txn`'s lock on `key` (no-op if not held) and grants waiters.
  void Release(TxnId txn, DataKey key);

  /// Releases everything `txn` holds.
  void ReleaseAll(TxnId txn);

  /// Releases only `txn`'s *shared* locks (distributed 2PL at VOTE-REQ).
  void ReleaseShared(TxnId txn);

  /// Fails `txn`'s pending request (if any) with `status` and removes it
  /// from all queues. Used when a transaction is aborted while waiting.
  void CancelWaits(TxnId txn, Status status);

  /// True if `txn` currently holds `key` with at least `mode` strength.
  bool Holds(TxnId txn, DataKey key, LockMode mode) const;

  /// Keys currently held by `txn`.
  std::vector<DataKey> HeldKeys(TxnId txn) const;

  /// Returns the manager to its just-constructed state — every queue,
  /// holder, waiter, waits-for edge, and stat dropped — retaining container
  /// capacity (world-reuse reset contract, DESIGN §16). Pending grant
  /// callbacks must already have fired or been cancelled: a reset never
  /// fires callbacks.
  void ResetForRun();

  /// Drops the volatile lock table — every queue, holder, waiter and
  /// waits-for edge — as a site crash does, without firing any waiter's
  /// callback. LockStats are kept, so a site's counters and samples span
  /// the whole run across crashes.
  void DropLockTable();

  /// True if `txn` has a request waiting in some queue.
  bool IsWaiting(TxnId txn) const;

  /// Number of transactions currently holding or waiting for `key`.
  std::size_t QueueLength(DataKey key) const;

  /// Total (txn, key) holds across every queue — the lock-table occupancy
  /// gauge the telemetry time-series sampler reads.
  std::size_t HeldLockCount() const {
    std::size_t n = 0;
    for (const auto& entry : queues_) n += entry.second.holders.size();
    return n;
  }

  /// Total queued (not yet granted) requests across every queue.
  std::size_t WaitingLockCount() const {
    std::size_t n = 0;
    for (const auto& entry : queues_) n += entry.second.waiters.size();
    return n;
  }

  const LockStats& stats() const { return stats_; }
  const WaitsForGraph& waits_for() const { return waits_for_; }

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
    SimTime grant_time;
  };
  struct Request {
    TxnId txn;
    LockMode mode;
    GrantCallback callback;
    SimTime enqueue_time;
    bool is_upgrade;
  };
  struct Queue {
    std::vector<Holder> holders;
    /// FIFO (front = next to grant); a vector, not a deque, so Queue stays
    /// nothrow-movable inside the flat table. Waiter lists are short, so
    /// the O(n) front operations are cheaper than deque's segment map.
    std::vector<Request> waiters;
  };

  /// True if `request` can be granted right now given holders/waiters.
  bool CanGrant(const Queue& queue, TxnId txn, LockMode mode,
                bool is_upgrade) const;

  /// Installs `txn` as a holder and schedules its callback.
  void Grant(DataKey key, Queue& queue, Request request);

  /// Re-examines `key`'s queue after a release/cancel, granting in FIFO
  /// order (upgrades first).
  void PumpQueue(DataKey key);

  /// Records waits-for edges for a newly blocked request and runs deadlock
  /// detection; may synchronously fail some victim's pending request.
  void OnBlocked(DataKey key, TxnId txn);

  /// Removes `txn`'s waiting request on `key` and fires its callback with
  /// `status`.
  void FailWaiter(DataKey key, TxnId txn, Status status);

  void RecordHold(const Holder& holder);

  sim::Simulator* simulator_;  // not owned
  Options options_;
  /// Per-key lock queues. Never iterated, so insertion-ordered FlatMap
  /// lookup replaces the rb-tree walk on every Acquire/Release.
  common::FlatMap<DataKey, Queue> queues_;
  /// Keys held per txn. The inner set is iterated by ReleaseAll (release
  /// order is trace-visible), so it stays sorted — SmallSet, not FlatSet.
  common::FlatMap<TxnId, common::SmallSet<DataKey>> held_;
  /// key a txn is currently waiting on (at most one).
  common::FlatMap<TxnId, DataKey> waiting_on_;
  WaitsForGraph waits_for_;
  LockStats stats_;
};

}  // namespace o2pc::lock

#endif  // O2PC_LOCK_LOCK_MANAGER_H_
