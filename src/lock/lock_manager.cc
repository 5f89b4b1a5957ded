#include "lock/lock_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "trace/trace.h"

namespace o2pc::lock {
namespace {

/// First-append reservation for LockStats sample vectors. Keeps the steady
/// state at amortized O(1) appends without paying geometric-growth copies
/// through the small sizes, and costs nothing when record_samples is off
/// (the vectors never see an append, so never allocate).
constexpr std::size_t kSampleReserve = 1024;

void AppendSample(std::vector<Duration>& samples, Duration value) {
  if (samples.capacity() == 0) samples.reserve(kSampleReserve);
  samples.push_back(value);
}

}  // namespace

const char* LockModeName(LockMode mode) {
  return mode == LockMode::kShared ? "S" : "X";
}

LockManager::LockManager(sim::Simulator* simulator, Options options)
    : simulator_(simulator), options_(options) {
  O2PC_CHECK(simulator != nullptr);
}

void LockManager::ResetForRun() {
  DropLockTable();
  stats_.acquires = 0;
  stats_.immediate_grants = 0;
  stats_.waits = 0;
  stats_.deadlocks = 0;
  stats_.cancelled_waits = 0;
  stats_.exclusive_hold.clear();
  stats_.shared_hold.clear();
  stats_.wait_time.clear();
}

void LockManager::DropLockTable() {
  queues_.clear();
  held_.clear();
  waiting_on_.clear();
  waits_for_.ResetForRun();
}

void LockManager::Acquire(TxnId txn, DataKey key, LockMode mode,
                          GrantCallback callback) {
  O2PC_CHECK(!waiting_on_.contains(txn))
      << "txn " << txn << " issued a second concurrent lock request";
  ++stats_.acquires;
  Queue& queue = queues_[key];

  // Re-entrant acquisition and upgrades.
  auto holder_it =
      std::find_if(queue.holders.begin(), queue.holders.end(),
                   [txn](const Holder& h) { return h.txn == txn; });
  if (holder_it != queue.holders.end()) {
    const bool covered = holder_it->mode == LockMode::kExclusive ||
                         mode == LockMode::kShared;
    if (covered) {
      ++stats_.immediate_grants;
      simulator_->Schedule(
          0, [cb = std::move(callback)]() mutable { cb(Status::OK()); });
      return;
    }
    // Upgrade S -> X.
    if (queue.holders.size() == 1) {
      holder_it->mode = LockMode::kExclusive;
      ++stats_.immediate_grants;
      O2PC_TRACE(kLockAcquire, options_.site, txn, key,
                 static_cast<std::int64_t>(LockMode::kExclusive));
      simulator_->Schedule(
          0, [cb = std::move(callback)]() mutable { cb(Status::OK()); });
      return;
    }
    ++stats_.waits;
    O2PC_TRACE(kLockWait, options_.site, txn, key,
               static_cast<std::int64_t>(mode));
    queue.waiters.insert(
        queue.waiters.begin(),
        Request{txn, mode, std::move(callback), simulator_->Now(),
                /*is_upgrade=*/true});
    waiting_on_[txn] = key;
    OnBlocked(key, txn);
    return;
  }

  if (CanGrant(queue, txn, mode, /*is_upgrade=*/false)) {
    ++stats_.immediate_grants;
    Grant(key, queue,
          Request{txn, mode, std::move(callback), simulator_->Now(), false});
    return;
  }

  ++stats_.waits;
  O2PC_TRACE(kLockWait, options_.site, txn, key,
             static_cast<std::int64_t>(mode));
  queue.waiters.push_back(Request{txn, mode, std::move(callback),
                                  simulator_->Now(), /*is_upgrade=*/false});
  waiting_on_[txn] = key;
  OnBlocked(key, txn);
}

bool LockManager::CanGrant(const Queue& queue, TxnId txn, LockMode mode,
                           bool is_upgrade) const {
  if (is_upgrade) {
    // Grantable when txn is the sole holder.
    return queue.holders.size() == 1 && queue.holders.front().txn == txn;
  }
  if (!queue.waiters.empty()) return false;  // FIFO fairness
  for (const Holder& holder : queue.holders) {
    if (!Compatible(mode, holder.mode)) return false;
  }
  return true;
}

void LockManager::Grant(DataKey key, Queue& queue, Request request) {
  if (request.is_upgrade) {
    auto it = std::find_if(
        queue.holders.begin(), queue.holders.end(),
        [&](const Holder& h) { return h.txn == request.txn; });
    O2PC_CHECK(it != queue.holders.end()) << "upgrade grant without holder";
    it->mode = LockMode::kExclusive;
  } else {
    queue.holders.push_back(
        Holder{request.txn, request.mode, simulator_->Now()});
    held_[request.txn].insert(key);
  }
  O2PC_TRACE(kLockAcquire, options_.site, request.txn, key,
             static_cast<std::int64_t>(request.is_upgrade
                                           ? LockMode::kExclusive
                                           : request.mode));
  // GrantCallback's inline budget (kGrantCallbackBytes) is sized so this
  // wrapper fits the event queue's 56-byte Callback: no allocation here.
  simulator_->Schedule(0, [cb = std::move(request.callback)]() mutable {
    cb(Status::OK());
  });
}

void LockManager::PumpQueue(DataKey key) {
  auto qit = queues_.find(key);
  if (qit == queues_.end()) return;
  Queue& queue = qit->second;

  while (!queue.waiters.empty()) {
    Request& front = queue.waiters.front();
    if (!front.is_upgrade) {
      bool compatible = true;
      for (const Holder& holder : queue.holders) {
        if (!Compatible(front.mode, holder.mode)) {
          compatible = false;
          break;
        }
      }
      if (!compatible) break;
    } else if (queue.holders.size() != 1 ||
               queue.holders.front().txn != front.txn) {
      break;
    }
    Request request = std::move(front);
    queue.waiters.erase(queue.waiters.begin());
    waiting_on_.erase(request.txn);
    waits_for_.ClearWaiter(request.txn);
    if (options_.record_samples) {
      AppendSample(stats_.wait_time, simulator_->Now() - request.enqueue_time);
    }
    Grant(key, queue, std::move(request));
  }

  // Rebuild waits-for edges of the remaining waiters: the holder set just
  // changed, so old edges may be stale.
  for (std::size_t i = 0; i < queue.waiters.size(); ++i) {
    const Request& request = queue.waiters[i];
    waits_for_.ClearWaiter(request.txn);
    for (const Holder& holder : queue.holders) {
      if (request.is_upgrade || !Compatible(request.mode, holder.mode)) {
        waits_for_.AddEdge(request.txn, holder.txn);
      }
    }
    for (std::size_t j = 0; j < i; ++j) {
      const Request& ahead = queue.waiters[j];
      if (!Compatible(request.mode, ahead.mode)) {
        waits_for_.AddEdge(request.txn, ahead.txn);
      }
    }
  }

  if (queue.holders.empty() && queue.waiters.empty()) {
    queues_.erase(qit);
  }
}

void LockManager::OnBlocked(DataKey key, TxnId txn) {
  Queue& queue = queues_[key];
  // Find our request's position to know who is ahead.
  std::size_t my_pos = queue.waiters.size();
  LockMode my_mode = LockMode::kShared;
  bool my_upgrade = false;
  for (std::size_t i = 0; i < queue.waiters.size(); ++i) {
    if (queue.waiters[i].txn == txn) {
      my_pos = i;
      my_mode = queue.waiters[i].mode;
      my_upgrade = queue.waiters[i].is_upgrade;
      break;
    }
  }
  O2PC_CHECK(my_pos < queue.waiters.size()) << "blocked txn not in queue";

  for (const Holder& holder : queue.holders) {
    if (my_upgrade || !Compatible(my_mode, holder.mode)) {
      waits_for_.AddEdge(txn, holder.txn);
    }
  }
  for (std::size_t j = 0; j < my_pos; ++j) {
    if (!Compatible(my_mode, queue.waiters[j].mode)) {
      waits_for_.AddEdge(txn, queue.waiters[j].txn);
    }
  }

  if (!options_.detect_deadlocks) return;
  // The blocked txn had no outgoing edges before this call (they are
  // cleared whenever a request resolves), so any new cycle must pass
  // through it: searching from `txn` alone is a full detection.
  std::vector<TxnId> cycle = waits_for_.FindCycleFrom(txn);
  if (cycle.empty()) return;

  // Youngest-victim policy: transaction ids are assigned monotonically, so
  // the largest id is the youngest transaction.
  TxnId victim = *std::max_element(cycle.begin(), cycle.end());
  ++stats_.deadlocks;
  auto wit = waiting_on_.find(victim);
  O2PC_CHECK(wit != waiting_on_.end())
      << "deadlock victim " << victim << " is not waiting";
  O2PC_LOG(kDebug) << "deadlock: victim txn " << victim << " (cycle of "
                   << cycle.size() << ")";
  FailWaiter(wit->second, victim, Status::Deadlock("lock wait cycle"));
}

void LockManager::FailWaiter(DataKey key, TxnId txn, Status status) {
  auto qit = queues_.find(key);
  O2PC_CHECK(qit != queues_.end());
  Queue& queue = qit->second;
  auto it = std::find_if(queue.waiters.begin(), queue.waiters.end(),
                         [txn](const Request& r) { return r.txn == txn; });
  O2PC_CHECK(it != queue.waiters.end())
      << "txn " << txn << " has no waiting request on key " << key;
  GrantCallback callback = std::move(it->callback);
  queue.waiters.erase(it);
  waiting_on_.erase(txn);
  waits_for_.ClearWaiter(txn);
  simulator_->Schedule(
      0, [cb = std::move(callback), status]() mutable { cb(status); });
  PumpQueue(key);
}

void LockManager::Release(TxnId txn, DataKey key) {
  auto qit = queues_.find(key);
  if (qit == queues_.end()) return;
  Queue& queue = qit->second;
  auto it = std::find_if(queue.holders.begin(), queue.holders.end(),
                         [txn](const Holder& h) { return h.txn == txn; });
  if (it == queue.holders.end()) return;
  RecordHold(*it);
  O2PC_TRACE(kLockRelease, options_.site, txn, key,
             static_cast<std::int64_t>(it->mode));
  queue.holders.erase(it);
  auto hit = held_.find(txn);
  if (hit != held_.end()) {
    hit->second.erase(key);
    if (hit->second.empty()) held_.erase(txn);
  }
  PumpQueue(key);
}

void LockManager::ReleaseAll(TxnId txn) {
  auto hit = held_.find(txn);
  if (hit == held_.end()) return;
  // Ascending key order, as the sorted held-set iterates — release order is
  // trace-visible and must not change under the container swap.
  const std::vector<DataKey> keys(hit->second.begin(), hit->second.end());
  for (DataKey key : keys) Release(txn, key);
}

void LockManager::ReleaseShared(TxnId txn) {
  auto hit = held_.find(txn);
  if (hit == held_.end()) return;
  const std::vector<DataKey> keys(hit->second.begin(), hit->second.end());
  for (DataKey key : keys) {
    auto qit = queues_.find(key);
    if (qit == queues_.end()) continue;
    auto it = std::find_if(
        qit->second.holders.begin(), qit->second.holders.end(),
        [txn](const Holder& h) { return h.txn == txn; });
    if (it != qit->second.holders.end() && it->mode == LockMode::kShared) {
      Release(txn, key);
    }
  }
}

void LockManager::CancelWaits(TxnId txn, Status status) {
  auto wit = waiting_on_.find(txn);
  if (wit == waiting_on_.end()) return;
  ++stats_.cancelled_waits;
  FailWaiter(wit->second, txn, std::move(status));
}

bool LockManager::Holds(TxnId txn, DataKey key, LockMode mode) const {
  auto qit = queues_.find(key);
  if (qit == queues_.end()) return false;
  for (const Holder& holder : qit->second.holders) {
    if (holder.txn != txn) continue;
    return holder.mode == LockMode::kExclusive || mode == LockMode::kShared;
  }
  return false;
}

std::vector<DataKey> LockManager::HeldKeys(TxnId txn) const {
  auto hit = held_.find(txn);
  if (hit == held_.end()) return {};
  return std::vector<DataKey>(hit->second.begin(), hit->second.end());
}

bool LockManager::IsWaiting(TxnId txn) const {
  return waiting_on_.contains(txn);
}

std::size_t LockManager::QueueLength(DataKey key) const {
  auto qit = queues_.find(key);
  if (qit == queues_.end()) return 0;
  return qit->second.holders.size() + qit->second.waiters.size();
}

void LockManager::RecordHold(const Holder& holder) {
  if (!options_.record_samples) return;
  const Duration held = simulator_->Now() - holder.grant_time;
  if (holder.mode == LockMode::kExclusive) {
    AppendSample(stats_.exclusive_hold, held);
  } else {
    AppendSample(stats_.shared_hold, held);
  }
}

}  // namespace o2pc::lock
