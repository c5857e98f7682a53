// Compile-time lock discipline (DESIGN.md §14).
//
// Three layers, one header:
//
//   1. HDS_* macros wrapping Clang's Thread Safety Analysis attributes.
//      Under clang the analysis proves — on every path, not just the
//      interleavings a test happens to execute — that state marked
//      HDS_GUARDED_BY is only touched with its mutex held. Off clang the
//      macros expand to nothing, so GCC builds are unaffected.
//
//   2. hds::lockrank — a thread-local held-lock stack with a total order
//      over every mutex in the tree (the table below and DESIGN.md §14).
//      Acquiring a ranked mutex while holding one of equal or higher rank
//      aborts: the dynamic complement to the static story, catching the
//      A→B vs B→A inversion TSA's intra-function view cannot see.
//      note_acquire()/note_release() are always compiled (tests exercise
//      them in any build); hds::Mutex only calls them under -DHDS_VERIFY,
//      so release builds pay one int of storage and nothing else.
//
//   3. hds::Mutex / MutexLock / CondVar — annotated wrappers that replace
//      every raw std::mutex / lock_guard / unique_lock / condition_variable
//      in src/ (tools/check_rules.py enforces this). CondVar waits directly
//      on hds::Mutex (BasicLockable), so rank bookkeeping survives the
//      wait's unlock/relock automatically.
//
// Rank table (lower acquired first; kUnranked mutexes are exempt from the
// order check but still re-entrancy-checked):
//
//   rank  mutex                              may be held while acquiring
//   4     ServeServer::tenants_mu_           tenant op (6) on first open
//   5     service::ServeServer sessions mu   (leaf)
//   6     service::Tenant::op_mu             everything below (a whole
//                                            backup/restore runs under it)
//   10    FAA AreaFill::mu_                  profiler phases (no lock),
//                                            tracer (70) via fill_wait spans
//   20    ThreadPool::mu_                    (leaf)
//   22    ShardRouter task-group latch       shard queues (23)
//   23    per-shard worker/merge queues      tracer (70) via wait spans
//   25    BoundedQueue::mu_                  tracer (70) via wait spans
//   26    OrderedMerge::mu_                  (leaf)
//   40    container-store index maps         (leaf)
//   50    BlockCache::mu_                    (leaf)
//   55    obs::HttpServer queue mu           (leaf)
//   60    obs::MetricsRegistry::mu_          (leaf)
//   65    obs::OpProfiler::mu_               (leaf)
//   70    obs::Tracer::mu_                   (leaf, innermost)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <mutex>
#include <vector>

// --- Clang Thread Safety Analysis attribute macros -------------------------

#if defined(__clang__)
#define HDS_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define HDS_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op off clang
#endif

#define HDS_CAPABILITY(x) HDS_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

#define HDS_SCOPED_CAPABILITY \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#define HDS_GUARDED_BY(x) HDS_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

#define HDS_PT_GUARDED_BY(x) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

#define HDS_ACQUIRED_BEFORE(...) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define HDS_ACQUIRED_AFTER(...) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

#define HDS_REQUIRES(...) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define HDS_ACQUIRE(...) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define HDS_RELEASE(...) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define HDS_TRY_ACQUIRE(...) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define HDS_EXCLUDES(...) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define HDS_ASSERT_CAPABILITY(x) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

#define HDS_RETURN_CAPABILITY(x) \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

#define HDS_NO_THREAD_SAFETY_ANALYSIS \
  HDS_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

// Runtime rank enforcement rides the same switch as the invariant checker:
// on in debug/CI (-DHDS_VERIFY), compiled out of release binaries.
#if defined(HDS_VERIFY)
#define HDS_LOCK_RANK_CHECKS 1
#else
#define HDS_LOCK_RANK_CHECKS 0
#endif

namespace hds::lockrank {

// One level per mutex class; a thread may only acquire strictly ascending
// ranks. Gaps are deliberate room for future mutexes.
inline constexpr int kUnranked = 0;  // order-exempt (still no re-entry)
inline constexpr int kServiceRegistry = 4;   // ServeServer::tenants_mu_
inline constexpr int kServiceSessions = 5;   // ServeServer active-fd set
inline constexpr int kServiceTenant = 6;     // service::Tenant::op_mu
inline constexpr int kRestoreFill = 10;      // FAA AreaFill::mu_
inline constexpr int kPoolIdle = 20;         // ThreadPool::mu_
inline constexpr int kShardExec = 22;        // ShardRouter task-group latch
inline constexpr int kShardQueue = 23;       // per-shard worker/merge queues
inline constexpr int kQueue = 25;            // BoundedQueue::mu_
inline constexpr int kOrderedMerge = 26;     // OrderedMerge::mu_
inline constexpr int kStoreIndex = 40;       // container-store index maps
inline constexpr int kBlockCache = 50;       // BlockCache::mu_
inline constexpr int kHttpServer = 55;       // obs::HttpServer queue mu
inline constexpr int kObsRegistry = 60;      // obs::MetricsRegistry::mu_
inline constexpr int kObsProfiler = 65;      // obs::OpProfiler::mu_
inline constexpr int kObsTracer = 70;        // obs::Tracer::mu_ (innermost)

struct HeldLock {
  const void* mu;
  int rank;
};

// The per-thread held stack. Exposed (not an implementation detail) so
// tests can assert bookkeeping without poking at thread_local internals.
inline std::vector<HeldLock>& held_stack() {
  thread_local std::vector<HeldLock> stack;
  return stack;
}

[[nodiscard]] inline std::size_t depth() { return held_stack().size(); }

// Record an acquisition ABOUT to happen (call before blocking on the real
// mutex, so a genuine deadlock is still reported rather than hung on).
// Aborts on re-entry of the same mutex and on rank inversion: acquiring a
// ranked mutex while the highest ranked mutex already held ranks >= it.
inline void note_acquire(int rank, const void* mu) {
  auto& stack = held_stack();
  for (const HeldLock& held : stack) {
    if (held.mu == mu) {
      std::fprintf(stderr,
                   "hds lockrank: re-entrant acquisition of mutex %p "
                   "(rank %d)\n",
                   mu, held.rank);
      std::abort();
    }
  }
  if (rank != kUnranked) {
    for (const HeldLock& held : stack) {
      if (held.rank != kUnranked && held.rank >= rank) {
        std::fprintf(stderr,
                     "hds lockrank: inversion — acquiring mutex %p "
                     "(rank %d) while holding mutex %p (rank %d); "
                     "ranks must be strictly ascending (DESIGN.md §14)\n",
                     mu, rank, held.mu, held.rank);
        std::abort();
      }
    }
  }
  stack.push_back(HeldLock{mu, rank});
}

// Out-of-order release is legal (and happens: CondVar re-sorts nothing),
// so remove by pointer, wherever it sits.
inline void note_release(const void* mu) {
  auto& stack = held_stack();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->mu == mu) {
      stack.erase(std::next(it).base());
      return;
    }
  }
  std::fprintf(stderr,
               "hds lockrank: release of mutex %p that is not held\n", mu);
  std::abort();
}

}  // namespace hds::lockrank

namespace hds {

// The project mutex. Identical cost to std::mutex in release builds (the
// rank is one int); under -DHDS_VERIFY every lock()/unlock() maintains the
// lockrank held-stack. Annotated as a TSA capability, so members declared
// HDS_GUARDED_BY(mu_) are compile-time checked under clang.
class HDS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(int rank = lockrank::kUnranked) noexcept : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HDS_ACQUIRE() {
#if HDS_LOCK_RANK_CHECKS
    // Before blocking: a real inversion deadlock must abort with the two
    // ranks named, not hang in mu_.lock().
    lockrank::note_acquire(rank_, this);
#endif
    mu_.lock();
  }

  void unlock() HDS_RELEASE() {
    mu_.unlock();
#if HDS_LOCK_RANK_CHECKS
    lockrank::note_release(this);
#endif
  }

  bool try_lock() HDS_TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
#if HDS_LOCK_RANK_CHECKS
    if (ok) lockrank::note_acquire(rank_, this);
#endif
    return ok;
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }

 private:
  std::mutex mu_;
  int rank_;
};

// Scoped lock, the project replacement for std::lock_guard/unique_lock on
// hds::Mutex. TSA's scoped-capability rules understand the manual
// unlock()/lock() pair, so the unlock-while-doing-I/O pattern keeps its
// compile-time checking.
class HDS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HDS_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() HDS_RELEASE() {
    if (held_) mu_.unlock();
  }

  // Manual relock/release inside the scope (e.g. drop the lock across a
  // store read, retake it to publish the result).
  void lock() HDS_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

  void unlock() HDS_RELEASE() {
    mu_.unlock();
    held_ = false;
  }

 private:
  Mutex& mu_;
  bool held_;
};

// Condition variable waiting directly on hds::Mutex. The wait() contract is
// the standard one (spurious wakeups happen; callers loop on their
// predicate):
//
//   while (!ready) cv.wait(mu);
//
// Predicate-lambda overloads are deliberately absent: TSA cannot see
// through the lambda, so explicit while-loops keep the analysis sound.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, waits, and reacquires it before returning.
  // The lockrank stack follows: Mutex::unlock/lock run inside the wait.
  void wait(Mutex& mu) HDS_REQUIRES(mu) { wait_impl(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  // condition_variable_any calls mu.unlock()/mu.lock() itself — correct at
  // runtime, invisible to TSA, hence the analysis opt-out on this one line.
  void wait_impl(Mutex& mu) HDS_NO_THREAD_SAFETY_ANALYSIS { cv_.wait(mu); }

  std::condition_variable_any cv_;
};

}  // namespace hds
