#ifndef SEMOPT_SERVER_SCHEDULER_H_
#define SEMOPT_SERVER_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace semopt {

/// Admission class of one query. Point lookups over base relations
/// finish in microseconds and should never sit behind a recursive
/// fixpoint; recursive (IDB-touching) queries can monopolize cores for
/// seconds. The scheduler runs the two classes against separate
/// concurrency limits so a burst of heavy queries cannot starve light
/// ones (and vice versa: an unbounded flood of light queries still
/// leaves the heavy lanes intact).
enum class QueryClass {
  kLight,  // touches only EDB predicates: index probe, no fixpoint
  kHeavy,  // touches at least one IDB predicate: runs a fixpoint
};

const char* QueryClassName(QueryClass c);

/// Two-class admission control for a query server: at most
/// `max_heavy` heavy and `max_light` light queries run at once;
/// excess callers block in Admit() until running queries finish.
/// Within a class, callers are admitted in arrival order: a caller
/// that arrives while others of its class are queued joins the queue
/// behind them even if a slot is momentarily free. The classes queue
/// independently, so a light query never waits behind a heavy one.
/// This is the aggregate thread-budget guard — each heavy query may
/// spin up its own evaluation pool of `threads_per_query` workers, so
/// the worst-case thread count is bounded by
/// `max_heavy * threads_per_query + max_light` regardless of how many
/// sessions are connected.
///
/// Observability (global registry):
///   server.sched.{heavy,light}.queue_depth  gauge, callers waiting
///   server.sched.{heavy,light}.running      gauge, admitted & running
///   server.sched.{heavy,light}.wait_us      histogram, time in queue
///   server.sched.{heavy,light}.admitted     counter
class SessionScheduler {
 public:
  struct Options {
    /// Concurrent heavy (recursive) queries. Default 2: two fixpoints
    /// at `threads_per_query` workers each saturate a small host.
    size_t max_heavy = 2;
    /// Concurrent light (EDB lookup) queries.
    size_t max_light = 8;
  };

  SessionScheduler() : SessionScheduler(Options{2, 8}) {}
  explicit SessionScheduler(Options options);

  /// RAII admission slot: holding one means the query is running;
  /// destruction releases the slot to the caller of the same class
  /// that has waited longest. Movable, not copyable.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept
        : scheduler_(other.scheduler_), cls_(other.cls_) {
      other.scheduler_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    void Release();

   private:
    friend class SessionScheduler;
    Ticket(SessionScheduler* scheduler, QueryClass cls)
        : scheduler_(scheduler), cls_(cls) {}

    SessionScheduler* scheduler_ = nullptr;
    QueryClass cls_ = QueryClass::kLight;
  };

  /// Blocks until a slot of `cls` is free, then claims it. Records the
  /// wait in server.sched.<class>.wait_us and a "sched.wait" span; when
  /// `waited_us` is non-null it also receives the measured queue wait
  /// (the session processor folds it into the query's profile).
  Ticket Admit(QueryClass cls, uint64_t* waited_us = nullptr);

  /// Point-in-time counts (tests / introspection).
  size_t running(QueryClass cls) const;
  size_t queued(QueryClass cls) const;

 private:
  struct ClassState {
    size_t limit = 0;
    size_t running = 0;
    /// Callers that have entered Admit(), and those of them admitted.
    /// A caller's arrival number is its place in line; the line
    /// advances one admission at a time.
    uint64_t arrived = 0;
    uint64_t admitted = 0;

    size_t queued() const { return static_cast<size_t>(arrived - admitted); }
  };

  void ReleaseSlot(QueryClass cls);
  ClassState& StateFor(QueryClass cls) {
    return cls == QueryClass::kHeavy ? heavy_ : light_;
  }
  const ClassState& StateFor(QueryClass cls) const {
    return cls == QueryClass::kHeavy ? heavy_ : light_;
  }
  void PublishGauges(QueryClass cls) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  ClassState heavy_;
  ClassState light_;
};

}  // namespace semopt

#endif  // SEMOPT_SERVER_SCHEDULER_H_
