#ifndef FSDM_FAULT_FAULT_H_
#define FSDM_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

/// Fault-injection framework (ISSUE 3 tentpole): named injection points
/// compiled into failure-prone code paths (DML observer fan-out, index
/// maintenance, OSON codec, IMC population) and armed at runtime from
/// tests. A disarmed point costs one cached pointer load plus a predicted
/// branch.
///
/// Usage at an instrumentation site (the enclosing function must return
/// Status or Result<T>):
///
///   Status Table::Delete(size_t row_id) {
///     FSDM_FAULT_POINT("table.delete.apply");
///     ...
///
/// and from a test:
///
///   fault::FaultRegistry::Global().Arm("table.delete.apply",
///                                      fault::FaultSpec::Once());
///
/// Undo/compensation paths that must not early-return use the
/// Status-valued FSDM_FAULT_STATUS(name) form instead and decide what to
/// do with the injected failure themselves.
///
/// Naming convention: <subsystem>.<operation>[.<step>], e.g.
/// "index.insert.postings", "collection.create.search_index".

namespace fsdm::fault {

/// How an armed point decides which hits fail.
enum class TriggerMode : uint8_t {
  kAlways,       ///< every hit fails until disarmed
  kOnce,         ///< the next hit fails, then the point self-disarms
  kNth,          ///< the Nth hit from arming (1-based) fails, then disarms
  kProbability,  ///< each hit fails with probability p (seeded RNG)
};

/// What an armed point injects and when.
struct FaultSpec {
  TriggerMode mode = TriggerMode::kOnce;
  /// kNth: the 1-based hit index that fails.
  uint64_t nth = 1;
  /// kProbability: failure probability per hit, in [0, 1].
  double probability = 0.0;
  /// kProbability: seed for the point's private deterministic RNG.
  uint64_t seed = 42;
  /// kAlways / kProbability: self-disarm after this many injected
  /// failures (0 = never).
  uint64_t max_triggers = 0;
  /// Status the injected failure carries. kOk makes the fault latency-only:
  /// the point stalls (see stall_us) but the site continues normally.
  StatusCode code = StatusCode::kInternal;
  /// Error message; empty = "injected fault at <point>".
  std::string message;
  /// Sleep this long inside Fire() when the fault triggers, published to
  /// the ASH sampler as a fault-stall wait. Combine with code = kOk for
  /// pure latency injection (no error surfaces).
  uint64_t stall_us = 0;
  /// Errno-style I/O failure payload (ISSUE 8): when non-zero, the injected
  /// status message carries strerror(err_no) — e.g. "Input/output error",
  /// "No space left on device" — so filesystem fault points (WAL append,
  /// fsync) surface errors indistinguishable from the real kernel ones
  /// their handlers are written for. The code defaults to kUnavailable,
  /// matching what the WAL's own errno paths return.
  int err_no = 0;

  static FaultSpec Once(StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.mode = TriggerMode::kOnce;
    s.code = code;
    return s;
  }
  static FaultSpec Always(StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.mode = TriggerMode::kAlways;
    s.code = code;
    return s;
  }
  static FaultSpec Nth(uint64_t nth, StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.mode = TriggerMode::kNth;
    s.nth = nth;
    s.code = code;
    return s;
  }
  static FaultSpec WithProbability(double p, uint64_t seed,
                                   StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.mode = TriggerMode::kProbability;
    s.probability = p;
    s.seed = seed;
    s.code = code;
    return s;
  }
  /// Latency-only fault: every hit stalls `stall_us` microseconds and then
  /// proceeds (code kOk never early-returns at the site).
  static FaultSpec StallUs(uint64_t stall_us,
                           TriggerMode mode = TriggerMode::kAlways) {
    FaultSpec s;
    s.mode = mode;
    s.code = StatusCode::kOk;
    s.stall_us = stall_us;
    return s;
  }
  /// Realistic filesystem failure: the injected status reads like the
  /// kernel produced it, e.g. Errno(ENOSPC) at "wal.fsync" yields
  /// Unavailable("injected fault at wal.fsync: No space left on device").
  static FaultSpec Errno(int err_no, TriggerMode mode = TriggerMode::kOnce,
                         StatusCode code = StatusCode::kUnavailable) {
    FaultSpec s;
    s.mode = mode;
    s.code = code;
    s.err_no = err_no;
    return s;
  }
};

/// One named injection point. Pointers returned by the registry are stable
/// for the process lifetime, so instrumentation sites cache them in
/// function-local statics.
class FaultPoint {
 public:
  explicit FaultPoint(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  /// Hot-path guard: false while disarmed (the steady state).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Called on every hit of an *armed* point: decides whether this hit
  /// fails, applying the armed FaultSpec. Returns the injected error or
  /// OK to let the site continue.
  Status Fire();

  /// Hits seen while armed (Fire() calls) since the last Arm().
  uint64_t hits() const;
  /// Injected failures over the point's lifetime (not reset by Arm()).
  uint64_t triggers() const;

 private:
  friend class FaultRegistry;

  std::string name_;
  std::atomic<bool> armed_{false};
  // Guarded by the registry mutex, like every field below.
  FaultSpec spec_;
  uint64_t hits_ = 0;
  uint64_t triggers_ = 0;
  /// Injected failures since the last Arm(); max_triggers compares against
  /// this, not the lifetime count.
  uint64_t armed_triggers_ = 0;
  Rng rng_{42};
};

/// Process-wide registry of injection points. Points register lazily on
/// first hit (or first Arm), from any thread, and stay registered for the
/// process lifetime. A mutex guards the point map and every point's spec
/// and counters; the hot path reads only the point's atomic armed flag
/// through the pointer its site caches.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  /// Create-or-get; the returned pointer never moves.
  FaultPoint* Register(const std::string& name);

  /// Arms `name` (registering it if needed) with `spec`, resetting the
  /// point's armed-hit counter.
  void Arm(const std::string& name, FaultSpec spec);
  /// Disarms one point / every point. Counters survive.
  void Disarm(const std::string& name);
  void DisarmAll();

  /// nullptr when the point was never registered.
  const FaultPoint* Find(const std::string& name) const;

  /// Registered point names, sorted (the injection-point catalog).
  std::vector<std::string> PointNames() const;

  /// Total injected failures across all points since process start.
  uint64_t triggers_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return triggers_total_;
  }

 private:
  friend class FaultPoint;

  FaultPoint* RegisterLocked(const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<FaultPoint>> points_;
  uint64_t triggers_total_ = 0;
};

/// Arms a fault in its constructor and disarms *all* faults in its
/// destructor — keeps tests exception/early-return safe and guarantees no
/// armed fault leaks into the next test.
class ScopedFault {
 public:
  ScopedFault(const std::string& name, FaultSpec spec) {
    FaultRegistry::Global().Arm(name, std::move(spec));
  }
  ~ScopedFault() { FaultRegistry::Global().DisarmAll(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

}  // namespace fsdm::fault

/// Early-returns the injected Status (convertible to Result<T>) when the
/// point is armed and fires. Near-zero cost disarmed: one function-local
/// static pointer load plus a not-taken branch.
#define FSDM_FAULT_POINT(point_name)                                        \
  do {                                                                      \
    static ::fsdm::fault::FaultPoint* FSDM_CONCAT_(fsdm_fp_, __LINE__) =    \
        ::fsdm::fault::FaultRegistry::Global().Register(point_name);        \
    if (FSDM_CONCAT_(fsdm_fp_, __LINE__)->armed()) {                        \
      ::fsdm::Status FSDM_CONCAT_(fsdm_fp_st_, __LINE__) =                  \
          FSDM_CONCAT_(fsdm_fp_, __LINE__)->Fire();                         \
      if (!FSDM_CONCAT_(fsdm_fp_st_, __LINE__).ok())                        \
        return FSDM_CONCAT_(fsdm_fp_st_, __LINE__);                         \
    }                                                                       \
  } while (0)

/// Status-valued form for compensation paths that must not early-return:
/// evaluates to the injected Status when armed and firing, OK otherwise.
#define FSDM_FAULT_STATUS(point_name)                                       \
  ([&]() -> ::fsdm::Status {                                                \
    static ::fsdm::fault::FaultPoint* fsdm_fp =                             \
        ::fsdm::fault::FaultRegistry::Global().Register(point_name);        \
    return fsdm_fp->armed() ? fsdm_fp->Fire() : ::fsdm::Status::Ok();       \
  }())

#endif  // FSDM_FAULT_FAULT_H_
