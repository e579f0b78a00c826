#include "fault/fault.h"

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "telemetry/activity.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/log.h"
#include "telemetry/telemetry.h"

namespace fsdm::fault {

namespace {

Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kOk:
      return Status::Ok();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case StatusCode::kConstraintViolation:
      return Status::ConstraintViolation(std::move(msg));
    case StatusCode::kUnsupported:
      return Status::Unsupported(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
  }
  return Status::Internal(std::move(msg));
}

}  // namespace

Status FaultPoint::Fire() {
  FaultRegistry& registry = FaultRegistry::Global();
  FaultSpec spec;
  uint64_t trigger = 0;
  {
    std::lock_guard<std::mutex> lock(registry.mu_);
    if (!armed()) return Status::Ok();
    ++hits_;
    bool fire = false;
    bool disarm_after = false;
    switch (spec_.mode) {
      case TriggerMode::kAlways:
        fire = true;
        break;
      case TriggerMode::kOnce:
        fire = true;
        disarm_after = true;
        break;
      case TriggerMode::kNth:
        if (hits_ == spec_.nth) {
          fire = true;
          disarm_after = true;
        }
        break;
      case TriggerMode::kProbability:
        fire = rng_.NextBool(spec_.probability);
        break;
    }
    if (!fire) return Status::Ok();
    trigger = ++triggers_;
    ++armed_triggers_;
    ++registry.triggers_total_;
    if (disarm_after ||
        (spec_.max_triggers != 0 && armed_triggers_ >= spec_.max_triggers)) {
      armed_.store(false, std::memory_order_relaxed);
    }
    spec = spec_;
  }
  FSDM_COUNT("fsdm_fault_injections_total", 1);
  FSDM_TRACE_INSTANT_TEXT("fault", "fault.fire", "point", name_);
  FSDM_LOG(telemetry::LogLevel::kWarn, "fault", 3001,
           "fault fired at " + name_, telemetry::LogText("point", name_),
           telemetry::LogNum("trigger", trigger));
  if (spec.stall_us > 0) {
    // Latency injection: park the site for the configured stall, charged
    // to the fault wait class so it shows up in the ASH time model.
    telemetry::ScopedWaitState wait(telemetry::WaitState::kFaultStall);
    FSDM_COUNT("fsdm_fault_stall_us_total", spec.stall_us);
    std::this_thread::sleep_for(std::chrono::microseconds(spec.stall_us));
  }
  std::string msg =
      spec.message.empty() ? "injected fault at " + name_ : spec.message;
  if (spec.err_no != 0) {
    // Errno payload: make the message read like the kernel produced it, so
    // error-handling paths written for real EIO/ENOSPC see the same text
    // shape they would in production.
    msg += ": ";
    msg += std::strerror(spec.err_no);
  }
  return MakeStatus(spec.code, std::move(msg));
}

uint64_t FaultPoint::hits() const {
  std::lock_guard<std::mutex> lock(FaultRegistry::Global().mu_);
  return hits_;
}

uint64_t FaultPoint::triggers() const {
  std::lock_guard<std::mutex> lock(FaultRegistry::Global().mu_);
  return triggers_;
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

FaultPoint* FaultRegistry::Register(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(name);
}

FaultPoint* FaultRegistry::RegisterLocked(const std::string& name) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(name, std::make_unique<FaultPoint>(name)).first;
  }
  return it->second.get();
}

void FaultRegistry::Arm(const std::string& name, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultPoint* p = RegisterLocked(name);
  p->spec_ = std::move(spec);
  p->hits_ = 0;
  p->armed_triggers_ = 0;
  p->rng_ = Rng(p->spec_.seed);
  p->armed_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it != points_.end()) {
    it->second->armed_.store(false, std::memory_order_relaxed);
  }
}

void FaultRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, p] : points_) {
    p->armed_.store(false, std::memory_order_relaxed);
  }
}

const FaultPoint* FaultRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

std::vector<std::string> FaultRegistry::PointNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, p] : points_) names.push_back(name);
  return names;
}

}  // namespace fsdm::fault
