#ifndef FSDM_COMMON_ON_RETURN_H_
#define FSDM_COMMON_ON_RETURN_H_

#include <utility>

namespace fsdm {

/// Runs `f` when the enclosing scope ends, on every return path.
template <typename F>
class OnReturn {
 public:
  explicit OnReturn(F f) : f_(std::move(f)) {}
  ~OnReturn() { f_(); }
  OnReturn(const OnReturn&) = delete;
  OnReturn& operator=(const OnReturn&) = delete;

 private:
  F f_;
};

}  // namespace fsdm

#endif  // FSDM_COMMON_ON_RETURN_H_
