// Reusable scratch buffers for routines that callbacks may re-enter.
//
// The control plane's receive path collects and groups stability reports in
// temporary vectors on every frame. Allocating them per call costs a heap
// round trip each time; a single member buffer would be clobbered when a
// monitor or waiter callback re-enters the same routine (send ->
// apply_origin_rule, report_stability, a nested on_ack_batch). DepthScratch
// keeps one buffer per nesting depth: acquire() hands out the buffer of the
// current depth, and the returned lease steps back when it is destroyed, so a
// nested call gets a buffer of its own and never touches the one its caller
// is still iterating. Buffers keep their capacity across calls, so the steady
// state allocates nothing. Each buffer sits behind a unique_ptr: adding a
// depth never moves the buffers that outer calls hold references to.
//
// Not thread-safe: owned by state that one thread drives.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace stab {

template <typename T>
class DepthScratch {
 public:
  class Lease {
   public:
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { --owner_.depth_; }

    T& operator*() const { return buf_; }
    T* operator->() const { return &buf_; }

   private:
    friend class DepthScratch;
    Lease(DepthScratch& owner, T& buf) : owner_(owner), buf_(buf) {}
    DepthScratch& owner_;
    T& buf_;
  };

  /// The buffer of the current nesting depth, holding whatever its last user
  /// left in it: callers clear or overwrite it before use.
  Lease acquire() {
    if (depth_ == bufs_.size()) bufs_.push_back(std::make_unique<T>());
    T& buf = *bufs_[depth_++];
    return Lease(*this, buf);
  }

 private:
  std::vector<std::unique_ptr<T>> bufs_;
  size_t depth_ = 0;
};

}  // namespace stab
