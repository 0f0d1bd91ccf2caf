#pragma once

#include <functional>
#include <utility>

#include "sim/simulator.hpp"

namespace telea {

/// RAII one-shot / periodic timer bound to a Simulator — the C++ analogue of
/// TinyOS's Timer interface. Destroying (or stopping) the timer cancels any
/// pending firing, so a component can never be called back after teardown.
class Timer {
 public:
  using Callback = std::function<void()>;

  explicit Timer(Simulator& sim) : sim_(&sim) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { stop(); }

  void set_callback(Callback cb) { callback_ = std::move(cb); }

  /// Names this timer's firings for the simulator self-profiler (string
  /// literal lifetime required). Optional; untagged timers profile together.
  /// Set it before arming: a pending firing keeps the tag it was armed with.
  void set_tag(const char* tag) noexcept { tag_ = tag; }

  /// Fires once after `delay`. Starting an armed timer re-arms it, in the
  /// same order relative to other events as stop() then start would.
  void start_one_shot(SimTime delay) {
    period_ = 0;
    arm(delay);
  }

  /// Fires every `period`, first firing after `period`.
  void start_periodic(SimTime period) {
    period_ = period;
    arm(period);
  }

  /// Fires every `period`, first firing after `initial_delay`.
  void start_periodic_at(SimTime initial_delay, SimTime period) {
    period_ = period;
    arm(initial_delay);
  }

  void stop() { sim_->cancel(handle_); }

  [[nodiscard]] bool running() const noexcept { return handle_.valid(); }

 private:
  /// Moves the pending firing, if any, to `delay` from now; schedules one
  /// otherwise.
  void arm(SimTime delay) {
    if (sim_->reschedule_in(handle_, delay)) return;
    handle_ = sim_->schedule_in(delay, [this] { fire(); }, tag_);
  }

  void fire() {
    handle_.reset();  // the event just consumed itself
    if (period_ > 0) arm(period_);
    if (callback_) callback_();
  }

  Simulator* sim_;
  Callback callback_;
  EventHandle handle_;
  SimTime period_ = 0;
  const char* tag_ = nullptr;
};

}  // namespace telea
