#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace telea {

/// Handle for a scheduled event, used to cancel it. Default-constructed
/// handles are inert. A handle names a callback slot plus the sequence
/// number of the event it was issued for; slots are reused, sequence numbers
/// never are, so a stale handle can never cancel a newer event.
class EventHandle {
 public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const noexcept { return seq_ != 0; }
  constexpr void reset() noexcept { seq_ = 0; }

 private:
  friend class EventQueue;
  constexpr EventHandle(std::uint32_t slot, std::uint64_t seq) noexcept
      : seq_(seq), slot_(slot) {}
  std::uint64_t seq_ = 0;  // generation: the event's sequence number
  std::uint32_t slot_ = 0;
};

/// Deterministic discrete-event queue. Events at equal times fire in
/// scheduling order (FIFO tie-break via a monotone sequence number), which
/// makes runs bit-reproducible regardless of heap internals.
///
/// An indexed 4-ary min-heap of 16-byte (time, slot) nodes ordered by
/// (time, seq). Callbacks live in reusable slots that also hold the event's
/// sequence number, read for the order only when two times tie, and its
/// heap position. Knowing every event's position, cancel removes an event
/// in O(log n) and reschedule moves one with a single sift: the heap never
/// holds tombstones and size() is exact. Important because the LPL MAC
/// cancels a pending retransmission on every acknowledgement and re-arms
/// its timers constantly. pop() moves the callback out of its slot and
/// frees the slot before the caller runs it, so a callback may schedule
/// and cancel freely.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` at absolute time `when`. `when` may equal the current
  /// head time; ordering among equal-time events is FIFO. `tag` optionally
  /// names the event kind for the simulator's self-profiler; it must point
  /// to a string literal (or otherwise outlive the event).
  EventHandle schedule(SimTime when, Callback cb, const char* tag = nullptr);

  /// Cancels a previously scheduled event. Safe to call with an invalid or
  /// already-fired handle (no-op). Invalidates `handle`.
  void cancel(EventHandle& handle);

  /// Moves the pending event behind `handle` to absolute time `when` under
  /// a fresh sequence number, keeping its callback and tag, and points
  /// `handle` at it. The event then orders exactly as cancelling it and
  /// scheduling the same callback at `when` would. Returns false, changing
  /// nothing, when `handle` names no pending event (inert, fired,
  /// cancelled, or issued before clear()).
  bool reschedule(EventHandle& handle, SimTime when);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the next live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Pops and returns the next live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Callback callback;
    const char* tag = nullptr;  // event-kind tag, nullptr when untagged
  };
  Fired pop();

  void clear();

 private:
  static constexpr std::size_t kArity = 4;

  struct Node {
    SimTime time;
    std::uint32_t slot;
  };
  static_assert(sizeof(Node) == 16);

  // Sequence number and position stay in the slot: a side array of them,
  // grown in lockstep with the slots, raised the indoor testbed's peak RSS
  // by ~90 KB of heap and sped nothing up.
  struct Slot {
    Callback callback;
    const char* tag = nullptr;
    std::uint64_t seq = 0;  // scheduling order and generation; 0 while free
    std::size_t pos = 0;    // index of this event's node in heap_
  };

  [[nodiscard]] bool before(const Node& a, const Node& b) const noexcept {
    return a.time != b.time ? a.time < b.time
                            : slots_[a.slot].seq < slots_[b.slot].seq;
  }
  [[nodiscard]] bool pending(const EventHandle& handle) const noexcept {
    return handle.valid() && handle.slot_ < slots_.size() &&
           slots_[handle.slot_].seq == handle.seq_;
  }
  /// Writes `node` at heap index `pos` and records the position in its slot.
  void place(std::size_t pos, const Node& node) noexcept {
    heap_[pos] = node;
    slots_[node.slot].pos = pos;
  }
  void sift_up(std::size_t pos, Node node) noexcept;
  void sift_down(std::size_t pos, Node node) noexcept;
  /// Puts `node` at heap index `pos`, or wherever sifting it from there
  /// leads.
  void sift(std::size_t pos, Node node) noexcept;
  /// Removes the node at heap index `pos` and frees its slot.
  void erase_at(std::size_t pos);

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace telea
