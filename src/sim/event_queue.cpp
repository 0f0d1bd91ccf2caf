#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace telea {

EventHandle EventQueue::schedule(SimTime when, Callback cb, const char* tag) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.callback = std::move(cb);
  s.tag = tag;
  s.seq = seq;
  const Node node{when, slot};
  heap_.push_back(node);
  sift_up(heap_.size() - 1, node);
  return EventHandle{slot, seq};
}

void EventQueue::cancel(EventHandle& handle) {
  // A handle whose slot no longer carries its sequence number names an
  // event that already fired or was cancelled (or a queue since cleared):
  // a no-op by contract.
  const bool live = pending(handle);
  const std::uint32_t slot = handle.slot_;
  handle.reset();
  if (!live) return;
  // Destroy the callback only after the queue is consistent again: its
  // captures' destructors may re-enter the queue.
  const Callback dead = std::move(slots_[slot].callback);
  erase_at(slots_[slot].pos);
}

bool EventQueue::reschedule(EventHandle& handle, SimTime when) {
  if (!pending(handle)) return false;
  Slot& s = slots_[handle.slot_];
  // A fresh sequence number, as cancel plus schedule would draw: the event
  // now follows every event already at `when`.
  s.seq = next_seq_++;
  handle.seq_ = s.seq;
  sift(s.pos, Node{when, handle.slot_});
  return true;
}

SimTime EventQueue::next_time() const {
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty());
  const Node top = heap_.front();
  Slot& s = slots_[top.slot];
  Fired fired{top.time, std::move(s.callback), s.tag};
  erase_at(0);
  return fired;
}

void EventQueue::clear() {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
}

void EventQueue::sift_up(std::size_t pos, Node node) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(node, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, node);
}

void EventQueue::sift_down(std::size_t pos, Node node) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], node)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, node);
}

void EventQueue::sift(std::size_t pos, Node node) noexcept {
  if (pos > 0 && before(node, heap_[(pos - 1) / kArity])) {
    sift_up(pos, node);
  } else {
    sift_down(pos, node);
  }
}

void EventQueue::erase_at(std::size_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  Slot& s = slots_[slot];
  s.callback = nullptr;  // already moved out by pop() / cancel()
  s.tag = nullptr;
  s.seq = 0;
  free_slots_.push_back(slot);
  const Node last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) sift(pos, last);
}

}  // namespace telea
