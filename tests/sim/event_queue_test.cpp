#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace telea {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsHead) {
  EventQueue q;
  q.schedule(42, [] {});
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 7u);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(10, [&] { fired = true; });
  q.cancel(h);
  EXPECT_FALSE(h.valid());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUpdatesNextTime) {
  EventQueue q;
  EventHandle h = q.schedule(5, [] {});
  q.schedule(10, [] {});
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 10u);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle h = q.schedule(1, [] {});
  q.pop().callback();
  EXPECT_TRUE(q.empty());
  q.cancel(h);  // must not corrupt state
  EXPECT_TRUE(q.empty());
  bool fired = false;
  q.schedule(2, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelInvalidHandleIsNoop) {
  EventQueue q;
  EventHandle h;
  q.cancel(h);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  EventHandle h = q.schedule(10, [] {});
  EventHandle copy = h;
  q.cancel(h);
  q.cancel(copy);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  EventHandle a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopReturnsTimeAndCallback) {
  EventQueue q;
  int value = 0;
  q.schedule(99, [&] { value = 7; });
  auto fired = q.pop();
  EXPECT_EQ(fired.time, 99u);
  fired.callback();
  EXPECT_EQ(value, 7);
}

TEST(EventQueue, ManyInterleavedScheduleCancel) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
  }
  for (size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
  EXPECT_EQ(q.size(), 50u);
  SimTime last = 0;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    EXPECT_EQ(fired.time % 2, 1u);  // even-indexed were cancelled
    last = fired.time;
  }
}

TEST(EventQueue, StaleHandleNeverCancelsTheSlotsNextEvent) {
  EventQueue q;
  EventHandle fired_one = q.schedule(1, [] {});
  q.pop().callback();
  bool fired = false;
  q.schedule(2, [&] { fired = true; });  // reuses the freed slot
  q.cancel(fired_one);
  ASSERT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(fired);

  EventHandle cancelled = q.schedule(3, [] {});
  EventHandle copy = cancelled;
  q.cancel(cancelled);
  fired = false;
  q.schedule(4, [&] { fired = true; });
  q.cancel(copy);
  ASSERT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, HandlesFromBeforeClearAreInert) {
  EventQueue q;
  EventHandle old = q.schedule(1, [] {});
  q.clear();
  bool fired = false;
  q.schedule(1, [&] { fired = true; });
  q.cancel(old);
  ASSERT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, RescheduleMovesTheEventBehindItsTimePeers) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle h = q.schedule(30, [&] { fired.push_back(0); }, "moved");
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  q.schedule(5, [&] { fired.push_back(3); });
  EventHandle old = h;
  EXPECT_TRUE(q.reschedule(h, 10));  // earlier, tied with event 1
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(q.size(), 4u);
  q.cancel(old);  // the handle the event was first issued is stale now
  EXPECT_EQ(q.size(), 4u);
  q.schedule(10, [&] { fired.push_back(4); });
  std::vector<const char*> tags;
  while (!q.empty()) {
    auto f = q.pop();
    tags.push_back(f.tag);
    f.callback();
  }
  EXPECT_EQ(fired, (std::vector<int>{3, 1, 0, 4, 2}));
  EXPECT_STREQ(tags[2], "moved");
}

TEST(EventQueue, RescheduleOfADeadHandleChangesNothing) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle gone = q.schedule(1, [&] { fired.push_back(0); });
  q.pop().callback();  // fired
  EventHandle cancelled = q.schedule(2, [&] { fired.push_back(1); });
  EventHandle cancelled_copy = cancelled;
  q.cancel(cancelled);
  EventHandle inert;
  q.schedule(7, [&] { fired.push_back(2); });
  q.schedule(3, [&] { fired.push_back(3); });

  for (EventHandle* h : {&gone, &cancelled_copy, &inert}) {
    const EventHandle copy = *h;
    EXPECT_FALSE(q.reschedule(*h, 0));
    EXPECT_EQ(h->valid(), copy.valid());
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.next_time(), 3u);
  }

  EventHandle cleared = q.schedule(4, [&] { fired.push_back(4); });
  q.clear();
  q.schedule(6, [&] { fired.push_back(5); });  // reuses a slot
  EXPECT_FALSE(q.reschedule(cleared, 1));
  EXPECT_TRUE(cleared.valid());
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 6u);
  q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{0, 5}));
}

// Randomized differential test: every operation is mirrored on a reference
// model, a multimap keyed by (time, scheduling order), and the queue must
// agree with it on size, head time and the identity of every fired event.
// Covers cancels and reschedules from inside callbacks, handles reused
// after fire or cancel (slot reuse), copies of handles (stale once their
// event is rescheduled), and stale handles across clear(). A reschedule is
// modelled as a cancel plus a schedule of the same event.
TEST(EventQueue, MatchesReferenceModelUnderRandomOperations) {
  using Key = std::pair<SimTime, std::uint64_t>;
  using Model = std::multimap<Key, int>;
  struct Record {
    EventHandle handle;  // reset when cancelled through it
    EventHandle copy;    // never reset: goes stale once the event is gone
    std::optional<Model::iterator> pending;  // model entry while live
    bool copy_stale = false;  // the event was rescheduled past `copy`
  };
  EventQueue q;
  Model model;
  std::vector<Record> records;
  std::uint64_t model_seq = 0;
  SimTime now = 0;
  int fired_id = -1;
  int in_callback_cancels = 0;
  int in_callback_reschedules = 0;
  int stale_cancels = 0;
  int reschedules = 0;
  int stale_reschedules = 0;
  int clears = 0;
  Pcg32 rng(2024, 7);

  auto model_cancel = [&](int id) {
    auto& pending = records[static_cast<std::size_t>(id)].pending;
    if (!pending.has_value()) return false;
    model.erase(*pending);
    pending.reset();
    return true;
  };
  auto cancel = [&](int id, bool through_copy) {
    Record& r = records[static_cast<std::size_t>(id)];
    const bool live =
        r.pending.has_value() && !(through_copy && r.copy_stale);
    if (!live) ++stale_cancels;
    q.cancel(through_copy ? r.copy : r.handle);
    if (live) model_cancel(id);
  };
  auto reschedule = [&](int id, SimTime when) {
    Record& r = records[static_cast<std::size_t>(id)];
    const bool live = r.pending.has_value();
    EXPECT_EQ(q.reschedule(r.handle, when), live);
    if (!live) {
      ++stale_reschedules;
      return;
    }
    ++reschedules;
    model.erase(*r.pending);
    r.pending = model.emplace(Key{when, ++model_seq}, id);
    // Half the copies follow the move; the others go stale.
    r.copy_stale = !rng.chance(0.5);
    if (!r.copy_stale) r.copy = r.handle;
  };
  // A callback with a target cancels it, or, with `move_to`, reschedules
  // it to `move_to` after the firing time.
  auto schedule = [&](SimTime when, int target, SimTime move_to) {
    const int id = static_cast<int>(records.size());
    const EventHandle h = q.schedule(when, [&, id, target, move_to] {
      fired_id = id;
      if (target < 0) return;
      const bool live =
          records[static_cast<std::size_t>(target)].pending.has_value();
      if (move_to == 0) {
        if (live) ++in_callback_cancels;
        cancel(target, false);
      } else {
        if (live) ++in_callback_reschedules;
        reschedule(target, now + move_to);
      }
    });
    records.push_back(
        Record{h, h, model.emplace(Key{when, ++model_seq}, id), false});
  };
  auto pop_and_check = [&] {
    const auto head = model.begin();
    const int expected = head->second;
    const SimTime expected_time = head->first.first;
    model.erase(head);
    records[static_cast<std::size_t>(expected)].pending.reset();
    auto fired = q.pop();
    EXPECT_EQ(fired.time, expected_time);
    now = fired.time;
    fired_id = -1;
    fired.callback();
    EXPECT_EQ(fired_id, expected);
  };
  auto random_id = [&] {
    return static_cast<int>(
        rng.uniform(static_cast<std::uint32_t>(records.size())));
  };
  // One of the 64 newest records: most of them are still pending.
  auto recent_id = [&] {
    const auto n = static_cast<std::uint32_t>(records.size());
    return static_cast<int>(n - 1 - rng.uniform(std::min(n, 64u)));
  };

  for (int op = 0; op < 20000; ++op) {
    const std::uint32_t r = rng.uniform(1000);
    if (r < 450 || records.empty()) {
      const int target = !records.empty() && rng.chance(0.2) ? recent_id() : -1;
      const SimTime move_to = rng.chance(0.5) ? 0 : 1 + rng.uniform(20);
      schedule(now + rng.uniform(50), target, move_to);
    } else if (r < 600) {
      cancel(random_id(), false);
    } else if (r < 650) {
      cancel(random_id(), true);
    } else if (r < 750) {
      // Few distinct times, so a moved event often ties with others.
      reschedule(recent_id(), now + rng.uniform(20));
    } else if (r < 997) {
      if (!model.empty()) pop_and_check();
    } else {
      q.clear();
      model.clear();
      for (Record& rec : records) rec.pending.reset();
      ++clears;
    }
    ASSERT_EQ(q.size(), model.size()) << "after operation " << op;
    if (!model.empty()) {
      ASSERT_EQ(q.next_time(), model.begin()->first.first);
    }
  }
  while (!model.empty()) pop_and_check();
  EXPECT_TRUE(q.empty());
  // The run must actually have exercised the interesting paths.
  EXPECT_GT(in_callback_cancels, 10);
  EXPECT_GT(in_callback_reschedules, 10);
  EXPECT_GT(stale_cancels, 100);
  EXPECT_GT(reschedules, 200);
  EXPECT_GT(stale_reschedules, 100);
  EXPECT_GT(clears, 5);
}

}  // namespace
}  // namespace telea
