// sim::SpanScope's restore rule: finish() records the span and restores the
// parent; any other exit only restores it, and only while the span is still
// current. Also run under the asan preset: the destroyed-frame case runs a
// scope's destructor mid-suspension.
#include "sim/causal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace vmstorm::sim {
namespace {

struct Traced {
  Traced() {
    engine.set_recorder(&rec);
    rec.trace.set_enabled(true);
  }
  obs::Recorder rec;
  Engine engine;
};

using Seen = std::vector<std::uint64_t>;  // current span at each step

Task<void> child(Engine& e, Seen* seen, bool finish) {
  SpanScope span(e);
  co_await e.sleep(from_seconds(1));
  seen->push_back(e.current_span());
  if (finish && span) span.finish(0, "test", "child");
}

Task<void> parent(Engine& e, Seen* seen) {
  SpanScope span(e);
  seen->push_back(span.id());
  co_await child(e, seen, /*finish=*/true);
  seen->push_back(e.current_span());
  co_await child(e, seen, /*finish=*/false);  // early exit: no record
  seen->push_back(e.current_span());
  if (span) span.finish(0, "test", "parent");
  seen->push_back(e.current_span());
}

TEST(SpanScope, NestedScopesRestoreInOrderAcrossCoAwait) {
  Traced t;
  Seen a;
  Seen b;
  // Two interleaved processes: each resumption sees its own span.
  t.engine.spawn(parent(t.engine, &a));
  t.engine.spawn(parent(t.engine, &b));
  t.engine.run();
  for (const Seen* s : {&a, &b}) {
    const Seen& v = *s;
    ASSERT_EQ(v.size(), 6u);
    EXPECT_NE(v[1], v[0]);  // inside the child, across its sleep
    EXPECT_EQ(v[2], v[0]);  // child finished: the parent again
    EXPECT_NE(v[3], v[0]);
    EXPECT_EQ(v[4], v[0]);  // child exited early: the parent again
    EXPECT_EQ(v[5], 0u);    // parent finished: the spawner's span
  }
  // Recorded: each parent [0, 2) and its finished child [0, 1) under it.
  ASSERT_EQ(t.rec.trace.size(), 4u);
  const obs::Trace trace = t.rec.trace.events();
  for (const obs::TraceEvent& ev : trace.events) {
    const bool is_parent = trace.str(ev.name) == "parent";
    EXPECT_EQ(ev.parent == 0, is_parent);
    EXPECT_DOUBLE_EQ(ev.dur, is_parent ? 2.0 : 1.0);
  }
}

TEST(SpanScope, TracingOffAllocatesNoIdAndNeverWritesTheSpan) {
  obs::Recorder rec;  // attached, tracing disabled
  Engine attached;
  attached.set_recorder(&rec);
  Engine bare;  // no recorder at all
  for (Engine* e : {&attached, &bare}) {
    e->set_current_span(77);
    {
      SpanScope span(*e);
      EXPECT_FALSE(span);
      EXPECT_EQ(span.id(), 0u);
      span.finish(0, "test", "off");
      EXPECT_EQ(e->current_span(), 77u);
      e->set_current_span(5);
    }
    EXPECT_EQ(e->current_span(), 5u);
  }
  EXPECT_EQ(rec.trace.size(), 0u);
  EXPECT_EQ(rec.trace.new_span(), 1u);  // no id was taken
}

TEST(SpanScope, FrameDestroyedWhileSuspendedRestoresOnlyItsOwnSpan) {
  Traced t;
  Seen seen;
  // Run each frame to its first suspension, outside the event loop.
  auto mine = child(t.engine, &seen, true).release();
  mine.resume();
  ASSERT_NE(t.engine.current_span(), 0u);
  mine.destroy();  // its span is current: the parent comes back
  EXPECT_EQ(t.engine.current_span(), 0u);

  auto other = child(t.engine, &seen, true).release();
  other.resume();
  t.engine.set_current_span(42);  // the destroying coroutine's span
  other.destroy();
  EXPECT_EQ(t.engine.current_span(), 42u);

  t.engine.run();  // both dead frames' wakeups are dropped
  EXPECT_EQ(t.engine.cancelled_wakeups(), 2u);
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(t.rec.trace.size(), 0u);
}

}  // namespace
}  // namespace vmstorm::sim
