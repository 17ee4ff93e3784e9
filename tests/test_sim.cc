/**
 * @file
 * Unit tests for the discrete-event core: event ordering, reserved
 * sequence numbers, cancellation, virtual clock, and bandwidth channel
 * serialization.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/channel.h"
#include "sim/event_queue.h"

namespace coserve {
namespace {

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueueTest, TiesBreakBySchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ScheduleAfterUsesNow)
{
    EventQueue eq;
    Time seen = -1;
    eq.schedule(100, [&] {
        eq.scheduleAfter(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    const EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // second cancel is a no-op
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleAfter(1, recurse);
    };
    eq.schedule(0, recurse);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 4);
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueueTest, RunUntilAdvancesClock)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(100, [&] { ++count; });
    eq.runUntil(50);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 50);
    EXPECT_EQ(eq.pending(), 1u);

    // kTimeNever runs to idle; the clock stays at the last event.
    eq.runUntil(kTimeNever);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 100);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueTest, RunWithEventBudget)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [&] { ++count; });
    eq.run(3);
    EXPECT_EQ(count, 3);
}

TEST(EventQueueTest, ReservedSeqOrdersAsIfScheduledAtReservation)
{
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t early = eq.reserveSeq();
    eq.schedule(10, [&] { order.push_back(2); });
    // Scheduled last, but under the seq taken first: it wins the tie.
    eq.scheduleReserved(10, early, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ReservedSeqFedFromInsideAnEvent)
{
    // The arrival-feed pattern: an event running at t schedules the
    // next arrival at t under the seq reserved before an engine event
    // at t was scheduled; the arrival still runs first.
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t first = eq.reserveSeq();
    const std::uint64_t second = eq.reserveSeq();
    eq.schedule(10, [&] { order.push_back(3); });
    eq.scheduleReserved(10, first, [&] {
        order.push_back(1);
        eq.scheduleReserved(10, second, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ReservedSeqEventCanBeCancelled)
{
    EventQueue eq;
    bool ran = false;
    const std::uint64_t seq = eq.reserveSeq();
    eq.schedule(5, [] {});
    const EventId id = eq.scheduleReserved(10, seq, [&] { ran = true; });
    EXPECT_EQ(id.seq, seq);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueueDeathTest, ScheduleReservedIntoThePastAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    const std::uint64_t seq = eq.reserveSeq();
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100);
    EXPECT_DEATH(eq.scheduleReserved(50, seq, [] {}),
                 "scheduling into the past");
    EXPECT_DEATH(eq.scheduleReserved(100, 7, [] {}), "never reserved");
}

TEST(EventQueueTest, ClearKeepsClockAndExecutedCount)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    const std::uint64_t seq = eq.reserveSeq();
    eq.scheduleReserved(30, seq, [&] { ++count; });
    eq.runUntil(15);
    eq.clear();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 15);
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.nextTime(), kTimeNever);
    eq.run();
    EXPECT_EQ(count, 1);
    // The queue keeps working after a clear, with the clock intact.
    eq.scheduleAfter(5, [&] { ++count; });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20);
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(ChannelTest, UncontendedDuration)
{
    EventQueue eq;
    // 1000 bytes/s, no fixed latency: 500 bytes -> 0.5 s.
    BandwidthChannel ch(eq, "test", 1000.0);
    EXPECT_EQ(ch.transferDuration(500), seconds(0.5));
    EXPECT_EQ(ch.transferDuration(0), 0);
}

TEST(ChannelTest, FixedLatencyAdds)
{
    EventQueue eq;
    BandwidthChannel ch(eq, "test", 1000.0, milliseconds(10));
    EXPECT_EQ(ch.transferDuration(1000), seconds(1.0) + milliseconds(10));
}

TEST(ChannelTest, TransfersSerialize)
{
    EventQueue eq;
    BandwidthChannel ch(eq, "test", 1000.0);
    std::vector<Time> completions;
    ch.transfer(1000, [&] { completions.push_back(eq.now()); });
    ch.transfer(1000, [&] { completions.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], seconds(1));
    EXPECT_EQ(completions[1], seconds(2)); // queued behind the first
}

TEST(ChannelTest, PredictMatchesActual)
{
    EventQueue eq;
    BandwidthChannel ch(eq, "test", 2000.0, microseconds(5));
    const Time predicted = ch.predictCompletion(1000);
    Time actual = -1;
    ch.transfer(1000, [&] { actual = eq.now(); });
    eq.run();
    EXPECT_EQ(predicted, actual);
}

TEST(ChannelTest, CountsBytesAndTransfers)
{
    EventQueue eq;
    BandwidthChannel ch(eq, "test", 1000.0);
    ch.transfer(100, [] {});
    ch.transfer(200, [] {});
    eq.run();
    EXPECT_EQ(ch.bytesTransferred(), 300);
    EXPECT_EQ(ch.transfers(), 2u);
}

TEST(ChannelTest, IdleChannelBusyUntilIsNow)
{
    EventQueue eq;
    BandwidthChannel ch(eq, "test", 1000.0);
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_EQ(ch.busyUntil(), eq.now());
}

} // namespace
} // namespace coserve
