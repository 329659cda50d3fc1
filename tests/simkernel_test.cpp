// Unit tests for the discrete-event simulation substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "simkernel/event_queue.hpp"
#include "simkernel/histogram.hpp"
#include "simkernel/nhpp.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"
#include "simkernel/time.hpp"

namespace symfail::sim {
namespace {

TEST(Duration, UnitConversions) {
    EXPECT_EQ(Duration::seconds(2).totalMicros(), 2'000'000);
    EXPECT_EQ(Duration::minutes(3).totalSeconds(), 180);
    EXPECT_EQ(Duration::hours(2).totalSeconds(), 7'200);
    EXPECT_EQ(Duration::days(1).totalSeconds(), 86'400);
    EXPECT_DOUBLE_EQ(Duration::hours(36).asDaysF(), 1.5);
}

TEST(Duration, Arithmetic) {
    const auto d = Duration::seconds(90) - Duration::minutes(1);
    EXPECT_EQ(d.totalSeconds(), 30);
    EXPECT_EQ((Duration::seconds(10) * 6).totalSeconds(), 60);
    EXPECT_EQ((Duration::minutes(1) / 2).totalSeconds(), 30);
    EXPECT_TRUE((Duration::seconds(1) - Duration::seconds(2)).isNegative());
    EXPECT_DOUBLE_EQ(Duration::minutes(1).ratio(Duration::seconds(30)), 2.0);
}

TEST(Duration, FromSecondsFRounds) {
    EXPECT_EQ(Duration::fromSecondsF(1.0000004).totalMicros(), 1'000'000);
    EXPECT_EQ(Duration::fromSecondsF(0.5).totalMicros(), 500'000);
}

TEST(Duration, Render) {
    EXPECT_EQ(Duration::seconds(5).str(), "5.000s");
    const auto d = Duration::days(2) + Duration::hours(3) + Duration::minutes(10) +
                   Duration::seconds(5);
    EXPECT_EQ(d.str(), "2d 3h 10m 5.000s");
}

TEST(TimePoint, DayArithmetic) {
    const auto t = TimePoint::origin() + Duration::days(3) + Duration::hours(10);
    EXPECT_EQ(t.dayIndex(), 3);
    EXPECT_EQ(t.timeOfDay().totalSeconds(), 10 * 3'600);
}

TEST(TimePoint, Ordering) {
    const auto a = TimePoint::origin() + Duration::seconds(1);
    const auto b = TimePoint::origin() + Duration::seconds(2);
    EXPECT_LT(a, b);
    EXPECT_EQ((b - a).totalMicros(), 1'000'000);
}

TEST(Rng, Deterministic) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.nextU64(), b.nextU64());
    }
}

TEST(Rng, ForkIndependence) {
    Rng a{42};
    Rng fork = a.fork();
    // The fork should not replay the parent's stream.
    Rng c{42};
    (void)c.nextU64();  // parent consumed one draw for the fork
    EXPECT_NE(fork.nextU64(), c.nextU64());
}

TEST(Rng, Uniform01Range) {
    Rng rng{7};
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBounds) {
    Rng rng{7};
    for (int i = 0; i < 10'000; ++i) {
        const auto v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

// uniformInt works out its rejection bound only for a draw that could
// reach it.  Its draws must equal those of the rule that works the bound
// out first, for small spans and for spans so large that draws near the
// top of the range are common: some of them rejected, some accepted.
TEST(Rng, UniformIntDrawsMatchTheEagerBound) {
    const auto eager = [](Rng& rng, std::int64_t hi) {
        const auto span = static_cast<std::uint64_t>(hi) + 1;
        const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
        std::uint64_t v = rng.nextU64();
        while (v >= limit) v = rng.nextU64();
        return static_cast<std::int64_t>(v % span);
    };
    std::vector<std::int64_t> highs;
    for (std::int64_t hi = 1; hi < 64; ++hi) highs.push_back(hi);
    // Spans 2^62 + 1, 3 * 2^61, 10^18 and 2^63.
    for (const std::int64_t hi : {std::int64_t{1} << 62, 3 * (std::int64_t{1} << 61) - 1,
                                  std::int64_t{999'999'999'999'999'999}, INT64_MAX}) {
        highs.push_back(hi);
    }
    for (const std::uint64_t seed : {1ULL, 2007ULL, 0x9E3779B97F4A7C15ULL}) {
        for (const std::int64_t hi : highs) {
            Rng lazy{seed};
            Rng reference{seed};
            for (int i = 0; i < 1'000; ++i) {
                ASSERT_EQ(lazy.uniformInt(0, hi), eager(reference, hi))
                    << "hi " << hi << ", seed " << seed << ", draw " << i;
            }
            EXPECT_EQ(lazy.nextU64(), reference.nextU64()) << "hi " << hi << ", seed " << seed;
        }
    }
}

TEST(Rng, ExponentialMean) {
    Rng rng{11};
    double sum = 0.0;
    for (int i = 0; i < 100'000; ++i) sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / 100'000.0, 5.0, 0.1);
}

TEST(Rng, LognormalMedian) {
    Rng rng{11};
    std::vector<double> draws;
    for (int i = 0; i < 50'001; ++i) draws.push_back(rng.lognormalMedian(80.0, 0.5));
    std::nth_element(draws.begin(), draws.begin() + 25'000, draws.end());
    EXPECT_NEAR(draws[25'000], 80.0, 2.0);
}

TEST(Rng, GeometricAtLeastOne) {
    Rng rng{13};
    double sum = 0.0;
    for (int i = 0; i < 50'000; ++i) {
        const int g = rng.geometric(0.55);
        ASSERT_GE(g, 1);
        sum += g;
    }
    EXPECT_NEAR(sum / 50'000.0, 1.0 / 0.55, 0.03);
}

TEST(Rng, DiscreteRespectsWeights) {
    Rng rng{17};
    const std::array<double, 3> weights{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 40'000; ++i) ++counts[rng.discrete(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / static_cast<double>(counts[0]), 3.0,
                0.3);
}

TEST(Rng, BernoulliRate) {
    Rng rng{19};
    int hits = 0;
    for (int i = 0; i < 100'000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 100'000.0, 0.25, 0.01);
}

TEST(Rng, SubstreamDoesNotAdvanceParent) {
    Rng withSub{99};
    Rng withoutSub{99};
    const Rng child = withSub.substream("srgm-ground-truth");
    (void)child;
    // The parent's stream must be bit-identical whether or not the
    // substream was derived — that is the whole point of substream().
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(withSub.nextU64(), withoutSub.nextU64());
    }
}

TEST(Rng, SubstreamDeterministicAndSaltSensitive) {
    const Rng parent{99};
    Rng a = parent.substream("alpha");
    Rng b = parent.substream("alpha");
    Rng c = parent.substream("beta");
    bool anyDiffer = false;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t va = a.nextU64();
        EXPECT_EQ(va, b.nextU64());
        anyDiffer = anyDiffer || va != c.nextU64();
    }
    EXPECT_TRUE(anyDiffer);
}

TEST(Nhpp, ThinningIsDeterministic) {
    const auto intensity = [](double t) { return 5.0 * std::exp(-t / 40.0); };
    Rng r1 = Rng{7}.substream("nhpp");
    Rng r2 = Rng{7}.substream("nhpp");
    const auto t1 = sampleNhppByThinning(r1, intensity, 5.0, 100.0);
    const auto t2 = sampleNhppByThinning(r2, intensity, 5.0, 100.0);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, t2);
}

TEST(Nhpp, TimesOrderedWithinHorizon) {
    const auto intensity = [](double t) { return 2.0 + std::sin(t) + 1.0; };
    Rng rng{11};
    const auto times = sampleNhppByThinning(rng, intensity, 4.0, 200.0);
    ASSERT_GT(times.size(), 10u);
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_GT(times[i], 0.0);
        EXPECT_LT(times[i], 200.0);
        if (i > 0) {
            EXPECT_GT(times[i], times[i - 1]);
        }
    }
}

TEST(Nhpp, ConstantIntensityMatchesPoissonCount) {
    // With lambda(t) == lambdaMax the thinning accepts everything and the
    // count over the horizon is Poisson(lambda * T); check the mean over
    // repetitions stays within a few standard errors.
    Rng rng{42};
    const double lambda = 3.0;
    const double horizon = 50.0;
    const int reps = 200;
    double total = 0.0;
    for (int i = 0; i < reps; ++i) {
        total += static_cast<double>(
            sampleNhppByThinning(rng, [&](double) { return lambda; }, lambda, horizon)
                .size());
    }
    const double meanCount = total / reps;
    const double expected = lambda * horizon;
    EXPECT_NEAR(meanCount, expected, 4.0 * std::sqrt(expected / reps));
}

TEST(Nhpp, DecayingIntensityExpectedCount) {
    // Goel-Okumoto intensity a*b*exp(-b t): expected count on [0, T] is
    // a*(1 - exp(-b T)).
    Rng rng{77};
    const double a = 120.0;
    const double b = 0.02;
    const int reps = 100;
    double total = 0.0;
    for (int i = 0; i < reps; ++i) {
        total += static_cast<double>(
            sampleNhppByThinning(
                rng, [&](double t) { return a * b * std::exp(-b * t); }, a * b, 300.0)
                .size());
    }
    const double expected = a * (1.0 - std::exp(-b * 300.0));
    EXPECT_NEAR(total / reps, expected, 0.05 * expected);
}

TEST(EventQueue, OrdersByTime) {
    EventQueue queue;
    std::vector<int> fired;
    queue.schedule(TimePoint::fromMicros(30), [&]() { fired.push_back(3); });
    queue.schedule(TimePoint::fromMicros(10), [&]() { fired.push_back(1); });
    queue.schedule(TimePoint::fromMicros(20), [&]() { fired.push_back(2); });
    while (!queue.empty()) queue.pop().action();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFifo) {
    EventQueue queue;
    std::vector<int> fired;
    for (int i = 0; i < 5; ++i) {
        queue.schedule(TimePoint::fromMicros(100), [&fired, i]() { fired.push_back(i); });
    }
    while (!queue.empty()) queue.pop().action();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, Cancel) {
    EventQueue queue;
    bool fired = false;
    const auto id = queue.schedule(TimePoint::fromMicros(10), [&]() { fired = true; });
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));  // already cancelled
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownId) {
    EventQueue queue;
    EXPECT_FALSE(queue.cancel(EventId{999}));
    EXPECT_FALSE(queue.cancel(EventId{}));
}

TEST(EventQueue, MatchesReferenceModel) {
    // Seeded random schedule/cancel/pop sequences against a std::map keyed
    // on (time, seq).  Times come from a narrow range so same-time ties are
    // common; cancel ids are drawn from pending, fired, already-cancelled,
    // null and never-issued ids.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng{seed};
        EventQueue queue;
        std::map<std::pair<std::int64_t, std::uint64_t>, int> model;  // -> tag
        std::uint64_t issued = 0;  // ids run 1..issued
        std::int64_t now = 0;
        int firedTag = -1;
        const auto popAndCheck = [&]() {
            const auto [key, tag] = *model.begin();
            model.erase(model.begin());
            EventQueue::Fired fired = queue.pop();
            ASSERT_EQ(fired.at, TimePoint::fromMicros(key.first));
            ASSERT_EQ(fired.id, EventId{key.second});
            fired.action();
            ASSERT_EQ(firedTag, tag);
            now = key.first;
        };
        for (int step = 0; step < 2'000; ++step) {
            const auto op = rng.uniformInt(0, 9);
            if (op < 4) {
                const std::int64_t at = now + rng.uniformInt(0, 3);
                const int tag = step;
                const EventId id = queue.schedule(TimePoint::fromMicros(at),
                                                  [&firedTag, tag]() { firedTag = tag; });
                ASSERT_EQ(id.value, issued + 1);  // ids are issued in sequence
                issued = id.value;
                model.emplace(std::pair{at, id.value}, tag);
            } else if (op < 7) {
                EventId id;
                switch (rng.uniformInt(0, 4)) {
                    case 0:  // pending, when there is one
                        if (!model.empty()) {
                            const auto k = rng.uniformInt(
                                0, static_cast<std::int64_t>(model.size()) - 1);
                            id.value = std::next(model.begin(), k)->first.second;
                        }
                        break;
                    case 1:
                    case 2:  // any issued id: pending, fired or cancelled
                        if (issued > 0) {
                            id.value = static_cast<std::uint64_t>(
                                rng.uniformInt(1, static_cast<std::int64_t>(issued)));
                        }
                        break;
                    case 3: break;  // the null id
                    default:        // never issued (yet)
                        id.value = issued + 1 +
                                   static_cast<std::uint64_t>(rng.uniformInt(0, 100));
                        break;
                }
                auto pending = model.begin();
                while (pending != model.end() && pending->first.second != id.value) {
                    ++pending;
                }
                const bool expected = pending != model.end();
                ASSERT_EQ(queue.cancel(id), expected) << "id " << id.value;
                if (expected) model.erase(pending);
            } else if (!model.empty()) {
                ASSERT_NO_FATAL_FAILURE(popAndCheck());
            }
            ASSERT_EQ(queue.size(), model.size());
            ASSERT_EQ(queue.empty(), model.empty());
            const auto next = queue.nextTime();
            ASSERT_EQ(next.has_value(), !model.empty());
            if (next) {
                ASSERT_EQ(*next, TimePoint::fromMicros(model.begin()->first.first));
            }
        }
        while (!model.empty()) ASSERT_NO_FATAL_FAILURE(popAndCheck());
        EXPECT_TRUE(queue.empty());
        EXPECT_FALSE(queue.nextTime().has_value());
    }
}

TEST(EventQueueLane, PastScheduleKeepsTimeOrder) {
    // Only a bare queue accepts a time before the last pop (the simulator
    // clamps).  Such an event must fire in time order, even when it lands
    // on the last-popped instant while a later one waits.
    EventQueue queue;
    std::vector<int> fired;
    const auto tag = [&fired](int t) { return [&fired, t]() { fired.push_back(t); }; };
    queue.schedule(TimePoint::fromMicros(10), tag(0));
    queue.pop().action();
    queue.schedule(TimePoint::fromMicros(10), tag(1));
    queue.schedule(TimePoint::fromMicros(5), tag(2));
    queue.pop().action();
    queue.schedule(TimePoint::fromMicros(5), tag(3));
    while (!queue.empty()) queue.pop().action();
    EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 1}));
}

TEST(Simulator, AdvancesClock) {
    Simulator simulator;
    TimePoint seen{};
    simulator.scheduleAfter(Duration::seconds(5), "test", [&]() { seen = simulator.now(); });
    simulator.runUntil(TimePoint::origin() + Duration::seconds(10));
    EXPECT_EQ(seen, TimePoint::origin() + Duration::seconds(5));
    EXPECT_EQ(simulator.now(), TimePoint::origin() + Duration::seconds(10));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator simulator;
    int fired = 0;
    simulator.scheduleAfter(Duration::seconds(5), "test", [&]() { ++fired; });
    simulator.scheduleAfter(Duration::seconds(15), "test", [&]() { ++fired; });
    simulator.runUntil(TimePoint::origin() + Duration::seconds(10));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(simulator.pendingEvents(), 1u);
}

TEST(Simulator, SchedulingInPastClamps) {
    Simulator simulator;
    bool fired = false;
    simulator.scheduleAfter(Duration::seconds(1), "test", [&]() {
        simulator.scheduleAt(TimePoint::origin(), [&]() { fired = true; });
    });
    simulator.runUntil(TimePoint::origin() + Duration::seconds(2));
    EXPECT_TRUE(fired);
}

TEST(Histogram, BinsAndFractions) {
    Histogram hist{0.0, 100.0, 10};
    hist.add(5.0);
    hist.add(15.0);
    hist.add(15.5);
    hist.add(-1.0);
    hist.add(200.0);
    EXPECT_EQ(hist.binValue(0), 1u);
    EXPECT_EQ(hist.binValue(1), 2u);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 1u);
    EXPECT_EQ(hist.total(), 5u);
}

TEST(Histogram, ModeMidpoint) {
    Histogram hist{0.0, 100.0, 10};
    for (int i = 0; i < 10; ++i) hist.add(75.0);
    hist.add(5.0);
    EXPECT_DOUBLE_EQ(hist.modeMidpoint(), 75.0);
}

TEST(Histogram, Quantile) {
    Histogram hist{0.0, 100.0, 100};
    for (int i = 0; i < 100; ++i) hist.add(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(hist.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(hist.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, LogScaleGeometry) {
    const auto hist = Histogram::logScale(0.1, 100.0, 1);
    // One bin per decade: [0.1, 1), [1, 10), [10, 100).
    ASSERT_EQ(hist.binCount(), 3u);
    EXPECT_NEAR(hist.binLo(0), 0.1, 1e-12);
    EXPECT_NEAR(hist.binHi(0), 1.0, 1e-12);
    EXPECT_NEAR(hist.binLo(2), 10.0, 1e-9);
    EXPECT_NEAR(hist.binHi(2), 100.0, 1e-9);
}

TEST(Histogram, LogScaleAddAndQuantile) {
    auto hist = Histogram::logScale(0.01, 1000.0, 3);
    hist.add(0.005);  // underflow
    hist.add(0.5);
    hist.add(50.0);
    hist.add(5000.0);  // overflow
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 1u);
    EXPECT_EQ(hist.total(), 4u);
    // The in-range samples must land in bins whose edges bracket them.
    for (std::size_t i = 0; i < hist.binCount(); ++i) {
        if (hist.binValue(i) == 0) continue;
        EXPECT_LT(hist.binLo(i), hist.binHi(i));
    }
}

TEST(Histogram, LogScaleMergeRequiresIdenticalEdges) {
    auto a = Histogram::logScale(0.1, 100.0, 2);
    auto b = Histogram::logScale(0.1, 100.0, 2);
    a.add(1.0);
    b.add(10.0);
    a.merge(b);
    EXPECT_EQ(a.total(), 2u);
}

TEST(FreqCounter, CountsAndMean) {
    FreqCounter counter;
    counter.add(1, 3);
    counter.add(2);
    EXPECT_EQ(counter.total(), 4u);
    EXPECT_EQ(counter.count(1), 3u);
    EXPECT_DOUBLE_EQ(counter.fraction(2), 0.25);
    EXPECT_DOUBLE_EQ(counter.mean(), (3.0 * 1 + 2) / 4.0);
}

}  // namespace
}  // namespace symfail::sim
