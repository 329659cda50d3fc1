// M1: google-benchmark microbenchmarks of the substrates: event queue,
// active-object dispatch, one logger heartbeat tick, one derived-tick
// catch-up, one upload round and the frame codec, log
// serialization/parsing, and the coalescence algorithm's scaling.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>

#include "analysis/coalescence.hpp"
#include "analysis/dataset.hpp"
#include "logger/logger.hpp"
#include "logger/records.hpp"
#include "obs/trace.hpp"
#include "phone/device.hpp"
#include "simkernel/event_queue.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"
#include "symbos/function_ao.hpp"
#include "symbos/kernel.hpp"
#include "transport/channel.hpp"
#include "transport/frame.hpp"
#include "transport/reassembly.hpp"
#include "transport/upload_agent.hpp"

namespace {

using namespace symfail;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    sim::Rng rng{1};
    for (auto _ : state) {
        sim::EventQueue queue;
        for (std::size_t i = 0; i < n; ++i) {
            queue.schedule(sim::TimePoint::fromMicros(
                               static_cast<std::int64_t>(rng.nextU64() % 1'000'000)),
                           []() {});
        }
        while (!queue.empty()) {
            benchmark::DoNotOptimize(queue.pop());
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Range(1'024, 262'144);

// The queue at a steady depth, driven the way a campaign drives it: each
// step is one periodic tick.  It pops the earliest timer expiry, schedules
// the AO completion at that same instant and pops it, then schedules the
// timer's re-arm 60 s on.  Two events per step.  A phone's queue in a
// campaign is about 64 deep; the deeper queues are whole fleets'.
void BM_EventQueueHold(benchmark::State& state) {
    const auto depth = static_cast<std::size_t>(state.range(0));
    const auto period = sim::Duration::seconds(60);
    sim::Rng rng{1};
    sim::EventQueue queue;
    for (std::size_t i = 0; i < depth; ++i) {
        queue.schedule(sim::TimePoint::fromMicros(static_cast<std::int64_t>(
                           rng.nextU64() % static_cast<std::uint64_t>(
                                               period.totalMicros()))),
                       []() {});
    }
    for (auto _ : state) {
        const auto expiry = queue.pop();
        queue.schedule(expiry.at, []() {});
        benchmark::DoNotOptimize(queue.pop());
        queue.schedule(expiry.at + period, []() {});
    }
    state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(1'024)->Arg(32'768);

/// One tick per simulated second for an hour, with `sink` attached; each
/// tick schedules its successor after it runs, as the monitor tick does.
std::uint64_t runSecondTicks(obs::TraceSink* sink) {
    sim::Simulator simulator;
    simulator.setTraceSink(sink);
    std::uint64_t ticks = 0;
    std::function<void()> scheduleTick = [&]() {
        simulator.scheduleAfter(sim::Duration::seconds(1), nullptr, [&]() {
            ++ticks;
            scheduleTick();
        });
    };
    scheduleTick();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(1));
    return ticks;
}

void BM_SimulatorPeriodicTicks(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(runSecondTicks(nullptr));
    }
    state.SetItemsProcessed(3'600 * state.iterations());
}
BENCHMARK(BM_SimulatorPeriodicTicks);

// Same workload with a null trace sink attached: the delta against
// BM_SimulatorPeriodicTicks is the whole per-dispatch observability cost
// when tracing is wired but discarded (acceptance: < 2%).
void BM_SimulatorPeriodicTicksNullSink(benchmark::State& state) {
    obs::NullTraceSink sink;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runSecondTicks(&sink));
    }
    state.SetItemsProcessed(3'600 * state.iterations());
}
BENCHMARK(BM_SimulatorPeriodicTicksNullSink);

void BM_ActiveObjectDispatch(benchmark::State& state) {
    sim::Simulator simulator;
    symbos::Kernel kernel{simulator};
    const auto pid = kernel.createProcess("bench", symbos::ProcessKind::UserApp);
    auto& scheduler = kernel.schedulerOf(pid);
    std::uint64_t ran = 0;
    symbos::FunctionAo ao{scheduler, "bench-ao",
                          [&](symbos::ExecContext&, int) { ++ran; }};
    for (auto _ : state) {
        ao.setActive();
        scheduler.complete(ao, 0);
        simulator.runAll();
    }
    benchmark::DoNotOptimize(ran);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ActiveObjectDispatch);

/// A phone whose user does nothing, so the logger and the battery guard
/// are its only events.
phone::PhoneDevice::Config idlePhone() {
    phone::PhoneDevice::Config config;
    config.name = "bench";
    config.profile.callsPerDay = 0.0;
    config.profile.smsPerDay = 0.0;
    config.profile.cameraPerDay = 0.0;
    config.profile.bluetoothPerDay = 0.0;
    config.profile.webPerDay = 0.0;
    config.profile.appSessionsPerDay = 0.0;
    config.profile.nightOffProb = 0.0;
    config.profile.daytimeOffPerDay = 0.0;
    config.profile.quickCyclesPerDay = 0.0;
    config.profile.loggerTogglesPerMonth = 0.0;
    return config;
}

// One heartbeat period of a booted phone running the failure logger with
// real AO ticks (as in a daemon the memory plane has squeezed): the RTimer
// expiry, the AO completion, the heartbeat RunL (its scratch heap cell and
// the beats-file write) and the re-arm.  The user stays idle, so an
// iteration is one tick plus, now and then, the device's battery guard.
void BM_LoggerHeartbeatTick(benchmark::State& state) {
    sim::Simulator simulator;
    const logger::LoggerConfig loggerConfig;
    // Declared first so it outlives the device, whose teardown runs the
    // logger's kernel hooks.
    std::unique_ptr<logger::FailureLogger> failureLogger;
    auto device = std::make_unique<phone::PhoneDevice>(simulator, idlePhone());
    failureLogger = std::make_unique<logger::FailureLogger>(*device, loggerConfig);
    failureLogger->observeTicks();
    device->powerOn();
    for (auto _ : state) {
        simulator.runUntil(simulator.now() + loggerConfig.heartbeatPeriod);
    }
    benchmark::DoNotOptimize(failureLogger->heartbeatsWritten());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoggerHeartbeatTick);

// One sync 30 minutes after the last on a booted phone whose logger
// derives its ticks: the sync runs the battery tick due, then the
// logger's catch-up counts the period's 30 heartbeats and writes one
// beats line.
void BM_LoggerCatchUp(benchmark::State& state) {
    sim::Simulator simulator;
    std::unique_ptr<logger::FailureLogger> failureLogger;
    auto device = std::make_unique<phone::PhoneDevice>(simulator, idlePhone());
    failureLogger = std::make_unique<logger::FailureLogger>(*device);
    device->powerOn();
    for (auto _ : state) {
        simulator.runUntil(simulator.now() + sim::Duration::minutes(30));
        device->syncLogger();
    }
    benchmark::DoNotOptimize(failureLogger->heartbeatsWritten());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoggerCatchUp);

/// An idle phone uploading its Log File over lossless channels to a
/// server that reassembles and acks every segment.
struct UploadRig {
    sim::Simulator simulator;
    transport::Reassembler server;
    // The device (declared last, destroyed first) runs its power-down
    // hooks while the logger and the agent are still alive.
    std::unique_ptr<logger::FailureLogger> failureLogger;
    std::unique_ptr<transport::Channel> data;
    std::unique_ptr<transport::Channel> acks;
    std::unique_ptr<transport::UploadAgent> agent;
    std::unique_ptr<phone::PhoneDevice> device;

    UploadRig() {
        device = std::make_unique<phone::PhoneDevice>(simulator, idlePhone());
        failureLogger = std::make_unique<logger::FailureLogger>(*device);
        transport::ChannelConfig lossless;
        lossless.lossProb = 0.0;
        lossless.dupProb = 0.0;
        lossless.reorderProb = 0.0;
        data = std::make_unique<transport::Channel>(simulator, lossless, 1);
        acks = std::make_unique<transport::Channel>(simulator, lossless, 2);
        agent = std::make_unique<transport::UploadAgent>(
            *device, *failureLogger, *data, *acks, transport::UploadPolicy{}, 3);
        data->setReceiver([this](const std::string& bytes) {
            if (const auto ack = server.ingest(bytes).ack) {
                acks->send(transport::encodeAck(*ack));
            }
        });
        device->powerOn();
    }

    /// Appends one PANIC record, as a panic during the period would.
    void appendRecord() {
        logger::PanicRecord record;
        record.time = simulator.now();
        record.panic = symbos::kKernExecAccessViolation;
        record.runningApps = {"Messages", "Camera", "Clock"};
        record.activity = logger::ActivityContext::VoiceCall;
        record.batteryPercent = 73;
        device->flash().appendLine(logger::kLogFile, logger::serialize(record));
    }
};

/// The upload agent's round period (upload_agent.cpp).
constexpr auto kUploadPeriod = sim::Duration::hours(6);

// One upload period of a phone whose Log File holds 16 KB and grows by one
// record a period: the round re-splits the segment the append moved,
// frames and sends it, the server reassembles and acks it, and the retry
// firing 45 s later finds it acked.  A fresh rig every 128 periods keeps
// the file between 16 and 30 KB.
void BM_UploadRound(benchmark::State& state) {
    std::unique_ptr<UploadRig> rig;
    std::int64_t period = 0;
    for (auto _ : state) {
        if (period++ % 128 == 0) {
            state.PauseTiming();
            rig.reset();
            rig = std::make_unique<UploadRig>();
            while (rig->failureLogger->logFileContent().size() < 16 * 1024) {
                rig->appendRecord();
            }
            rig->simulator.runUntil(rig->simulator.now() + kUploadPeriod);
            state.ResumeTiming();
        }
        rig->appendRecord();
        rig->simulator.runUntil(rig->simulator.now() + kUploadPeriod);
    }
    benchmark::DoNotOptimize(rig->agent->stats().framesSent);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UploadRound);

// Encodes one full 2 KB segment and decodes it again: a round's send and
// the server's ingest.
void BM_FrameCodec(benchmark::State& state) {
    transport::Frame frame;
    frame.phone = "phone-12";
    frame.seq = 7;
    frame.segCount = 9;
    while (frame.payload.size() < 2048) {
        frame.payload += "PANIC|1234567890|KERN-EXEC|3|Messages,Camera|VoiceCall|73\n";
    }
    frame.payload.resize(2048);
    for (auto _ : state) {
        const std::string wire = transport::encodeFrame(frame);
        benchmark::DoNotOptimize(transport::decodeFrame(wire));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(frame.payload.size()));
}
BENCHMARK(BM_FrameCodec);

void BM_PanicRecordSerialize(benchmark::State& state) {
    logger::PanicRecord record;
    record.time = sim::TimePoint::fromMicros(123'456'789);
    record.panic = symbos::kKernExecAccessViolation;
    record.runningApps = {"Messages", "Camera", "Clock"};
    record.activity = logger::ActivityContext::VoiceCall;
    record.batteryPercent = 73;
    for (auto _ : state) {
        benchmark::DoNotOptimize(logger::serialize(record));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PanicRecordSerialize);

void BM_LogFileParse(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::string content;
    logger::PanicRecord record;
    record.time = sim::TimePoint::fromMicros(1'000'000);
    record.panic = symbos::kUserDesOverflow;
    record.runningApps = {"Messages"};
    record.batteryPercent = 50;
    for (std::size_t i = 0; i < n; ++i) {
        content += logger::serialize(record);
        content += '\n';
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(logger::parseLogFile(content));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_LogFileParse)->Range(256, 16'384);

void BM_Coalescence(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    // Build a synthetic dataset: n panics and n/4 HL events on one phone.
    std::string logContent;
    sim::Rng rng{3};
    for (std::size_t i = 0; i < n; ++i) {
        logger::PanicRecord record;
        record.time = sim::TimePoint::fromMicros(
            static_cast<std::int64_t>(rng.nextU64() % 86'400'000'000ULL));
        record.panic = symbos::kKernExecAccessViolation;
        record.batteryPercent = 50;
        logContent += logger::serialize(record);
        logContent += '\n';
    }
    for (std::size_t i = 0; i < n / 4 + 1; ++i) {
        logger::BootRecord boot;
        boot.prior = logger::PriorShutdown::Freeze;
        boot.lastBeatAt = sim::TimePoint::fromMicros(
            static_cast<std::int64_t>(rng.nextU64() % 86'400'000'000ULL));
        boot.time = boot.lastBeatAt + sim::Duration::seconds(90);
        logContent += logger::serialize(boot);
        logContent += '\n';
    }
    const auto dataset =
        analysis::LogDataset::build({analysis::PhoneLog{"bench", logContent}});
    const analysis::ShutdownDiscriminator discriminator;
    const auto classification = discriminator.classify(dataset);
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::coalesce(dataset, classification, 300.0));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Coalescence)->Range(256, 8'192);

void BM_RngDraws(benchmark::State& state) {
    sim::Rng rng{9};
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.lognormalMedian(80.0, 0.5));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraws);

}  // namespace

BENCHMARK_MAIN();
