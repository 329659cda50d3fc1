#include "fleet/fleet.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <optional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "faults/injector.hpp"
#include "fleet/observer.hpp"
#include "logger/records.hpp"
#include "obs/journal.hpp"
#include "simkernel/pool.hpp"
#include "simkernel/simulator.hpp"
#include "transport/frame.hpp"
#include "transport/reassembly.hpp"

namespace symfail::fleet {
namespace {

/// Symbian version mix: mostly 8.0, as in the study.
constexpr std::array<std::string_view, 6> kVersionPool{"6.1", "7.0", "8.0",
                                                       "8.0", "8.0", "9.0"};
/// Output (value) failures: the forum study makes them the most common
/// failure type; modelled at roughly twice the freeze rate.
constexpr double kOutputFailuresPerHour = 2.0 / 313.0;
/// Assumed powered-on fraction of observed wall-clock time, used only to
/// convert targets into background rates (measured behaviour feeds back
/// through the logs, not through this estimate).
constexpr double kAssumedOnFraction = 0.85;

/// Simulated time the phones run between two deliveries of their
/// journals.  A week keeps the workers' barrier (tens of microseconds) out
/// of sight next to a window's work, and keeps a window's journals small:
/// with an observer attached they hold a copy of every accepted frame.
constexpr sim::Duration kWindow = sim::Duration::days(7);

/// Bytes one phone's subsystems hold, as an accounting sweep reads them.
struct PhoneBytes {
    std::uint64_t simkernel{0};
    std::uint64_t phone{0};
    std::uint64_t logger{0};
    std::uint64_t transport{0};
    std::uint64_t server{0};

    PhoneBytes& operator+=(const PhoneBytes& other) {
        simkernel += other.simkernel;
        phone += other.phone;
        logger += other.logger;
        transport += other.transport;
        server += other.server;
        return *this;
    }
};

/// Adapts one phone's flash mutations onto its provenance journal: only
/// the consolidated Log File feeds lineage, and every event is stamped
/// with the simulated clock the flash write happened under.
class ProvenanceFlashAdapter final : public phone::FlashWriteObserver {
public:
    ProvenanceFlashAdapter(obs::ProvenanceJournal& journal, sim::Simulator& simulator)
        : journal_{&journal}, simulator_{&simulator} {}

    void onAppend(std::string_view file, std::uint64_t offset,
                  std::uint32_t length, std::string_view line) override {
        if (file != logger::kLogFile) return;
        journal_->recordCreated(offset, length, logger::recordTag(line), simulator_->now());
    }
    void onTear(std::string_view file, std::uint64_t newSize) override {
        if (file != logger::kLogFile) return;
        journal_->tailTorn(newSize, simulator_->now());
    }
    void onRotate(std::string_view file, std::uint64_t cutBytes) override {
        if (file != logger::kLogFile) return;
        journal_->prefixRotated(cutBytes, simulator_->now());
    }

private:
    obs::ProvenanceJournal* journal_;
    sim::Simulator* simulator_;
};

/// One phone and everything that runs with it: its simulator, its fault
/// planes, its server shard and the journal of what it hands to the
/// campaign-wide sinks, so that a worker thread can run it alone.
/// Members die in reverse order.  The device (the last component
/// declared) goes first: its destructor may run power-down hooks that call
/// back into the logger, injector, upload agent and planes.  The planes go after the
/// rest of the phone, whose components they point into, and cancel their
/// pending events in the simulator, which goes last.
struct PhoneUnit {
    PhoneUnit() = default;
    PhoneUnit(const PhoneUnit&) = delete;
    PhoneUnit& operator=(const PhoneUnit&) = delete;

    sim::Simulator simulator;
    osfault::PhonePlanes planes;
    obs::Journal journal;
    std::unique_ptr<obs::ProvenanceJournal> provenance;
    /// The phone's collection-server shard: it files and acks this
    /// phone's frames only.
    transport::Reassembler shard;
    std::unique_ptr<logger::FailureLogger> logger;
    std::unique_ptr<logger::UserReportChannel> userReports;
    std::unique_ptr<faults::FaultInjector> injector;
    std::unique_ptr<transport::Channel> dataChannel;
    std::unique_ptr<transport::Channel> ackChannel;
    std::unique_ptr<transport::UploadAgent> uploadAgent;
    std::unique_ptr<ProvenanceFlashAdapter> flashAdapter;
    std::unique_ptr<phone::PhoneDevice> device;
    /// The phone's accounting samples that the fleet's sweeps have yet to
    /// record, oldest first.
    std::vector<PhoneBytes> samples;

    [[nodiscard]] PhoneBytes bytes() const {
        PhoneBytes bytes;
        bytes.simkernel = simulator.queueApproxBytes();
        bytes.phone = device->approxMemoryBytes();
        bytes.logger = logger->approxMemoryBytes();
        for (const transport::Channel* channel : {dataChannel.get(), ackChannel.get()}) {
            if (channel != nullptr) bytes.transport += channel->approxMemoryBytes();
        }
        if (uploadAgent != nullptr) bytes.transport += uploadAgent->approxMemoryBytes();
        bytes.server = shard.approxMemoryBytes();
        return bytes;
    }
};

/// What the harvest takes off one phone after its last window.
struct Harvest {
    std::optional<analysis::PhoneLog> collected;  ///< The shard's copy, if heard from.
    std::size_t recordsInjected{0};
    std::size_t recordsDelivered{0};
};

/// Schedules the phone's accounting samples, one at every sweep instant.
/// The phone runs a window before the fleet does, so the fleet's sweep at
/// the same instant finds the sample waiting.
void armAccounting(PhoneUnit& unit, sim::Duration interval) {
    unit.simulator.scheduleAfter(interval, "obs.account", [&unit, interval]() {
        unit.samples.push_back(unit.bytes());
        armAccounting(unit, interval);
    });
}

/// The phones' worker count: the caller's thread share up to the phone
/// count (every hardware thread outside a pool task; a sweep trial's share
/// of them inside one), or one (the calling thread) with a trace sink or a
/// profiler attached: trace sinks are not thread-safe, and the profiler's
/// categories must add up to the simulate span on one clock.
int phoneWorkers(const FleetConfig& config) {
    if (config.obs.trace != nullptr || config.obs.profiler != nullptr) return 1;
    return std::max(1, std::min(sim::taskThreads(), config.phoneCount));
}

/// Delivers one window's journals on the calling thread in (time, phone
/// index, journal order), running the fleet simulator's own events between
/// the items: a fleet event runs after every phone item at its instant.
/// Then runs the fleet to `to` (its events at `to` too when `last`) and
/// clears the journals.  Returns false when an observer stopped the
/// campaign.
bool deliverWindow(std::vector<PhoneUnit>& units, sim::Simulator& fleet,
                   sim::TimePoint to, bool last) {
    struct Ref {
        sim::TimePoint at;
        std::uint32_t phone;
        std::uint32_t item;
    };
    std::vector<Ref> order;
    for (std::size_t p = 0; p < units.size(); ++p) {
        const obs::Journal& items = units[p].journal;
        for (std::size_t k = 0; k < items.size(); ++k) {
            order.push_back(Ref{items[k].at, static_cast<std::uint32_t>(p),
                                static_cast<std::uint32_t>(k)});
        }
    }
    std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
        if (a.at != b.at) return a.at < b.at;
        return a.phone != b.phone ? a.phone < b.phone : a.item < b.item;
    });
    bool running = true;
    for (const Ref& ref : order) {
        fleet.runBefore(ref.at);
        if (fleet.stopRequested()) {
            running = false;
            break;
        }
        units[ref.phone].journal[ref.item].deliver();
    }
    if (running) {
        if (last) {
            fleet.runUntil(to);
        } else {
            fleet.runBefore(to);
        }
        running = !fleet.stopRequested();
    }
    for (auto& unit : units) unit.journal.clear();
    return running;
}

/// Hours from the campaign's start to phone `i`'s enrollment: the phones
/// join at (i + 0.5) / n of the way through the enrollment window.
double joinHours(const FleetConfig& config, int i) {
    return (static_cast<double>(i) + 0.5) / static_cast<double>(config.phoneCount) *
           config.enrollmentWindow.asHoursF();
}

}  // namespace

analysis::TruthMap FleetResult::truthMap() const {
    analysis::TruthMap map;
    for (std::size_t i = 0; i < phoneNames.size(); ++i) {
        map.emplace(phoneNames[i], &truths[i]);
    }
    return map;
}

double expectedObservedHours(const FleetConfig& config) {
    // Each phone is observed from its enrollment to campaign end.
    double total = 0.0;
    for (int i = 0; i < config.phoneCount; ++i) {
        total += config.campaign.asHoursF() - joinHours(config, i);
    }
    return total;
}

void setCampaignDays(FleetConfig& config, long long days) {
    config.campaign = sim::Duration::days(days);
    if (config.enrollmentWindow > config.campaign) {
        config.enrollmentWindow = config.campaign / 2;
    }
}

faults::StudyPlan derivePlan(const FleetConfig& config) {
    const double wallHours = expectedObservedHours(config);
    const double onHours = wallHours * kAssumedOnFraction;
    faults::StudyPlan plan;
    // Typical profile: ~6 calls and ~8 messages per powered-on day.
    plan.expectedCalls = onHours / 24.0 * 6.0;
    plan.expectedMessages = onHours / 24.0 * 8.0;
    plan.expectedOnHours = onHours;
    plan.targetPanics = config.panicsPerHour * wallHours;
    plan.targetFreezes = config.freezesPerHour * wallHours;
    plan.targetSelfShutdowns = config.selfShutdownsPerHour * wallHours;
    plan.targetOutputFailures = kOutputFailuresPerHour * wallHours;
    return plan;
}

FleetResult runCampaign(const FleetConfig& config) {
    const auto phoneCount = static_cast<std::size_t>(std::max(config.phoneCount, 0));
    // The observers' simulator: the monitor's ticks, the accountant's
    // sweeps and whatever else an observer schedules.  Each phone runs in
    // a simulator of its own.
    sim::Simulator fleet;
    fleet.setTraceSink(config.obs.trace);
    fleet.setProfiler(config.obs.profiler);
    const std::uint32_t fleetTrack =
        config.obs.trace != nullptr ? config.obs.trace->registerTrack("fleet") : 0;
    sim::Rng fleetRng{config.seed};
    // Transport draws come from an independent stream so enabling the
    // collection path never shifts the per-phone seeds — the simulated
    // campaign (and every regenerated table) stays bit-identical.
    sim::Rng transportRng{config.seed ^ 0x7452414E53504F52ULL};
    // Fault planes likewise: their own substream, consumed only when
    // planes attach, so disabled planes leave every other draw untouched.
    sim::Rng osfaultRng{config.seed ^ 0x4F534641554C5421ULL};

    const auto rates = faults::deriveRates(derivePlan(config));

    // Sized once: the phones' closures hold their unit's address.
    std::vector<PhoneUnit> units(phoneCount);

    // The monitor learns the campaign shape before any event fires, so its
    // own periodic work rides the same simulated clock as everything else.
    CampaignObserver* monitor = config.obs.monitor;
    obs::ProvenanceTracker* provenance = config.obs.provenance;
    if (provenance != nullptr) provenance->attachTrace(config.obs.trace);
    if (monitor != nullptr) {
        if (provenance != nullptr) monitor->onProvenanceAttached(provenance);
        monitor->onCampaignBegin(fleet, config);
    }

    // Accounting: each phone samples its own bytes at the sweep instants,
    // and the fleet's sweep records the sums.  The samples touch no RNG
    // stream and mutate nothing, so — like the monitor — attaching the
    // accountant leaves every campaign table bit-identical (the extra
    // events only shift queue sequence numbers, which order only the
    // samples themselves).
    obs::ResourceAccountant* accountant = config.obs.accountant;

    for (std::size_t i = 0; i < phoneCount; ++i) {
        PhoneUnit& unit = units[i];
        sim::Simulator& simulator = unit.simulator;
        simulator.setTraceSink(config.obs.trace);
        simulator.setProfiler(config.obs.profiler);

        phone::PhoneDevice::Config deviceConfig;
        deviceConfig.name = "phone-" + std::to_string(i);
        deviceConfig.symbianVersion = kVersionPool[i % kVersionPool.size()];
        deviceConfig.seed = fleetRng.nextU64();

        // Per-user variation around the typical profile.
        phone::UserProfile& profile = deviceConfig.profile;
        profile.callsPerDay = fleetRng.lognormalMedian(6.0, 0.4);
        profile.smsPerDay = fleetRng.lognormalMedian(8.0, 0.5);
        profile.appSessionsPerDay = fleetRng.lognormalMedian(10.0, 0.4);
        profile.nightOffProb = fleetRng.uniform(0.10, 0.45);
        profile.cameraPerDay = fleetRng.lognormalMedian(0.5, 0.6);
        profile.bluetoothPerDay = fleetRng.lognormalMedian(0.3, 0.6);
        profile.webPerDay = fleetRng.lognormalMedian(1.0, 0.6);
        profile.freezeNoticeMedian =
            sim::Duration::fromSecondsF(fleetRng.lognormalMedian(12.0 * 60.0, 0.4));

        unit.device = std::make_unique<phone::PhoneDevice>(simulator, deviceConfig);
        phone::PhoneDevice& device = *unit.device;
        unit.logger = std::make_unique<logger::FailureLogger>(device, config.loggerConfig);
        unit.userReports = std::make_unique<logger::UserReportChannel>(
            device, config.userReportConfig, fleetRng.nextU64());
        unit.injector =
            std::make_unique<faults::FaultInjector>(device, rates, fleetRng.nextU64());
        if (provenance != nullptr) {
            unit.provenance = std::make_unique<obs::ProvenanceJournal>(
                *provenance, deviceConfig.name, unit.journal);
        }

        // The collection path: one lossy channel pair, one upload agent and
        // one server shard per phone, seeded off the independent transport
        // stream.
        if (config.transport.enabled) {
            unit.dataChannel = std::make_unique<transport::Channel>(
                simulator, config.transport.dataChannel, transportRng.nextU64());
            unit.ackChannel = std::make_unique<transport::Channel>(
                simulator, config.transport.ackChannel, transportRng.nextU64());
            unit.uploadAgent = std::make_unique<transport::UploadAgent>(
                device, *unit.logger, *unit.dataChannel, *unit.ackChannel,
                config.transport.policy, transportRng.nextU64());
            unit.dataChannel->setTraceTrack(device.traceTrack());
            unit.ackChannel->setTraceTrack(device.traceTrack());
            if (unit.provenance != nullptr) {
                unit.uploadAgent->setProvenance(unit.provenance.get());
                unit.dataChannel->setProvenance(unit.provenance.get());
            }
            // Server edge: the shard files the frame and ships the ack; the
            // monitor's copy of the frame and its provenance stamp go to the
            // journal, in that order.
            unit.dataChannel->setReceiver([&unit, monitor](const std::string& bytes) {
                const sim::TimePoint now = unit.simulator.now();
                const transport::IngestResult ingest = unit.shard.ingest(bytes);
                if (!ingest.ack) {
                    if (unit.provenance != nullptr) unit.provenance->frameRejected(now);
                    return;
                }
                if (monitor != nullptr) {
                    // The payload view dies with the next ingest: keep a copy.
                    unit.journal.push_back(
                        {now, [monitor, frame = ingest,
                               payload = std::string{ingest.payload}]() mutable {
                             frame.payload = payload;
                             monitor->onFrameAccepted(frame);
                         }});
                }
                if (unit.provenance != nullptr) {
                    unit.provenance->segmentReconciled(ingest.seq, ingest.payload.size(),
                                                       ingest.duplicate, now);
                }
                unit.ackChannel->send(transport::encodeAck(*ingest.ack));
            });
        }

        // Lineage starts at the flash write: the adapter stamps every Log
        // File append (and tear/rotation) the instant it happens.
        if (unit.provenance != nullptr) {
            unit.flashAdapter =
                std::make_unique<ProvenanceFlashAdapter>(*unit.provenance, simulator);
            device.flash().setWriteObserver(unit.flashAdapter.get());
        }

        // OS-interface fault planes: wired after the transport path so the
        // radio plane can feed the channels' outage model, before
        // enrollment so every plane sees the full campaign window.
        if (config.osfault.shouldAttach()) {
            unit.planes = osfault::attachPlanes(
                config.osfault, simulator, device, *unit.logger, unit.dataChannel.get(),
                unit.ackChannel.get(), osfaultRng.nextU64());
        }

        // Staggered enrollment: the phone powers on when its user joins
        // the study.
        const sim::TimePoint enrollAt =
            sim::TimePoint::origin() +
            sim::Duration::fromSecondsF(joinHours(config, static_cast<int>(i)) * 3'600.0);
        if (monitor != nullptr) {
            OutageProbe probe;
            if (const transport::Channel* data = unit.dataChannel.get()) {
                probe = [data](sim::TimePoint t) { return data->inOutage(t); };
            }
            monitor->onPhoneEnrolled(deviceConfig.name, enrollAt, std::move(probe));
        }
        phone::PhoneDevice* devicePtr = &device;
        simulator.scheduleAt(
            enrollAt,
            "fleet.enroll", [devicePtr, &simulator, fleetTrack]() {
                if (auto* trace = simulator.traceSink()) {
                    const obs::TraceArg args[] = {{"phone", devicePtr->name()}};
                    trace->instant(fleetTrack, "fleet", "enroll", simulator.now(),
                                   args);
                }
                devicePtr->powerOn();
            });
        if (accountant != nullptr) armAccounting(unit, config.obs.accountingInterval);
    }

    const auto recordAccounting = [&](const PhoneBytes& phones) {
        accountant->record("simkernel", phones.simkernel + fleet.queueApproxBytes());
        accountant->record("phone", phones.phone);
        accountant->record("logger", phones.logger);
        accountant->record("transport", phones.transport);
        accountant->record("server", phones.server);
        if (monitor != nullptr) {
            accountant->record("monitor", monitor->approxMemoryBytes());
        }
    };
    std::function<void()> scheduleAccountingSweep;
    if (accountant != nullptr) {
        // Each sweep schedules its successor after it runs.
        scheduleAccountingSweep = [&]() {
            fleet.scheduleAfter(config.obs.accountingInterval, "obs.account", [&]() {
                PhoneBytes phones;
                for (auto& unit : units) {
                    phones += unit.samples.front();
                    unit.samples.erase(unit.samples.begin());
                }
                recordAccounting(phones);
                scheduleAccountingSweep();
            });
        };
        scheduleAccountingSweep();
    }

    // The fleet's origin events run before any phone does, so an observer
    // that stops the campaign there (perfbench's set-up-only runs) ends it
    // before a worker starts.  Then the phones run window by window on the
    // workers, and the calling thread delivers each window's journals.
    const sim::TimePoint end = sim::TimePoint::origin() + config.campaign;
    fleet.runUntil(sim::TimePoint::origin());
    bool running = !fleet.stopRequested();
    const int workers = phoneWorkers(config);
    const bool phonesOnWorkers = running && workers > 1;
    sim::WorkerPool pool{workers};
    for (sim::TimePoint from = sim::TimePoint::origin(); running;) {
        const sim::TimePoint to = std::min(from + kWindow, end);
        const bool last = to == end;
        pool.run(phoneCount, [&](std::size_t i) {
            sim::Simulator& simulator = units[i].simulator;
            if (last) {
                simulator.runUntil(to);
            } else {
                simulator.runBefore(to);
            }
        });
        running = deliverWindow(units, fleet, to, last) && !last;
        from = to;
    }

    if (accountant != nullptr) {
        PhoneBytes phones;
        for (const auto& unit : units) phones += unit.bytes();
        recordAccounting(phones);
    }
    if (monitor != nullptr) monitor->onCampaignEnd(end);
    if (provenance != nullptr) {
        // Resolve outcomes at the campaign boundary, before teardown-order
        // stragglers (destructor-time flash writes) could muddy the books.
        provenance->finalize(end);
    }

    // End of campaign: each worker moves its phones' Log Files and ground
    // truth out, rebuilds the shards' copies and counts the records.
    FleetResult result;
    result.logs.resize(phoneCount);
    result.phoneNames.resize(phoneCount);
    result.truths.resize(phoneCount);
    std::vector<Harvest> harvests(phoneCount);
    pool.run(phoneCount, [&](std::size_t i) {
        PhoneUnit& unit = units[i];
        result.phoneNames[i] = unit.device->name();
        result.logs[i] = analysis::PhoneLog{unit.device->name(), unit.logger->takeLogFile()};
        result.truths[i] = std::move(unit.device->groundTruth());
        if (!config.transport.enabled) return;
        Harvest& harvest = harvests[i];
        harvest.recordsInjected = logger::countLogRecords(result.logs[i].logFileContent);
        const std::string& name = result.phoneNames[i];
        const transport::Reassembler& shard = unit.shard;
        if (!shard.has(name)) return;
        harvest.collected =
            analysis::PhoneLog{name, shard.reconstruct(name), shard.coverage(name)};
        harvest.recordsDelivered =
            logger::countLogRecords(harvest.collected->logFileContent);
    });

    std::uint64_t heartbeatsWritten = 0;
    std::uint64_t panicsLogged = 0;
    std::uint64_t bootsLogged = 0;
    result.simulatorEvents = fleet.eventsFired();
    result.queueDepthPeak = fleet.queueDepthPeak();
    for (const auto& unit : units) {
        const auto& stats = unit.injector->stats();
        result.panicsInjected += stats.primaryPanics + stats.secondaryPanics;
        result.hangsInjected += stats.hangs;
        result.spontaneousRebootsInjected += stats.spontaneousReboots;
        result.outputFailuresInjected += stats.outputFailures;
        result.userReportsFiled += unit.userReports->reportsFiled();
        result.totalBoots += unit.device->bootCount();
        heartbeatsWritten += unit.logger->heartbeatsWritten();
        panicsLogged += unit.logger->panicsLogged();
        bootsLogged += unit.logger->bootsLogged();
        result.loggerRecordAnomalies += unit.logger->recordAnomalies();
        result.loggerDaemonDeaths += unit.logger->daemonDeaths();
        result.simulatorEvents += unit.simulator.eventsFired();
        result.queueDepthPeak =
            std::max(result.queueDepthPeak, unit.simulator.queueDepthPeak());
        unit.planes.addStats(result.osfault);
    }

    // Transport accounting: what made it to the collection server, and
    // what the wire cost to get it there.
    transport::TransportReport& report = result.transport;
    report.enabled = config.transport.enabled;
    report.retriesEnabled = config.transport.policy.retriesEnabled;
    if (config.transport.enabled) {
        for (const auto& unit : units) {
            const auto& agentStats = unit.uploadAgent->stats();
            report.uploadRounds += agentStats.rounds;
            report.framesSent += agentStats.framesSent;
            report.retransmits += agentStats.retransmits;
            report.retryBudgetExhausted += agentStats.retryBudgetExhausted;
            report.acksReceived += agentStats.acksReceived;
            report.staleAcks += agentStats.staleAcks;
            report.bytesSent += agentStats.bytesSent;
            report.backoffWaitSeconds += agentStats.backoffWait.asSecondsF();
            for (const transport::Channel* channel :
                 {unit.dataChannel.get(), unit.ackChannel.get()}) {
                const auto& stats = channel->stats();
                report.framesLost += stats.framesLost;
                report.framesDuplicated += stats.framesDuplicated;
                report.framesReordered += stats.framesReordered;
                report.outageDrops += stats.outageDrops;
                report.bytesOnWire += stats.bytesOffered;
                report.framesDelivered += stats.framesDelivered;
                report.bytesDelivered += stats.bytesDelivered;
            }
            report.deliveryLatency.merge(unit.dataChannel->stats().latency);
            const auto& reassembly = unit.shard.stats();
            report.framesRejected += reassembly.framesRejected;
            report.duplicateFrames += reassembly.duplicates;
            report.segmentsStored += reassembly.segmentsStored;
        }

        // Measured coverage: records that reached the server vs records
        // the phone wrote.  Finer than the server's own segment view —
        // bytes lost off the growing tail segment hide inside a segment
        // the server already holds, so `server.coverage` can read 100%
        // while records are missing.  It is stamped onto the collected
        // logs so the analysis dataset flags partial-log phones.
        std::vector<std::size_t> heard;
        for (std::size_t i = 0; i < phoneCount; ++i) {
            const Harvest& harvest = harvests[i];
            report.recordsInjected += harvest.recordsInjected;
            report.coverageByPhone[result.phoneNames[i]] =
                harvest.recordsInjected == 0
                    ? 1.0
                    : std::min(1.0, static_cast<double>(harvest.recordsDelivered) /
                                        static_cast<double>(harvest.recordsInjected));
            if (harvest.collected) heard.push_back(i);
        }
        // One server listed its copies in name order.
        std::sort(heard.begin(), heard.end(), [&](std::size_t a, std::size_t b) {
            return result.phoneNames[a] < result.phoneNames[b];
        });
        for (const std::size_t i : heard) {
            analysis::PhoneLog& log = *harvests[i].collected;
            report.recordsDelivered += harvests[i].recordsDelivered;
            report.payloadBytesDelivered += log.logFileContent.size();
            log.coverage = std::min(log.coverage, report.coverageByPhone[log.phoneName]);
            result.collectedLogs.push_back(std::move(log));
        }
    }

    // Metric publication happens once, after the run: the hot paths keep
    // their plain struct counters and the registry stays a deterministic
    // function of the campaign.  The one exception is an attached
    // profiler, whose host-time profile joins the registry last.
    if (auto* registry = config.obs.metrics) {
        registry->counter("sim", "events_dispatched", "Simulator events fired")
            .inc(result.simulatorEvents);
        registry
            ->gauge("sim", "campaign_days", "Configured campaign length in days")
            .set(config.campaign.asHoursF() / 24.0);
        registry->gauge("fleet", "phones", "Phones enrolled in the campaign")
            .set(static_cast<double>(config.phoneCount));
        registry->counter("fleet", "boots", "Device boots across the fleet")
            .inc(result.totalBoots);
        registry->counter("fleet", "panics_injected", "Panics raised by the injectors")
            .inc(result.panicsInjected);
        registry->counter("fleet", "hangs_injected", "Freezes raised by the injectors")
            .inc(result.hangsInjected);
        registry
            ->counter("fleet", "spontaneous_reboots_injected",
                      "Spontaneous reboots raised by the injectors")
            .inc(result.spontaneousRebootsInjected);
        registry
            ->counter("fleet", "output_failures_injected",
                      "Output (value) failures raised by the injectors")
            .inc(result.outputFailuresInjected);
        registry->counter("fleet", "user_reports_filed", "User reports filed")
            .inc(result.userReportsFiled);
        registry->counter("logger", "heartbeats", "ALIVE heartbeats written to flash")
            .inc(heartbeatsWritten);
        registry->counter("logger", "panics_recorded", "Panic records written")
            .inc(panicsLogged);
        registry->counter("logger", "boots_recorded", "Boot records written")
            .inc(bootsLogged);
        registry
            ->counter("logger", "record_anomalies",
                      "Torn or malformed beats-file tails seen at boot")
            .inc(result.loggerRecordAnomalies);
        registry
            ->counter("logger", "daemon_deaths",
                      "Logger daemons killed while the device stayed up")
            .inc(result.loggerDaemonDeaths);
        if (config.osfault.shouldAttach()) {
            const osfault::CampaignPlaneStats& planes = result.osfault;
            registry
                ->counter("osfault", "flash_activations",
                          "Flash-plane fault activations")
                .inc(planes.flash.activations);
            registry->counter("osfault", "flash_bit_flips", "Flash bits flipped")
                .inc(planes.flash.bitFlips);
            registry
                ->counter("osfault", "flash_torn_writes", "Flash writes torn")
                .inc(planes.flash.tornWrites);
            registry
                ->counter("osfault", "flash_dropped_writes",
                          "Flash writes silently dropped")
                .inc(planes.flash.droppedWrites);
            registry
                ->counter("osfault", "memory_episodes",
                          "Memory-pressure episodes applied")
                .inc(planes.memory.episodes);
            registry
                ->counter("osfault", "memory_oom_kills",
                          "Logger daemons OOM-killed by memory pressure")
                .inc(planes.memory.oomKills);
            registry
                ->counter("osfault", "memory_restarts",
                          "Watchdog restarts of the logger daemon")
                .inc(planes.memory.restarts);
            registry->counter("osfault", "clock_jumps", "Clock jumps applied")
                .inc(planes.clock.jumps);
            registry
                ->counter("osfault", "clock_monotonicity_violations",
                          "Backward steps observed by clock readers")
                .inc(planes.clock.monotonicityViolations);
            registry
                ->counter("osfault", "radio_activations",
                          "Radio-plane fault activations")
                .inc(planes.radio.activations);
            registry
                ->counter("osfault", "radio_link_drops", "Radio link drops")
                .inc(planes.radio.linkDrops);
            registry
                ->counter("osfault", "radio_modem_resets", "Modem resets")
                .inc(planes.radio.modemResets);
        }
        transport::publishTransportMetrics(report, *registry);
        if (provenance != nullptr) provenance->publishMetrics(*registry);
        if (config.obs.profiler != nullptr) config.obs.profiler->publish(*registry);
    }

    // Tear the phones down (see PhoneUnit).  Memory the phones allocated
    // while they ran on the workers sits in those threads' malloc arenas,
    // whose free pages the caller's analysis on this thread never reuses:
    // hand them back.
    units.clear();
#if defined(__GLIBC__)
    if (phonesOnWorkers) malloc_trim(0);
#endif
    return result;
}

}  // namespace symfail::fleet
