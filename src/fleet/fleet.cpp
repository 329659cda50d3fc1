#include "fleet/fleet.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>

#include "faults/injector.hpp"
#include "fleet/collection.hpp"
#include "fleet/observer.hpp"
#include "logger/records.hpp"
#include "simkernel/simulator.hpp"
#include "transport/frame.hpp"

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

/// Adapts one phone's flash mutations onto the provenance tracker: only
/// the consolidated Log File feeds lineage, and every event is stamped
/// with the simulated clock the flash write happened under.
class ProvenanceFlashAdapter final : public phone::FlashWriteObserver {
public:
    ProvenanceFlashAdapter(obs::ProvenanceTracker& tracker,
                           sim::Simulator& simulator, std::string phone)
        : tracker_{&tracker}, simulator_{&simulator}, phone_{std::move(phone)} {}

    void onAppend(std::string_view file, std::uint64_t offset,
                  std::uint32_t length, std::string_view line) override {
        if (file != logger::kLogFile) return;
        tracker_->recordCreated(phone_, offset, length, logger::recordTag(line),
                                simulator_->now());
    }
    void onTear(std::string_view file, std::uint64_t newSize) override {
        if (file != logger::kLogFile) return;
        tracker_->tailTorn(phone_, newSize, simulator_->now());
    }
    void onRotate(std::string_view file, std::uint64_t cutBytes) override {
        if (file != logger::kLogFile) return;
        tracker_->prefixRotated(phone_, cutBytes, simulator_->now());
    }

private:
    obs::ProvenanceTracker* tracker_;
    sim::Simulator* simulator_;
    std::string phone_;
};

}  // namespace

analysis::TruthMap FleetResult::truthMap() const {
    analysis::TruthMap map;
    for (std::size_t i = 0; i < phoneNames.size(); ++i) {
        map.emplace(phoneNames[i], &truths[i]);
    }
    return map;
}

double expectedObservedHours(const FleetConfig& config) {
    // Phone i joins at (i + 0.5)/n * enrollmentWindow and is observed to
    // campaign end.
    double total = 0.0;
    for (int i = 0; i < config.phoneCount; ++i) {
        const double join = (static_cast<double>(i) + 0.5) /
                            static_cast<double>(config.phoneCount) *
                            config.enrollmentWindow.asHoursF();
        total += config.campaign.asHoursF() - join;
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
    sim::Simulator simulator;
    simulator.setTraceSink(config.obs.trace);
    simulator.setProfiler(config.obs.profiler);
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

    // Declared before the phones: planes keep raw pointers into devices,
    // loggers and channels and must outlive them (see registry.hpp).
    std::unique_ptr<osfault::PlaneRegistry> planeRegistry;
    if (config.osfault.shouldAttach()) {
        planeRegistry = std::make_unique<osfault::PlaneRegistry>(config.osfault);
    }

    struct PhoneUnit {
        // Destruction order matters: the device's destructor may run
        // power-down hooks that call back into the logger, injector and
        // upload agent, so the device (declared last) must be destroyed
        // first.
        std::unique_ptr<logger::FailureLogger> logger;
        std::unique_ptr<logger::UserReportChannel> userReports;
        std::unique_ptr<faults::FaultInjector> injector;
        std::unique_ptr<transport::Channel> dataChannel;
        std::unique_ptr<transport::Channel> ackChannel;
        std::unique_ptr<transport::UploadAgent> uploadAgent;
        std::unique_ptr<ProvenanceFlashAdapter> flashAdapter;
        std::unique_ptr<phone::PhoneDevice> device;
    };
    std::vector<PhoneUnit> units;
    units.reserve(static_cast<std::size_t>(config.phoneCount));

    CollectionServer server;

    // The monitor taps the ingest stream and learns the campaign shape
    // before any event fires, so its own periodic work rides the same
    // simulated clock as everything else.
    CampaignObserver* monitor = config.obs.monitor;
    obs::ProvenanceTracker* provenance = config.obs.provenance;
    if (provenance != nullptr) provenance->attachTrace(config.obs.trace);
    if (monitor != nullptr) {
        server.setIngestObserver(monitor);
        if (provenance != nullptr) monitor->onProvenanceAttached(provenance);
        monitor->onCampaignBegin(simulator, config);
    }

    FleetResult result;

    for (int i = 0; i < config.phoneCount; ++i) {
        phone::PhoneDevice::Config deviceConfig;
        deviceConfig.name = "phone-" + std::to_string(i);
        deviceConfig.symbianVersion =
            kVersionPool[static_cast<std::size_t>(i) % kVersionPool.size()];
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

        auto device = std::make_unique<phone::PhoneDevice>(simulator, deviceConfig);
        auto loggerApp =
            std::make_unique<logger::FailureLogger>(*device, config.loggerConfig);
        auto userReports = std::make_unique<logger::UserReportChannel>(
            *device, config.userReportConfig, fleetRng.nextU64());
        auto injector = std::make_unique<faults::FaultInjector>(*device, rates,
                                                                fleetRng.nextU64());

        // The collection path: one lossy channel pair and one upload agent
        // per phone, all seeded off the independent transport stream.
        std::unique_ptr<transport::Channel> dataChannel;
        std::unique_ptr<transport::Channel> ackChannel;
        std::unique_ptr<transport::UploadAgent> uploadAgent;
        if (config.transport.enabled) {
            dataChannel = std::make_unique<transport::Channel>(
                simulator, config.transport.dataChannel, transportRng.nextU64());
            ackChannel = std::make_unique<transport::Channel>(
                simulator, config.transport.ackChannel, transportRng.nextU64());
            uploadAgent = std::make_unique<transport::UploadAgent>(
                *device, *loggerApp, *dataChannel, *ackChannel,
                config.transport.policy, transportRng.nextU64());
            dataChannel->setTraceTrack(device->traceTrack());
            ackChannel->setTraceTrack(device->traceTrack());
            if (provenance != nullptr) {
                uploadAgent->setProvenance(provenance);
                dataChannel->setProvenance(provenance);
            }
            // Server edge: file the frame, stamp what the reassembler stored
            // (or count the rejected copy) for provenance, then ship the ack.
            transport::Channel* ackPtr = ackChannel.get();
            dataChannel->setReceiver([&server, &simulator, ackPtr,
                                      provenance](const std::string& bytes) {
                const auto ingest = server.ingestFrame(bytes);
                if (provenance != nullptr) {
                    if (ingest.ack) {
                        provenance->segmentReconciled(
                            ingest.phone, ingest.seq, ingest.payload.size(),
                            ingest.duplicate, simulator.now());
                    } else {
                        provenance->frameRejected(simulator.now());
                    }
                }
                if (ingest.ack) ackPtr->send(transport::encodeAck(*ingest.ack));
            });
        }

        // Lineage starts at the flash write: the adapter stamps every Log
        // File append (and tear/rotation) the instant it happens.
        std::unique_ptr<ProvenanceFlashAdapter> flashAdapter;
        if (provenance != nullptr) {
            flashAdapter = std::make_unique<ProvenanceFlashAdapter>(
                *provenance, simulator, deviceConfig.name);
            device->flash().setWriteObserver(flashAdapter.get());
        }

        // OS-interface fault planes: wired after the transport path so the
        // radio plane can feed the channels' outage model, before
        // enrollment so every plane sees the full campaign window.
        if (planeRegistry != nullptr) {
            planeRegistry->attach(simulator, *device, *loggerApp,
                                  dataChannel.get(), ackChannel.get(),
                                  osfaultRng.nextU64());
        }

        // Staggered enrollment: the phone powers on when its user joins
        // the study.
        const double joinHours = (static_cast<double>(i) + 0.5) /
                                 static_cast<double>(config.phoneCount) *
                                 config.enrollmentWindow.asHoursF();
        const sim::TimePoint enrollAt =
            sim::TimePoint::origin() + sim::Duration::fromSecondsF(joinHours * 3'600.0);
        if (monitor != nullptr) {
            OutageProbe probe;
            if (const transport::Channel* data = dataChannel.get()) {
                probe = [data](sim::TimePoint t) { return data->inOutage(t); };
            }
            monitor->onPhoneEnrolled(deviceConfig.name, enrollAt, std::move(probe));
        }
        phone::PhoneDevice* devicePtr = device.get();
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

        units.push_back(PhoneUnit{std::move(loggerApp), std::move(userReports),
                                  std::move(injector), std::move(dataChannel),
                                  std::move(ackChannel), std::move(uploadAgent),
                                  std::move(flashAdapter), std::move(device)});
    }

    // Capacity accounting: a read-only sweep over every subsystem's byte
    // probe.  The sweep touches no RNG stream and mutates nothing, so —
    // like the monitor — attaching it leaves every campaign table
    // bit-identical (the extra events only shift queue sequence numbers,
    // which order only the sweep itself).
    obs::ResourceAccountant* accountant = config.obs.accountant;
    std::function<void()> takeAccountingSample;
    std::function<void()> scheduleAccountingSweep;
    if (accountant != nullptr) {
        takeAccountingSample = [&simulator, &units, &server, accountant,
                                monitor]() {
            std::uint64_t phoneBytes = 0;
            std::uint64_t loggerBytes = 0;
            std::uint64_t transportBytes = 0;
            for (const auto& unit : units) {
                phoneBytes += unit.device->approxMemoryBytes();
                loggerBytes += unit.logger->approxMemoryBytes();
                if (unit.dataChannel != nullptr) {
                    transportBytes += unit.dataChannel->approxMemoryBytes();
                }
                if (unit.ackChannel != nullptr) {
                    transportBytes += unit.ackChannel->approxMemoryBytes();
                }
                if (unit.uploadAgent != nullptr) {
                    transportBytes += unit.uploadAgent->approxMemoryBytes();
                }
            }
            accountant->record("simkernel", simulator.queueApproxBytes());
            accountant->record("phone", phoneBytes);
            accountant->record("logger", loggerBytes);
            accountant->record("transport", transportBytes);
            accountant->record("server", server.approxMemoryBytes());
            if (monitor != nullptr) {
                accountant->record("monitor", monitor->approxMemoryBytes());
            }
        };
        // Each sweep schedules its successor after it runs.
        scheduleAccountingSweep = [&]() {
            simulator.scheduleAfter(config.obs.accountingInterval, "obs.account", [&]() {
                takeAccountingSample();
                scheduleAccountingSweep();
            });
        };
        scheduleAccountingSweep();
    }

    simulator.runUntil(sim::TimePoint::origin() + config.campaign);
    if (accountant != nullptr) takeAccountingSample();
    if (monitor != nullptr) {
        monitor->onCampaignEnd(sim::TimePoint::origin() + config.campaign);
        server.setIngestObserver(nullptr);
    }
    if (provenance != nullptr) {
        // Resolve outcomes at the campaign boundary, before teardown-order
        // stragglers (destructor-time flash writes) could muddy the books.
        provenance->finalize(sim::TimePoint::origin() + config.campaign);
    }

    std::uint64_t heartbeatsWritten = 0;
    std::uint64_t panicsLogged = 0;
    std::uint64_t bootsLogged = 0;
    for (auto& unit : units) {
        // End of campaign: collect the Log File and the ground truth, then
        // drop the simulation objects.
        result.logs.push_back(analysis::PhoneLog{unit.device->name(),
                                                 unit.logger->logFileContent()});
        result.phoneNames.push_back(unit.device->name());
        result.truths.push_back(unit.device->groundTruth());
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
    }
    result.simulatorEvents = simulator.eventsFired();
    result.queueDepthPeak = simulator.queueDepthPeak();
    if (planeRegistry != nullptr) result.osfault = planeRegistry->stats();

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
        }
        const auto& reassembly = server.reassembler().stats();
        report.framesRejected = reassembly.framesRejected;
        report.duplicateFrames = reassembly.duplicates;
        report.segmentsStored = reassembly.segmentsStored;

        result.collectedLogs = server.collectedLogs();
        std::map<std::string, std::size_t> deliveredByPhone;
        for (const auto& log : result.collectedLogs) {
            const auto records = logger::parseLogFile(log.logFileContent).size();
            deliveredByPhone[log.phoneName] = records;
            report.recordsDelivered += records;
            report.payloadBytesDelivered += log.logFileContent.size();
        }
        for (const auto& log : result.logs) {
            const auto injected = logger::parseLogFile(log.logFileContent).size();
            report.recordsInjected += injected;
            // Measured coverage: records that reached the server vs records
            // the phone wrote.  Finer than the server's own segment view —
            // bytes lost off the growing tail segment hide inside a
            // segment the server already holds, so `server.coverage` can
            // read 100% while records are missing.
            const auto it = deliveredByPhone.find(log.phoneName);
            const auto delivered = it != deliveredByPhone.end() ? it->second : 0;
            const double coverage =
                injected == 0 ? 1.0
                              : std::min(1.0, static_cast<double>(delivered) /
                                                  static_cast<double>(injected));
            report.coverageByPhone[log.phoneName] = coverage;
        }
        // Stamp the measured coverage onto the collected logs so the
        // analysis dataset flags partial-log phones.
        for (auto& log : result.collectedLogs) {
            const auto it = report.coverageByPhone.find(log.phoneName);
            if (it != report.coverageByPhone.end()) {
                log.coverage = std::min(log.coverage, it->second);
            }
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
        if (planeRegistry != nullptr) {
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
    return result;
}

}  // namespace symfail::fleet
