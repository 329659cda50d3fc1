// Collection-path walkthrough: five phones upload their Log Files over a
// lossy GPRS-like channel while a three-day mid-campaign outage (days
// 12-15: no coverage at the collection point) swallows everything in
// flight.  Probes print per-phone segment coverage before, during and
// after the window, showing the retransmission machinery falling behind
// and then catching back up — the reason an unreliable harvest path
// still yields near-complete Log Files at campaign end.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "logger/logger.hpp"
#include "phone/device.hpp"
#include "simkernel/simulator.hpp"
#include "transport/channel.hpp"
#include "transport/frame.hpp"
#include "transport/reassembly.hpp"
#include "transport/upload_agent.hpp"

int main() {
    using namespace symfail;

    constexpr int kPhones = 5;
    const auto campaignEnd = sim::TimePoint::origin() + sim::Duration::days(30);
    const transport::OutageWindow outage{
        sim::TimePoint::origin() + sim::Duration::days(12),
        sim::TimePoint::origin() + sim::Duration::days(15)};

    std::printf("=== transport outage demo: 5 phones, GPRS blackout days 12-15 ===\n\n");

    sim::Simulator simulator;
    transport::Reassembler server;

    struct Unit {
        // Device declared last so it is destroyed first and its power-down
        // hooks still find the logger and agent alive.
        std::unique_ptr<logger::FailureLogger> loggerApp;
        std::unique_ptr<transport::Channel> dataChannel;
        std::unique_ptr<transport::Channel> ackChannel;
        std::unique_ptr<transport::UploadAgent> agent;
        std::unique_ptr<phone::PhoneDevice> device;
    };
    std::vector<Unit> units;

    const transport::UploadPolicy policy;

    for (int i = 0; i < kPhones; ++i) {
        Unit unit;
        phone::PhoneDevice::Config config;
        config.name = "phone-" + std::to_string(i);
        config.seed = 4000 + static_cast<std::uint64_t>(i);
        unit.device = std::make_unique<phone::PhoneDevice>(simulator, config);
        unit.loggerApp = std::make_unique<logger::FailureLogger>(*unit.device);

        auto gprs = transport::ChannelConfig::gprs();
        gprs.outages.push_back(outage);  // one blackout takes both directions
        unit.dataChannel = std::make_unique<transport::Channel>(
            simulator, gprs, 9'000 + static_cast<std::uint64_t>(i));
        unit.ackChannel = std::make_unique<transport::Channel>(
            simulator, gprs, 9'500 + static_cast<std::uint64_t>(i));
        unit.agent = std::make_unique<transport::UploadAgent>(
            *unit.device, *unit.loggerApp, *unit.dataChannel, *unit.ackChannel,
            policy, 9'900 + static_cast<std::uint64_t>(i));

        transport::Channel* ackBack = unit.ackChannel.get();
        unit.dataChannel->setReceiver(
            [&server, ackBack](const std::string& bytes) {
                if (const auto ack = server.ingest(bytes).ack) {
                    ackBack->send(transport::encodeAck(*ack));
                }
            });
        unit.device->powerOn();
        units.push_back(std::move(unit));
    }

    // Delivery probes around the outage window: how much of each phone's
    // Log File (by bytes) the server holds at that moment.  (The server's
    // own segment coverage stays at 100% during the blackout — it cannot
    // know about segments never advertised to it; comparing against the
    // phone-side truth is what exposes the lag.)
    const auto probe = [&](const char* when) {
        std::printf("%-22s", when);
        for (int i = 0; i < kPhones; ++i) {
            const std::string name = "phone-" + std::to_string(i);
            const double onPhone = static_cast<double>(
                units[static_cast<std::size_t>(i)].loggerApp->logFileContent().size());
            const double onServer = static_cast<double>(
                server.reconstruct(name).size());
            const double pct = onPhone > 0.0 ? 100.0 * onServer / onPhone : 100.0;
            std::printf("  %5.1f%%", pct);
        }
        std::printf("\n");
    };
    std::printf("%-22s", "log bytes delivered");
    for (int i = 0; i < kPhones; ++i) std::printf("  phone%d", i);
    std::printf("\n");

    const std::vector<std::pair<double, const char*>> probes{
        {11.9, "day 12 (pre-outage)"},  {13.5, "day 13.5 (mid-outage)"},
        {15.1, "day 15 (restored)"},    {16.0, "day 16 (caught up)"},
        {30.0, "day 30 (campaign end)"}};
    for (const auto& [day, label] : probes) {
        simulator.scheduleAt(
            sim::TimePoint::origin() + sim::Duration::fromSecondsF(day * 86'400.0),
            [&probe, label]() { probe(label); });
    }

    simulator.runUntil(campaignEnd);

    std::printf("\nretransmission catch-up:\n");
    std::uint64_t retransmits = 0;
    std::uint64_t outageDrops = 0;
    std::uint64_t framesSent = 0;
    for (const auto& unit : units) {
        retransmits += unit.agent->stats().retransmits;
        framesSent += unit.agent->stats().framesSent;
        outageDrops += unit.dataChannel->stats().outageDrops +
                       unit.ackChannel->stats().outageDrops;
    }
    std::printf("  frames sent %llu, retransmits %llu, frames swallowed by the outage %llu\n",
                static_cast<unsigned long long>(framesSent),
                static_cast<unsigned long long>(retransmits),
                static_cast<unsigned long long>(outageDrops));

    std::printf("\nfinal completeness (records on server vs on phone):\n");
    for (int i = 0; i < kPhones; ++i) {
        const std::string name = "phone-" + std::to_string(i);
        const auto delivered = analysis::LogDataset::build(
            {{name, server.reconstruct(name), 1.0}});
        const auto truth = analysis::LogDataset::build(
            {{name, units[static_cast<std::size_t>(i)].loggerApp->logFileContent(),
              1.0}});
        std::printf("  %-9s coverage %5.1f%%   boots %zu/%zu   panics %zu/%zu\n",
                    name.c_str(), 100.0 * server.coverage(name),
                    delivered.bootCount(), truth.bootCount(),
                    delivered.panics().size(), truth.panics().size());
    }
    return 0;
}
