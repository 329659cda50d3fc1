// Tests for the fault catalog, rate derivation and the injector.
#include <gtest/gtest.h>

#include "faults/catalog.hpp"
#include "faults/injector.hpp"
#include "faults/rates.hpp"
#include "logger/logger.hpp"
#include "phone/device.hpp"

namespace symfail::faults {
namespace {

// -- Catalog ---------------------------------------------------------------------

TEST(Catalog, MatchesPaperTableRowForRow) {
    const auto catalog = faultCatalog();
    const auto paper = symbos::paperPanicTable();
    ASSERT_EQ(catalog.size(), paper.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        EXPECT_EQ(catalog[i].panic, paper[i].id);
        EXPECT_DOUBLE_EQ(catalog[i].sharePercent, paper[i].paperPercent);
    }
}

TEST(Catalog, TriggerSplitsSumToOne) {
    for (const auto& spec : faultCatalog()) {
        EXPECT_NEAR(spec.pVoice + spec.pMessage + spec.pBackground, 1.0, 1e-9)
            << symbos::toString(spec.panic);
    }
}

TEST(Catalog, OutcomeLawsAreProbabilities) {
    for (const auto& spec : faultCatalog()) {
        EXPECT_GE(spec.pFreeze, 0.0);
        EXPECT_GE(spec.pShutdown, 0.0);
        EXPECT_LE(spec.pFreeze + spec.pShutdown, 1.0 + 1e-9)
            << symbos::toString(spec.panic);
        EXPECT_GE(spec.cascadeProb, 0.0);
        EXPECT_LE(spec.cascadeProb, 1.0);
    }
}

TEST(Catalog, Figure5PolicyEncoded) {
    for (const auto& spec : faultCatalog()) {
        switch (spec.panic.category) {
            // Application-level panics never escalate (Figure 5a).
            case symbos::PanicCategory::EikonListbox:
            case symbos::PanicCategory::Eikcoctl:
            case symbos::PanicCategory::MmfAudioClient:
            case symbos::PanicCategory::KernSvr:
                EXPECT_DOUBLE_EQ(spec.pFreeze, 0.0);
                EXPECT_DOUBLE_EQ(spec.pShutdown, 0.0);
                break;
            // Core applications always reboot the phone.
            case symbos::PanicCategory::PhoneApp:
            case symbos::PanicCategory::MsgsClient:
                EXPECT_DOUBLE_EQ(spec.pShutdown, 1.0);
                EXPECT_DOUBLE_EQ(spec.pFreeze, 0.0);
                break;
            default:
                EXPECT_GT(spec.pFreeze + spec.pShutdown, 0.0);
                break;
        }
    }
}

TEST(Catalog, Table3GatesEncoded) {
    for (const auto& spec : faultCatalog()) {
        // USER and ViewSrv panics are voice-call-only (Table 3).
        if (spec.panic.category == symbos::PanicCategory::User ||
            spec.panic.category == symbos::PanicCategory::ViewSrv) {
            EXPECT_DOUBLE_EQ(spec.pVoice, 1.0) << symbos::toString(spec.panic);
        }
        // Phone.app panics only during messaging.
        if (spec.panic.category == symbos::PanicCategory::PhoneApp) {
            EXPECT_DOUBLE_EQ(spec.pMessage, 1.0);
        }
    }
}

TEST(Catalog, AffinitiesRankMessagesFirst) {
    const auto affinities = appAffinities();
    ASSERT_FALSE(affinities.empty());
    EXPECT_EQ(affinities.front().app, phone::kAppMessages);
    for (std::size_t i = 1; i < affinities.size(); ++i) {
        EXPECT_LE(affinities[i].weight, affinities.front().weight);
    }
}

TEST(Catalog, CascadeInflationFactorSensible) {
    const double factor = cascadeInflationFactor();
    EXPECT_GT(factor, 1.0);
    EXPECT_LT(factor, 2.0);
}

// -- Rate derivation --------------------------------------------------------------

TEST(Rates, ExpectedCountsMatchTargets) {
    StudyPlan plan;
    plan.expectedCalls = 28'000;
    plan.expectedMessages = 37'000;
    plan.expectedOnHours = 90'000;
    plan.targetPanics = 396;
    const auto rates = deriveRates(plan);
    ASSERT_EQ(rates.classes.size(), faultCatalog().size());

    // Summing expected activations over all trigger paths recovers the
    // primary budget (target deflated by cascade inflation).
    double expected = 0.0;
    for (const auto& cr : rates.classes) {
        expected += cr.perCall * plan.expectedCalls;
        expected += cr.perMessage * plan.expectedMessages;
        expected += cr.perOnHour * plan.expectedOnHours;
    }
    EXPECT_NEAR(expected, plan.targetPanics / cascadeInflationFactor(), 1e-6);
}

TEST(Rates, ClassSharesPreserved) {
    StudyPlan plan;
    const auto rates = deriveRates(plan);
    const double primaries = plan.targetPanics / cascadeInflationFactor();
    for (const auto& cr : rates.classes) {
        const double classExpected = cr.perCall * plan.expectedCalls +
                                     cr.perMessage * plan.expectedMessages +
                                     cr.perOnHour * plan.expectedOnHours;
        EXPECT_NEAR(classExpected, primaries * cr.spec.sharePercent / 100.0,
                    primaries * 0.001)
            << symbos::toString(cr.spec.panic);
    }
}

TEST(Rates, HangAndSpontaneousFillTheGap) {
    StudyPlan plan;
    const auto rates = deriveRates(plan);
    const double primaries = plan.targetPanics / cascadeInflationFactor();
    const double panicFreezes = expectedPanicFreezes(primaries);
    const double panicShutdowns = expectedPanicShutdowns(primaries);
    EXPECT_NEAR(rates.hangPerOnHour * plan.expectedOnHours,
                plan.targetFreezes - panicFreezes, 1.0);
    EXPECT_NEAR(rates.spontaneousPerOnHour * plan.expectedOnHours,
                plan.targetSelfShutdowns - panicShutdowns, 1.0);
    EXPECT_GT(rates.hangPerOnHour, 0.0);
    EXPECT_GT(rates.spontaneousPerOnHour, 0.0);
}

TEST(Rates, ZeroVolumesProduceZeroRates) {
    StudyPlan plan;
    plan.expectedCalls = 0.0;
    plan.expectedMessages = 0.0;
    plan.expectedOnHours = 0.0;
    const auto rates = deriveRates(plan);
    for (const auto& cr : rates.classes) {
        EXPECT_EQ(cr.perCall, 0.0);
        EXPECT_EQ(cr.perMessage, 0.0);
        EXPECT_EQ(cr.perOnHour, 0.0);
    }
    EXPECT_EQ(rates.hangPerOnHour, 0.0);
}

// -- Injector ------------------------------------------------------------------------

TEST(Injector, ProducesCalibratedEventMix) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "victim";
    config.seed = 31;
    phone::PhoneDevice device{simulator, config};
    logger::FailureLogger loggerApp{device};

    // A hot two weeks: enough activations to check the mix.
    StudyPlan plan;
    plan.expectedCalls = 6.0 * 14;
    plan.expectedMessages = 8.0 * 14;
    plan.expectedOnHours = 24.0 * 14 * 0.85;
    plan.targetPanics = 60;
    plan.targetFreezes = 20;
    plan.targetSelfShutdowns = 25;
    FaultInjector injector{device, deriveRates(plan), 31};

    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(14));

    const auto& stats = injector.stats();
    EXPECT_GT(stats.primaryPanics, 20u);
    EXPECT_GT(stats.hangs, 2u);
    EXPECT_GT(stats.spontaneousReboots, 5u);
    // Ground truth and injector agree.
    EXPECT_EQ(device.groundTruth().countOf(phone::TruthKind::PanicInjected),
              stats.primaryPanics + stats.secondaryPanics);
    EXPECT_EQ(device.groundTruth().countOf(phone::TruthKind::HangInjected),
              stats.hangs);
    // The phone survived it all (kept rebooting).
    EXPECT_GT(device.bootCount(), 10u);
}

TEST(Injector, PanicsFlowThroughKernelMechanisms) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "mech";
    config.seed = 32;
    phone::PhoneDevice device{simulator, config};
    logger::FailureLogger loggerApp{device};
    StudyPlan plan;
    plan.expectedCalls = 100;
    plan.expectedMessages = 100;
    plan.expectedOnHours = 24.0 * 10;
    plan.targetPanics = 50;
    plan.targetFreezes = 5;
    plan.targetSelfShutdowns = 5;
    FaultInjector injector{device, deriveRates(plan), 32};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(10));

    // Every logged panic came through a kernel panic event whose category
    // exists in the catalog.
    const auto entries = logger::parseLogFile(loggerApp.logFileContent());
    std::size_t panics = 0;
    for (const auto& entry : entries) {
        if (entry.type != logger::LogFileEntry::Type::Panic) continue;
        ++panics;
        bool known = false;
        for (const auto& row : symbos::paperPanicTable()) {
            if (row.id == entry.panic.panic) known = true;
        }
        EXPECT_TRUE(known) << symbos::toString(entry.panic.panic);
    }
    EXPECT_GT(panics, 10u);
}

TEST(Injector, VoiceGatedClassesNeedCalls) {
    // A phone whose user never calls or texts must see no USER/ViewSrv
    // panics (their triggers are exclusively call-gated) even with high
    // rates.
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "hermit";
    config.seed = 34;
    config.profile.callsPerDay = 0.0;
    config.profile.smsPerDay = 0.0;
    phone::PhoneDevice device{simulator, config};
    logger::FailureLogger loggerApp{device};
    StudyPlan plan;
    plan.expectedCalls = 100;  // rates derived as if calls existed
    plan.expectedMessages = 100;
    plan.expectedOnHours = 24.0 * 20;
    plan.targetPanics = 300;
    plan.targetFreezes = 10;
    plan.targetSelfShutdowns = 10;
    FaultInjector injector{device, deriveRates(plan), 34};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(20));

    const auto entries = logger::parseLogFile(loggerApp.logFileContent());
    std::size_t total = 0;
    std::size_t callGated = 0;
    for (const auto& entry : entries) {
        if (entry.type != logger::LogFileEntry::Type::Panic) continue;
        ++total;
        // USER and ViewSrv primaries are call-gated; without calls they
        // can only appear as cascade secondaries (drawn from the global
        // mix), i.e. far below their Table 2 share of ~8.9%.
        if (entry.panic.panic.category == symbos::PanicCategory::User ||
            entry.panic.panic.category == symbos::PanicCategory::ViewSrv) {
            ++callGated;
        }
    }
    ASSERT_GT(total, 50u);  // background classes still fire
    EXPECT_LT(static_cast<double>(callGated) / static_cast<double>(total), 0.05);
}

TEST(Injector, NoActivityWhileOff) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "off";
    config.seed = 33;
    phone::PhoneDevice device{simulator, config};
    StudyPlan plan;
    plan.targetPanics = 1'000;
    plan.expectedOnHours = 24.0;
    FaultInjector injector{device, deriveRates(plan), 33};
    // Never powered on: nothing can be injected.
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(3));
    EXPECT_EQ(injector.stats().primaryPanics, 0u);
    EXPECT_EQ(injector.stats().hangs, 0u);
    EXPECT_EQ(device.groundTruth().countOf(phone::TruthKind::PanicInjected), 0u);
}

}  // namespace
}  // namespace symfail::faults
