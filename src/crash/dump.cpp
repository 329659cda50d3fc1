#include "crash/dump.hpp"

#include "crash/fields.hpp"
#include "obs/fnv.hpp"

namespace symfail::crash {
namespace {

using symbos::PanicId;

std::string toHex32(std::uint32_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/// Strips the wire format's structural characters from a free-text field.
std::string sanitize(std::string_view text, std::string_view forbidden) {
    std::string clean;
    clean.reserve(text.size());
    for (const char c : text) {
        if (c != '|' && c != '\n' && forbidden.find(c) == std::string_view::npos) {
            clean += c;
        }
    }
    return clean;
}

}  // namespace

std::vector<std::string> backtraceFor(PanicId id, std::string_view diagnostic) {
    using namespace symfail::symbos;
    std::vector<std::string> frames;
    // Innermost frame carries the kernel diagnostic (per-run handle
    // numbers and the like live here; normalization strips the digits).
    frames.push_back("raise: " + sanitize(diagnostic, ";"));

    auto chain = [&frames](std::initializer_list<const char*> names) {
        for (const char* name : names) frames.emplace_back(name);
    };

    // One propagation chain per mechanism, mirroring the fault drivers'
    // code paths (drivers.cpp).  Pure function of the panic id (plus the
    // capture path for E32USER-CBase 69, which has two real entries).
    if (id == kKernExecBadHandle) {
        chain({"ObjectIndex::lookupName", "ExecHandler::LookupByIndex",
               "Kernel::runInProcess"});
    } else if (id == kKernExecAccessViolation) {
        chain({"ExcHandler::AccessViolation", "MemModel::Translate",
               "Kernel::runInProcess"});
    } else if (id == kCBaseTimerOutstanding) {
        chain({"RTimer::after", "FunctionAo::IssueRequest",
               "ActiveScheduler::Dispatch"});
    } else if (id == kCBaseObjectRefCount) {
        chain({"CObjectModel::destroyCheck", "CObject::~CObject",
               "Kernel::runInProcess"});
    } else if (id == kCBaseStraySignal) {
        chain({"ActiveScheduler::Dispatch", "ActiveScheduler::WaitForAnyRequest",
               "Process::EventLoop"});
    } else if (id == kCBaseSchedulerError) {
        chain({"ActiveScheduler::Error", "FunctionAo::RunL",
               "ActiveScheduler::Dispatch"});
    } else if (id == kCBaseNoTrapHandler) {
        if (diagnostic.rfind("untrapped leave", 0) == 0) {
            chain({"User::Leave", "Kernel::runInProcess"});
        } else {
            chain({"CleanupStack::pushL", "TTrapHandler::Missing",
                   "Kernel::runInProcess"});
        }
    } else if (id == kCBaseUndocumented91) {
        chain({"TTrap::UnTrap", "CleanupStack::CheckBalance", "trap"});
    } else if (id == kCBaseUndocumented92) {
        chain({"CleanupStack::popAndDestroy", "trap", "Kernel::runInProcess"});
    } else if (id == kUserDesIndexOutOfRange) {
        chain({"TDes16::Mid", "User::Panic", "Kernel::runInProcess"});
    } else if (id == kUserDesOverflow) {
        chain({"TDes16::Copy", "User::Panic", "Kernel::runInProcess"});
    } else if (id == kUserNullMessageComplete) {
        chain({"RMessagePtr2::Complete", "User::Panic", "Kernel::runInProcess"});
    } else if (id == kKernSvrBadHandleClose) {
        chain({"ObjectIndex::close", "KernelServer::HandleClose",
               "Kernel::runInProcess"});
    } else if (id == kViewSrvEventStarvation) {
        chain({"ViewSrv::Watchdog", "Kernel::reportDispatchCost",
               "ActiveScheduler::Dispatch"});
    } else if (id == kListboxBadItemIndex) {
        chain({"ListboxModel::setCurrentItemIndex", "EikListbox::Panic",
               "Kernel::runInProcess"});
    } else if (id == kListboxNoView) {
        chain({"ListboxModel::draw", "EikListbox::Panic",
               "Kernel::runInProcess"});
    } else if (id == kPhoneAppInternal) {
        chain({"PhoneApp::StateMachine", "ExecContext::panic",
               "Kernel::runInProcess"});
    } else if (id == kEikcoctlCorruptEdwin) {
        chain({"EdwinModel::inlineEdit", "EikCoctl::Panic",
               "Kernel::runInProcess"});
    } else if (id == kMsgsClientWriteFailed) {
        chain({"MsgsClient::WriteAsyncDescriptor", "ExecContext::panic",
               "Kernel::runInProcess"});
    } else if (id == kMmfAudioBadVolume) {
        chain({"AudioClientModel::setVolume", "MmfClient::Panic",
               "Kernel::runInProcess"});
    } else {
        chain({"Unknown::Mechanism", "Kernel::runInProcess"});
    }
    return frames;
}

CrashDump makeDump(const symbos::PanicEvent& event,
                   std::vector<std::string> runningApps) {
    CrashDump dump;
    dump.time = event.time;
    dump.panic = event.id;
    // Per-run pseudo-address: hashed from the process name, time and panic
    // id — deterministic for a fixed seed, different between occurrences.
    // The numeric pid is deliberately left out: pid allocation order shifts
    // when unrelated processes (e.g. the transport stack) exist, and the
    // dump content must not depend on that.
    std::uint64_t h = obs::fnv1a64(event.processName);
    h = obs::fnv1a64(std::to_string(event.time.micros()), h);
    h = obs::fnv1a64(symbos::toString(event.id), h);
    dump.faultAddress = 0x80000000u | static_cast<std::uint32_t>(h & 0x7FFFFFFFu);
    dump.processName = event.processName;
    dump.cleanupDepth = static_cast<std::uint32_t>(event.cleanupDepth);
    dump.trapActive = event.trapActive;
    dump.schedulerAoCount = static_cast<std::uint32_t>(event.schedulerAoCount);
    dump.heapLiveCells = event.heapLiveCells;
    dump.heapBytesInUse = event.heapBytesInUse;
    dump.heapTotalAllocs = event.heapTotalAllocs;
    dump.runningApps = std::move(runningApps);
    dump.frames = backtraceFor(event.id, event.diagnostic);
    return dump;
}

std::string serialize(const CrashDump& dump) {
    std::string apps;
    for (std::size_t i = 0; i < dump.runningApps.size(); ++i) {
        if (i != 0) apps += ',';
        apps += sanitize(dump.runningApps[i], ",;");
    }
    std::string frames;
    for (std::size_t i = 0; i < dump.frames.size(); ++i) {
        if (i != 0) frames += ';';
        frames += sanitize(dump.frames[i], ";");
    }
    return "DUMP|" + std::to_string(dump.time.micros()) + "|" +
           std::string{symbos::toString(dump.panic.category)} + "|" +
           std::to_string(dump.panic.type) + "|" + toHex32(dump.faultAddress) +
           "|" + sanitize(dump.processName, ",;") + "|" +
           std::to_string(dump.cleanupDepth) + "|" +
           (dump.trapActive ? "1" : "0") + "|" +
           std::to_string(dump.schedulerAoCount) + "|" +
           std::to_string(dump.heapLiveCells) + "|" +
           std::to_string(dump.heapBytesInUse) + "|" +
           std::to_string(dump.heapTotalAllocs) + "|" + apps + "|" + frames;
}

std::optional<CrashDump> parseDumpFields(const std::vector<std::string_view>& f) {
    if (f.size() != 14 || f[0] != "DUMP") return std::nullopt;
    const auto us = parseField<std::int64_t>(f[1]);
    const auto category = symbos::parsePanicCategory(f[2]);
    const auto type = parseField<std::int64_t>(f[3]);
    const auto addr = parseField<std::uint32_t>(f[4], 16);
    const auto depth = parseField<std::uint64_t>(f[6]);
    const auto aoCount = parseField<std::uint64_t>(f[8]);
    const auto heapLive = parseField<std::uint64_t>(f[9]);
    const auto heapBytes = parseField<std::uint64_t>(f[10]);
    const auto heapAllocs = parseField<std::uint64_t>(f[11]);
    if (!us || !category || !type || !addr || !depth || !aoCount || !heapLive ||
        !heapBytes || !heapAllocs) {
        return std::nullopt;
    }
    if (f[7] != "0" && f[7] != "1") return std::nullopt;
    // Bound the structural fields: a corrupted count must not make the
    // parser allocate unboundedly.
    if (*depth > 1'000'000 || *aoCount > 1'000'000) return std::nullopt;

    CrashDump dump;
    dump.time = sim::TimePoint::fromMicros(*us);
    dump.panic = PanicId{*category, static_cast<int>(*type)};
    dump.faultAddress = *addr;
    dump.processName = std::string{f[5]};
    dump.cleanupDepth = static_cast<std::uint32_t>(*depth);
    dump.trapActive = f[7] == "1";
    dump.schedulerAoCount = static_cast<std::uint32_t>(*aoCount);
    dump.heapLiveCells = *heapLive;
    dump.heapBytesInUse = *heapBytes;
    dump.heapTotalAllocs = *heapAllocs;
    if (!f[12].empty()) {
        for (const auto app : splitFields(f[12], ',')) {
            dump.runningApps.emplace_back(app);
        }
    }
    if (!f[13].empty()) {
        const auto frames = splitFields(f[13], ';');
        if (frames.size() > kMaxFrames) return std::nullopt;
        for (const auto frame : frames) dump.frames.emplace_back(frame);
    }
    return dump;
}

}  // namespace symfail::crash
