#include "symbos/panic.hpp"

#include <array>

namespace symfail::symbos {

std::string_view toString(PanicCategory c) {
    switch (c) {
        case PanicCategory::KernExec: return "KERN-EXEC";
        case PanicCategory::E32UserCBase: return "E32USER-CBase";
        case PanicCategory::User: return "USER";
        case PanicCategory::KernSvr: return "KERN-SVR";
        case PanicCategory::ViewSrv: return "ViewSrv";
        case PanicCategory::EikonListbox: return "EIKON-LISTBOX";
        case PanicCategory::Eikcoctl: return "EIKCOCTL";
        case PanicCategory::PhoneApp: return "Phone.app";
        case PanicCategory::MsgsClient: return "MSGS-Client";
        case PanicCategory::MmfAudioClient: return "MMFAudioClient";
    }
    return "?";
}

std::optional<PanicCategory> parsePanicCategory(std::string_view s) {
    for (std::size_t i = 0; i < kPanicCategoryCount; ++i) {
        const auto c = static_cast<PanicCategory>(i);
        if (toString(c) == s) return c;
    }
    return std::nullopt;
}

std::string toString(PanicId id) {
    return std::string{toString(id.category)} + " " + std::to_string(id.type);
}

std::string_view panicMeaning(PanicId id) {
    if (id == kKernExecBadHandle) {
        return "Raised when the Kernel Executive cannot find an object in the object "
               "index for the current process or thread using the specified object "
               "index number (the raw handle number).";
    }
    if (id == kKernExecAccessViolation) {
        return "Raised when an unhandled exception occurs. Exceptions have many "
               "causes, but the most common are access violations caused, for "
               "example, by dereferencing NULL.";
    }
    if (id == kCBaseTimerOutstanding) {
        return "Raised when a timer event is requested from an asynchronous timer "
               "service, an RTimer, and a timer event is already outstanding.";
    }
    if (id == kCBaseObjectRefCount) {
        return "Raised by the destructor of a CObject, if an attempt is made to "
               "delete the CObject when the reference count is not zero.";
    }
    if (id == kCBaseStraySignal) {
        return "Raised by an active scheduler, a CActiveScheduler. It is caused by "
               "a stray signal.";
    }
    if (id == kCBaseSchedulerError) {
        return "Raised by the Error() virtual member function of an active "
               "scheduler, called when an active object's RunL() function leaves.";
    }
    if (id == kCBaseNoTrapHandler) {
        return "Raised if no trap handler has been installed. In practice, this "
               "occurs if CTrapCleanup::New() has not been called before using the "
               "cleanup stack.";
    }
    if (id == kUserDesIndexOutOfRange) {
        return "Raised when the position value passed to a 16-bit variant "
               "descriptor member function is out of bounds (Left(), Right(), "
               "Mid(), Insert(), Delete(), Replace()).";
    }
    if (id == kUserDesOverflow) {
        return "Raised when an operation that moves or copies data to a 16-bit "
               "variant descriptor causes the length of that descriptor to exceed "
               "its maximum length.";
    }
    if (id == kUserNullMessageComplete) {
        return "Raised when attempting to complete a client/server request and the "
               "RMessagePtr is null.";
    }
    if (id == kKernSvrBadHandleClose) {
        return "Raised by the Kernel Server when it attempts to close a kernel "
               "object in response to an RHandleBase::Close() request and the "
               "object represented by the handle cannot be found. The most likely "
               "cause is a corrupt handle.";
    }
    if (id == kViewSrvEventStarvation) {
        return "Occurs when one active object's event handler monopolizes the "
               "thread's active scheduler loop and the application's ViewSrv "
               "active object cannot respond in time.";
    }
    if (id == kListboxBadItemIndex) {
        return "Occurs when using a listbox object from the eikon framework and an "
               "invalid Current Item Index is specified.";
    }
    if (id == kListboxNoView) {
        return "Occurs when using a listbox object from the eikon framework and no "
               "view is defined to display the object.";
    }
    if (id == kEikcoctlCorruptEdwin) {
        return "Corrupt edwin state for inlining editing.";
    }
    if (id == kMsgsClientWriteFailed) {
        return "Failed to write data into asynchronous call descriptor to be "
               "passed back to client.";
    }
    if (id == kMmfAudioBadVolume) {
        return "Appears when the TInt value passed to SetVolume(TInt) gets 10 or "
               "more.";
    }
    return "Not documented";
}

std::span<const PaperPanicRow> paperPanicTable() {
    // Reconstructed from Table 2 of the paper; percentages sum to 100
    // (within rounding: each 0.25% is one of ~396 panic events).
    static constexpr std::array<PaperPanicRow, 20> kTable{{
        {kKernExecBadHandle, 6.31},
        {kKernExecAccessViolation, 56.31},
        {kCBaseTimerOutstanding, 0.51},
        {kCBaseObjectRefCount, 5.56},
        {kCBaseStraySignal, 0.76},
        {kCBaseSchedulerError, 0.25},
        {kCBaseNoTrapHandler, 10.10},
        {kCBaseUndocumented91, 0.51},
        {kCBaseUndocumented92, 0.76},
        {kUserDesIndexOutOfRange, 1.52},
        {kUserDesOverflow, 5.81},
        {kUserNullMessageComplete, 0.76},
        {kKernSvrBadHandleClose, 0.25},
        {kViewSrvEventStarvation, 2.53},
        {kListboxBadItemIndex, 0.25},
        {kListboxNoView, 0.76},
        {kPhoneAppInternal, 0.25},
        {kEikcoctlCorruptEdwin, 0.25},
        {kMsgsClientWriteFailed, 6.31},
        {kMmfAudioBadVolume, 0.25},
    }};
    return kTable;
}

}  // namespace symfail::symbos
