// Application-framework components whose misuse panics — the app-level
// panic categories of Table 2.
//
// The paper observes that these panics (EIKON-LISTBOX, EIKCOCTL,
// MMFAudioClient) terminate only the offending application and never
// escalate to a device-level failure, demonstrating the OS's resilience to
// application faults.
#pragma once

#include <cstddef>
#include <optional>

namespace symfail::symbos {

class ExecContext;

/// Eikon listbox control (EIKON-LISTBOX panics).
class ListboxModel {
public:
    /// Attaches the listbox to a view.
    void setView() { hasView_ = true; }
    void setItemCount(std::size_t n);

    /// Selects the current item (panics EIKON-LISTBOX 3 on an invalid
    /// index).
    void setCurrentItemIndex(const ExecContext& ctx, std::size_t index);

    /// Draws the listbox (panics EIKON-LISTBOX 5 when no view is defined).
    void draw(const ExecContext& ctx) const;

    [[nodiscard]] std::optional<std::size_t> currentItem() const { return current_; }

private:
    bool hasView_{false};
    std::size_t itemCount_{0};
    std::optional<std::size_t> current_;
};

/// Eikon text editor control ("edwin"; EIKCOCTL panics).
class EdwinModel {
public:
    /// Marks the inline-editing state corrupt (the fault).
    void corruptInlineState() { corrupt_ = true; }

    /// Performs an inline edit (panics EIKCOCTL 70 on corrupt state).
    void inlineEdit(const ExecContext& ctx);

private:
    bool corrupt_{false};
};

/// Multimedia framework audio client (MMFAudioClient panics).
class AudioClientModel {
public:
    /// Valid volume range is 0..9; a value of 10 or more panics
    /// MMFAudioClient 4 (as Table 2 documents for SetVolume(TInt)).
    /// The model keeps no volume: only the range check matters here.
    void setVolume(const ExecContext& ctx, int volume);
};

}  // namespace symfail::symbos
