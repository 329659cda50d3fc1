#include "symbos/uiframework.hpp"

#include <string>

#include "symbos/kernel.hpp"

namespace symfail::symbos {

void ListboxModel::setItemCount(std::size_t n) {
    itemCount_ = n;
    if (current_ && *current_ >= n) current_.reset();
}

void ListboxModel::setCurrentItemIndex(const ExecContext& ctx, std::size_t index) {
    if (index >= itemCount_) {
        ctx.panic(kListboxBadItemIndex,
                  "invalid Current Item Index " + std::to_string(index) + " (item count " +
                      std::to_string(itemCount_) + ")");
    }
    current_ = index;
}

void ListboxModel::draw(const ExecContext& ctx) const {
    if (!hasView_) {
        ctx.panic(kListboxNoView, "listbox drawn with no view defined");
    }
}

void EdwinModel::inlineEdit(const ExecContext& ctx) {
    if (corrupt_) {
        ctx.panic(kEikcoctlCorruptEdwin, "corrupt edwin state for inline editing");
    }
}

void AudioClientModel::setVolume(const ExecContext& ctx, int volume) {
    if (volume >= 10) {
        ctx.panic(kMmfAudioBadVolume,
                  "SetVolume(" + std::to_string(volume) + ") out of range");
    }
}

}  // namespace symfail::symbos
