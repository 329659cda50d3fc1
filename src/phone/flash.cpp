#include "phone/flash.hpp"

#include <stdexcept>

namespace symfail::phone {

void FlashStore::appendLine(std::string_view file, std::string_view line) {
    write(file, line, /*replace=*/false);
}

void FlashStore::replaceWithLine(std::string_view file, std::string_view line) {
    write(file, line, /*replace=*/true);
}

void FlashStore::write(std::string_view file, std::string_view line, bool replace) {
    FlashFaultInjector::Verdict verdict;
    if (injector_ != nullptr) verdict = injector_->onWrite(file, line);
    if (verdict.kind == FlashFaultInjector::Kind::Drop) return;
    auto it = files_.find(file);
    if (it == files_.end()) {
        it = files_.emplace(std::string{file}, File{}).first;
    }
    std::string& text = it->second.text;
    const std::uint64_t oldSize = text.size();
    if (replace) {
        text.assign(line);
        ++it->second.rewrites;
    } else {
        text.append(line);
    }
    text.push_back('\n');
    if (observer_ != nullptr) {
        if (replace && oldSize != 0) observer_->onRotate(file, oldSize);
        observer_->onAppend(file, replace ? 0 : oldSize,
                            static_cast<std::uint32_t>(line.size() + 1), line);
    }
    if (!replace && text.size() > kRotateLimitBytes) {
        std::size_t cut = text.find('\n', text.size() / 2);
        cut = cut == std::string::npos ? text.size() : cut + 1;
        text.erase(0, cut);
        ++it->second.rewrites;
        if (observer_ != nullptr) observer_->onRotate(file, cut);
    }
    if (verdict.kind == FlashFaultInjector::Kind::Torn) {
        const std::size_t written = line.size() + 1;
        // A torn write always loses at least the trailing '\n'.
        const std::size_t keep =
            verdict.keepBytes < written ? verdict.keepBytes : written - 1;
        tearTail(file, written - keep);
    }
}

bool FlashStore::exists(std::string_view file) const {
    return files_.find(file) != files_.end();
}

std::uint64_t FlashStore::rewrites(std::string_view file) const {
    const auto it = files_.find(file);
    return it == files_.end() ? 0 : it->second.rewrites;
}

const std::string& FlashStore::content(std::string_view file) const {
    if (readHook_) readHook_(file);
    const auto it = files_.find(file);
    if (it == files_.end()) {
        static const std::string kEmpty;
        return kEmpty;
    }
    return it->second.text;
}

std::string FlashStore::take(std::string_view file) {
    if (readHook_) readHook_(file);
    const auto it = files_.find(file);
    if (it == files_.end()) return {};
    std::string text = std::move(it->second.text);
    it->second.text.clear();
    return text;
}

std::string FlashStore::lastLine(std::string_view file) const {
    const std::string& text = content(file);
    if (text.empty()) return {};
    // Skip a trailing newline, then find the previous one.
    std::size_t end = text.size();
    if (text.back() == '\n') --end;
    if (end == 0) return {};
    const std::size_t prev = text.rfind('\n', end - 1);
    const std::size_t start = prev == std::string::npos ? 0 : prev + 1;
    return text.substr(start, end - start);
}

FlashTail FlashStore::readTail(std::string_view file) const {
    const std::string& text = content(file);
    if (text.empty()) return {};
    FlashTail tail;
    tail.torn = text.back() != '\n';
    tail.line = lastLine(file);
    return tail;
}

std::string FlashStore::lastCompleteLine(std::string_view file) const {
    const std::string& text = content(file);
    const std::size_t lastNl = text.rfind('\n');
    if (lastNl == std::string::npos) return {};  // no complete line at all
    if (lastNl == 0) return {};                  // sole complete line is empty
    const std::size_t prev = text.rfind('\n', lastNl - 1);
    const std::size_t start = prev == std::string::npos ? 0 : prev + 1;
    return text.substr(start, lastNl - start);
}

bool FlashStore::corruptByte(std::string_view file, std::size_t offset,
                             std::uint8_t mask) {
    const auto it = files_.find(file);
    if (it == files_.end()) return false;
    std::string& text = it->second.text;
    if (offset >= text.size()) return false;
    if (mask == 0) return false;
    char& byte = text[offset];
    if (byte == '\n') return false;  // keep line framing intact
    const char flipped = static_cast<char>(
        static_cast<std::uint8_t>(byte) ^ mask);
    if (flipped == '\n') return false;
    byte = flipped;
    return true;
}

void FlashStore::tearTail(std::string_view file, std::size_t bytes) {
    const auto it = files_.find(file);
    if (it == files_.end()) return;
    std::string& text = it->second.text;
    text.resize(text.size() >= bytes ? text.size() - bytes : 0);
    ++it->second.rewrites;
    if (observer_ != nullptr) observer_->onTear(file, text.size());
}

std::size_t FlashStore::approxMemoryBytes() const {
    constexpr std::size_t mapNode = 3 * sizeof(void*);
    std::size_t total = sizeof *this;
    for (const auto& [name, stored] : files_) {
        total += name.size() + stored.text.size() + 2 * sizeof(std::string) + mapNode;
    }
    return total;
}

}  // namespace symfail::phone
