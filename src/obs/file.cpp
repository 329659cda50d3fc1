#include "obs/file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace symfail::obs {
namespace {

/// Writes all of `content` to `fd`; false on an error or a write that
/// makes no progress.  The first write runs even when `content` is empty.
bool writeAll(int fd, std::string_view content) {
    std::size_t done = 0;
    while (true) {
        const ssize_t n = ::write(fd, content.data() + done, content.size() - done);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
        if (done == content.size()) return true;
        if (n == 0) return false;
    }
}

}  // namespace

void writeFile(const std::filesystem::path& path, std::string_view content) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    bool ok = fd >= 0 && writeAll(fd, content);
    if (fd >= 0 && ::close(fd) != 0) ok = false;
    if (!ok) throw std::runtime_error("cannot write " + path.string());
}

std::vector<std::string> writeDirectory(const std::filesystem::path& directory,
                                        const std::vector<DirectoryFile>& files) {
    std::filesystem::create_directories(directory);
    std::vector<std::string> written;
    for (const DirectoryFile& file : files) {
        const std::filesystem::path path = directory / file.name;
        writeFile(path, file.content);
        written.push_back(path.string());
    }
    return written;
}

}  // namespace symfail::obs
