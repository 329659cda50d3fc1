#include "core/logio.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "obs/file.hpp"

namespace symfail::core {

std::vector<std::string> saveLogs(const std::vector<analysis::PhoneLog>& logs,
                                  const std::string& directory) {
    std::vector<obs::DirectoryFile> files;
    for (const auto& log : logs) {
        files.push_back({log.phoneName + ".log", log.logFileContent});
    }
    return obs::writeDirectory(directory, files);
}

std::vector<analysis::PhoneLog> loadLogs(const std::string& directory) {
    const std::filesystem::path dir{directory};
    if (!std::filesystem::is_directory(dir)) {
        throw std::runtime_error("not a directory: " + directory);
    }
    std::vector<analysis::PhoneLog> logs;
    for (const auto& entry : std::filesystem::directory_iterator{dir}) {
        if (!entry.is_regular_file() || entry.path().extension() != ".log") continue;
        std::ifstream in{entry.path()};
        if (!in) {
            throw std::runtime_error("cannot read " + entry.path().string());
        }
        analysis::PhoneLog log;
        log.phoneName = entry.path().stem().string();
        log.logFileContent.assign(std::istreambuf_iterator<char>{in},
                                  std::istreambuf_iterator<char>{});
        logs.push_back(std::move(log));
    }
    std::sort(logs.begin(), logs.end(),
              [](const analysis::PhoneLog& a, const analysis::PhoneLog& b) {
                  return a.phoneName < b.phoneName;
              });
    return logs;
}

}  // namespace symfail::core
