// The one writer every artifact goes through: campaign, crash, sweep,
// srgm and perf JSON, the CSV directories, saved Log Files, Chrome
// traces, metrics snapshots and bench documents.
//
// A lost artifact must fail the command, never print "wrote …".  The
// writer calls write(2) directly, so no user-space buffer holds bytes
// past the check, and it issues at least one write even for empty
// content, so a device that refuses every write (/dev/full) fails an
// empty artifact too.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace symfail::obs {

/// Replaces the file at `path` with exactly `content` (bytes as given, no
/// newline translation).  Throws std::runtime_error("cannot write <path>")
/// when the file cannot be opened, a write fails or close reports an
/// error.
void writeFile(const std::filesystem::path& path, std::string_view content);

/// One file of a directory artifact: its name inside the directory and
/// its bytes.
struct DirectoryFile {
    std::string name;
    std::string content;
};

/// Creates `directory` if missing and writes `files` into it, in order,
/// each through writeFile.  Returns the paths written.
std::vector<std::string> writeDirectory(const std::filesystem::path& directory,
                                        const std::vector<DirectoryFile>& files);

}  // namespace symfail::obs
