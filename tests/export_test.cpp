// Tests for the CSV export of study artifacts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/export.hpp"
#include "core/study.hpp"
#include "obs/file.hpp"

namespace symfail::core {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in{path};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

std::size_t lineCount(const std::string& text) {
    return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

class ExportFixture : public ::testing::Test {
protected:
    // One directory per test: ctest runs this fixture's tests as parallel
    // processes, so a shared one let a test delete another's files.
    ExportFixture()
        : dir_{std::filesystem::temp_directory_path() /
               (std::string{"symfail-export-"} +
                ::testing::UnitTest::GetInstance()->current_test_info()->name())} {
        std::filesystem::remove_all(dir_);
    }
    ~ExportFixture() override { std::filesystem::remove_all(dir_); }
    std::filesystem::path dir_;
};

TEST_F(ExportFixture, FieldCsvFilesWritten) {
    StudyConfig config;
    config.fleetConfig.phoneCount = 2;
    config.fleetConfig.campaign = sim::Duration::days(15);
    config.fleetConfig.enrollmentWindow = sim::Duration::days(3);
    config.fleetConfig.freezesPerHour *= 10.0;
    config.fleetConfig.selfShutdownsPerHour *= 10.0;
    config.fleetConfig.panicsPerHour *= 10.0;
    const FailureStudy study{config};
    const auto results = study.runFieldStudy();

    const auto files = exportFieldCsv(results, dir_.string());
    // table2, fig2 (full + zoom), fig3, fig5, table3, fig6, table4,
    // crash_families, headline.
    EXPECT_EQ(files.size(), 10u);
    for (const auto& file : files) {
        SCOPED_TRACE(file);
        ASSERT_TRUE(std::filesystem::exists(file));
        const auto content = slurp(file);
        EXPECT_GE(lineCount(content), 2u);  // header + at least one row
        // Every line has the same number of commas as the header.
        const auto header = content.substr(0, content.find('\n'));
        const auto commas = std::count(header.begin(), header.end(), ',');
        std::size_t start = 0;
        while (start < content.size()) {
            auto nl = content.find('\n', start);
            if (nl == std::string::npos) nl = content.size();
            const auto line = content.substr(start, nl - start);
            if (!line.empty()) {
                EXPECT_EQ(std::count(line.begin(), line.end(), ','), commas);
            }
            start = nl + 1;
        }
    }
    // Table 2 has 20 data rows.
    const auto table2 = slurp((dir_ / "table2_panics.csv").string());
    EXPECT_EQ(lineCount(table2), 21u);
}

TEST_F(ExportFixture, JsonExportIsWellFormedEnough) {
    StudyConfig config;
    config.fleetConfig.phoneCount = 2;
    config.fleetConfig.campaign = sim::Duration::days(12);
    config.fleetConfig.enrollmentWindow = sim::Duration::days(2);
    config.fleetConfig.freezesPerHour *= 10.0;
    config.fleetConfig.selfShutdownsPerHour *= 10.0;
    config.fleetConfig.panicsPerHour *= 10.0;
    const FailureStudy study{config};
    const auto results = study.runFieldStudy();

    const auto json = fieldResultsToJson(results);
    // Structural sanity: balanced braces/brackets, expected keys present.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    for (const char* key :
         {"\"headline\"", "\"table2\"", "\"fig3_burst_lengths\"", "\"fig5\"",
          "\"table3\"", "\"fig6_running_apps\"", "\"table4\"", "\"crash_families\"",
          "\"evaluation\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }

    std::filesystem::create_directories(dir_);
    const auto path = (dir_ / "results.json").string();
    obs::writeFile(path, json);
    EXPECT_EQ(slurp(path), json);
}

TEST_F(ExportFixture, BadDirectoryThrows) {
    StudyConfig config;
    config.fleetConfig.phoneCount = 1;
    config.fleetConfig.campaign = sim::Duration::days(2);
    config.fleetConfig.enrollmentWindow = sim::Duration::days(1);
    const auto results = FailureStudy{config}.runFieldStudy();
    // The directory cannot be created ...
    EXPECT_THROW((void)exportFieldCsv(results, "/proc/definitely/not/writable"),
                 std::exception);
    // ... or exists but takes no files, so the first write fails.
    EXPECT_THROW((void)exportFieldCsv(results, "/proc/self"), std::runtime_error);
}

}  // namespace
}  // namespace symfail::core
