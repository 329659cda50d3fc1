// User-report channel — the paper's future-work extension implemented.
//
// The paper's logger detects freezes and self-shutdowns automatically but
// is blind to *output failures* (value failures: wrong volume, wrong
// charge indicator …), and its authors note that capturing them "may
// require involvement of users" — while warning, from their Bluetooth
// study, that "users are quite unreliable and often neglect or forget to
// post the required information, thus biasing the results".
//
// This channel models exactly that: when the device exhibits an output
// failure, the simulated user notices and files a report into the Log
// File with probability `reportProbability`, after a thinking delay.
// The ground-truth evaluator then *quantifies* the under-reporting bias
// the paper could only warn about.
#pragma once

#include <cstdint>

#include "logger/records.hpp"
#include "phone/device.hpp"
#include "simkernel/rng.hpp"

namespace symfail::logger {

/// Configuration of the user's reporting behaviour.
struct UserReportConfig {
    /// Probability that the user reports a noticed output failure (the
    /// paper's Bluetooth-study experience suggests well below one).
    double reportProbability = 0.35;
};

/// Collects user reports of output failures into the consolidated Log
/// File (UREP records).
class UserReportChannel {
public:
    UserReportChannel(phone::PhoneDevice& device, UserReportConfig config,
                      std::uint64_t seed);
    UserReportChannel(const UserReportChannel&) = delete;
    UserReportChannel& operator=(const UserReportChannel&) = delete;

    [[nodiscard]] std::uint64_t reportsFiled() const { return filed_; }

private:
    phone::PhoneDevice* device_;
    UserReportConfig config_;
    sim::Rng rng_;
    std::uint64_t filed_{0};
};

}  // namespace symfail::logger
