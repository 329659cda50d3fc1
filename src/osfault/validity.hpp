// Measurement-validity scoring for fault-plane campaigns.
//
// The central claim a plane sweep tests: the pipeline's *recovered*
// failure tables still match `phone/ground_truth` while the OS underneath
// the logger misbehaves.  This module wraps the analysis evaluator's
// precision/recall scores together with the plane activity that produced
// them, renders the result in a stable greppable format, and checks it
// against declared bounds (the CI smoke job and the tier-1 calibration
// test both require `firstViolation` to be empty).
#pragma once

#include <string>

#include "analysis/evaluator.hpp"
#include "osfault/phone_planes.hpp"

namespace symfail::osfault {

/// Lower bounds a plane campaign's recovery scores must clear.
struct ValidityBounds {
    double minFreezePrecision{0.0};
    double minFreezeRecall{0.0};
    double minSelfShutdownPrecision{0.0};
    double minSelfShutdownRecall{0.0};
    double minPanicCaptureRate{0.0};
};

/// One campaign's validity verdict: recovery scores + plane activity.
struct ValidityReport {
    analysis::EvaluationReport evaluation;
    CampaignPlaneStats planes;
};

/// Names the first bound the report violates, or "" when all hold.
[[nodiscard]] std::string firstViolation(const ValidityReport& report,
                                         const ValidityBounds& bounds);

/// Renders the report (stable line prefixes: "osfault ...").
[[nodiscard]] std::string render(const ValidityReport& report);

}  // namespace symfail::osfault
