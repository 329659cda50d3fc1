// A forum post and its ground-truth label.
#pragma once

#include <optional>
#include <string>

#include "forum/taxonomy.hpp"

namespace symfail::forum {

/// Ground-truth label attached by the generator (a real corpus would not
/// have one — it is what the classifier is scored against).
struct ReportLabel {
    bool isFailureReport{false};
    FailureType type{FailureType::Freeze};
    RecoveryAction recovery{RecoveryAction::Unreported};
};

/// One post.
struct ForumReport {
    std::string model;  ///< "<vendor> <model>".
    bool smartPhone{false};
    int year{2004};
    std::string text;
    ReportLabel label;
};

}  // namespace symfail::forum
