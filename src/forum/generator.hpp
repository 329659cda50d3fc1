// Synthetic forum corpus generator.
//
// The original study mined four years of free-format posts from public
// phone forums; those posts are not redistributable and the forums are
// long gone.  The generator reproduces the corpus *statistically*: failure
// reports drawn from the reconstructed Table 1 joint distribution, activity
// mentions at the paper's rates, vendor mix as described (all major
// vendors; 22.3% of failure reports from smart phones), and a share of
// non-failure chatter that the classifier must filter out — each rendered
// as templated free-form English with a known ground-truth label.
#pragma once

#include <vector>

#include "forum/report.hpp"
#include "simkernel/rng.hpp"

namespace symfail::forum {

/// Corpus size.  The corpus shape (noise share, smart-phone share,
/// activity mentions) follows the paper's Section 4 (generator.cpp).
struct CorpusConfig {
    /// Number of genuine failure reports (the paper analyzed 533).
    int failureReports = kPaperReportCount;
};

/// Generates the corpus; deterministic for a given seed.
[[nodiscard]] std::vector<ForumReport> generateCorpus(const CorpusConfig& config,
                                                      std::uint64_t seed);

}  // namespace symfail::forum
