// Output checkers for the end-to-end benchmark. Each one compares an output
// of the program against a computation made apart from it: the hand-written
// custom-reducer pipeline, a z-score formula written here, the generator's
// ground truth, or counts taken directly over the generated log. Each returns
// an empty string when the output passes and a one-line reason otherwise.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/row.h"
#include "mr/cluster.h"
#include "temporal/event.h"
#include "workload/generator.h"

namespace e2e {

/// Feature-score row layout (bt::FeatureScoreSchema):
/// [AdId, Keyword, ClicksWith, ExamplesWith, ClicksTotal, ExamplesTotal, Z].
inline constexpr int kFsAdId = 0;
inline constexpr int kFsKeyword = 1;
inline constexpr int kFsClicksWith = 2;
inline constexpr int kFsExamplesWith = 3;
inline constexpr int kFsClicksTotal = 4;
inline constexpr int kFsExamplesTotal = 5;
inline constexpr int kFsZ = 6;

std::vector<timr::Row> Payloads(const std::vector<timr::temporal::Event>& events);

/// The unpooled two-proportion z-score with half-a-click smoothing
/// (paper §IV-B.3), written here rather than called from the program.
double ReferenceZ(int64_t clicks_with, int64_t examples_with,
                  int64_t clicks_total, int64_t examples_total);

/// `got` and `ref` hold the same feature-score rows, as multisets: the six
/// counts exactly, Z to 1e-9 relative.
std::string CheckFeatureScoresEqual(std::vector<timr::Row> got,
                                    std::vector<timr::Row> ref);

/// Every row's Z equals ReferenceZ of the row's own four counts.
std::string CheckZRecomputed(const std::vector<timr::Row>& rows);

/// Planted keywords with at least `min_support` examples with and without the
/// keyword, whose score is significant (|Z| >= `min_abs_z`), score with the
/// sign the ground truth gives them; at least `min_checked` planted rows must
/// qualify, so the check cannot pass empty.
std::string CheckPlantedSigns(const std::vector<timr::Row>& rows,
                              const timr::workload::GroundTruth& truth,
                              int64_t min_support, double min_abs_z,
                              size_t min_checked);

/// A resumed job restored exactly `expected` leading stages from its
/// checkpoint.
std::string CheckStagesRestored(const timr::mr::JobStats& stats,
                                size_t expected);

/// |a| + |b| + |c| == |total| (event counts).
std::string CheckPartition(size_t a, size_t b, size_t c, size_t total);

/// Σ count × (windows the event spans) over a tumbling-window count output
/// equals `expected`: every input event lands in exactly one window.
std::string CheckWindowedVolume(const std::vector<timr::temporal::Event>& out,
                                int count_col, int64_t hop, size_t expected);

/// The per-user hopping-window detector output (bot_searchers /
/// bot_clickers) equals a direct count over the log: at every hop boundary b,
/// a user's count of `stream_id` events in (b - window, b] is reported
/// exactly when it exceeds `threshold`, with that count.
std::string CheckBotDetector(const std::vector<timr::temporal::Event>& log,
                             int64_t stream_id, int64_t threshold,
                             int64_t window, int64_t hop,
                             const std::vector<timr::temporal::Event>& out,
                             int user_col, int count_col);

/// Every planted bot appears in the bot stream.
std::string CheckPlantedBots(const std::vector<timr::temporal::Event>& bot_stream,
                             int user_col,
                             const std::unordered_set<int64_t>& bots);

/// Two runs of one job produced the same events (the repeatability contract).
std::string CheckIdentical(const std::vector<timr::temporal::Event>& a,
                           const std::vector<timr::temporal::Event>& b);

}  // namespace e2e
