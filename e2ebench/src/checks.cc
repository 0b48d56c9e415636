#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace e2e {

using timr::Row;
using timr::temporal::Event;

std::vector<Row> Payloads(const std::vector<Event>& events) {
  std::vector<Row> rows;
  rows.reserve(events.size());
  for (const Event& e : events) rows.push_back(e.payload);
  return rows;
}

double ReferenceZ(int64_t clicks_with, int64_t examples_with,
                  int64_t clicks_total, int64_t examples_total) {
  constexpr int64_t kMinSupport = 5;
  const int64_t examples_without = examples_total - examples_with;
  const int64_t clicks_without = clicks_total - clicks_with;
  if (examples_with < kMinSupport || examples_without < kMinSupport ||
      clicks_without < 1) {
    return 0.0;
  }
  const double p_with = (clicks_with + 0.5) / (examples_with + 1.0);
  const double p_without = (clicks_without + 0.5) / (examples_without + 1.0);
  const double se = std::sqrt(p_with * (1.0 - p_with) / examples_with +
                              p_without * (1.0 - p_without) / examples_without);
  return se > 0 ? (p_with - p_without) / se : 0.0;
}

namespace {

bool ZClose(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string RowText(const Row& r) { return timr::RowToString(r); }

}  // namespace

std::string CheckFeatureScoresEqual(std::vector<Row> got, std::vector<Row> ref) {
  if (got.size() != ref.size()) {
    return "feature scores: " + std::to_string(got.size()) + " rows, reference " +
           std::to_string(ref.size());
  }
  auto by_counts = [](const Row& a, const Row& b) {
    for (int c = kFsAdId; c <= kFsExamplesTotal; ++c) {
      if (a[c] != b[c]) return a[c] < b[c];
    }
    return a[kFsZ].AsDouble() < b[kFsZ].AsDouble();
  };
  std::sort(got.begin(), got.end(), by_counts);
  std::sort(ref.begin(), ref.end(), by_counts);
  for (size_t i = 0; i < got.size(); ++i) {
    for (int c = kFsAdId; c <= kFsExamplesTotal; ++c) {
      if (got[i][c] != ref[i][c]) {
        return "feature scores: row " + RowText(got[i]) + " vs reference " +
               RowText(ref[i]);
      }
    }
    if (!ZClose(got[i][kFsZ].AsDouble(), ref[i][kFsZ].AsDouble())) {
      return "feature scores: Z of " + RowText(got[i]) + " vs reference " +
             RowText(ref[i]);
    }
  }
  return "";
}

std::string CheckZRecomputed(const std::vector<Row>& rows) {
  for (const Row& r : rows) {
    const double want =
        ReferenceZ(r[kFsClicksWith].AsInt64(), r[kFsExamplesWith].AsInt64(),
                   r[kFsClicksTotal].AsInt64(), r[kFsExamplesTotal].AsInt64());
    if (!ZClose(r[kFsZ].AsDouble(), want)) {
      return "z recompute: " + RowText(r) + " expected Z " + std::to_string(want);
    }
  }
  return "";
}

std::string CheckPlantedSigns(const std::vector<Row>& rows,
                              const timr::workload::GroundTruth& truth,
                              int64_t min_support, double min_abs_z,
                              size_t min_checked) {
  size_t checked = 0;
  for (const Row& r : rows) {
    const int64_t ad = r[kFsAdId].AsInt64();
    if (ad < 0 || ad >= static_cast<int64_t>(truth.ad_classes.size())) continue;
    const auto& cls = truth.ad_classes[static_cast<size_t>(ad)];
    const int64_t kw = r[kFsKeyword].AsInt64();
    const bool pos = cls.pos_keywords.count(kw) > 0;
    const bool neg = cls.neg_keywords.count(kw) > 0;
    if (!pos && !neg) continue;
    const int64_t with = r[kFsExamplesWith].AsInt64();
    const int64_t without = r[kFsExamplesTotal].AsInt64() - with;
    const double z = r[kFsZ].AsDouble();
    if (with < min_support || without < min_support || std::fabs(z) < min_abs_z) {
      continue;
    }
    ++checked;
    if ((pos && !(z > 0)) || (neg && !(z < 0))) {
      return std::string("planted sign: ") + (pos ? "positive" : "negative") +
             " keyword " + truth.KeywordName(kw) + " scores " + RowText(r);
    }
  }
  if (checked < min_checked) {
    return "planted sign: only " + std::to_string(checked) +
           " significant planted rows with support >= " +
           std::to_string(min_support);
  }
  return "";
}

std::string CheckStagesRestored(const timr::mr::JobStats& stats,
                                size_t expected) {
  size_t restored = 0;
  for (const auto& s : stats.stages) restored += s.recovered_from_checkpoint;
  if (restored != expected) {
    return "resume restored " + std::to_string(restored) + " stages, killed after " +
           std::to_string(expected);
  }
  return "";
}

std::string CheckPartition(size_t a, size_t b, size_t c, size_t total) {
  if (a + b + c != total) {
    return "clean_clicks + clean_impressions + clean_keywords = " +
           std::to_string(a + b + c) + ", bot_elimination = " +
           std::to_string(total);
  }
  return "";
}

std::string CheckWindowedVolume(const std::vector<Event>& out, int count_col,
                                int64_t hop, size_t expected) {
  int64_t sum = 0;
  for (const Event& e : out) {
    if ((e.re - e.le) % hop != 0) {
      return "windowed volume: lifetime off the hop grid in " + RowText(e.payload);
    }
    sum += e.payload[count_col].AsInt64() * ((e.re - e.le) / hop);
  }
  if (sum != static_cast<int64_t>(expected)) {
    return "windowed volume: counts sum to " + std::to_string(sum) +
           ", expected " + std::to_string(expected);
  }
  return "";
}

std::string CheckBotDetector(const std::vector<Event>& log, int64_t stream_id,
                             int64_t threshold, int64_t window, int64_t hop,
                             const std::vector<Event>& out, int user_col,
                             int count_col) {
  // Direct count: per user, the sorted times of the stream's events, swept
  // over the hop grid.
  std::map<int64_t, std::vector<int64_t>> times;
  for (const Event& e : log) {
    if (e.payload[0].AsInt64() == stream_id) {
      times[e.payload[1].AsInt64()].push_back(e.le);
    }
  }
  std::map<std::pair<int64_t, int64_t>, int64_t> expected;  // (user, b) -> cnt
  for (auto& [user, ts] : times) {
    if (static_cast<int64_t>(ts.size()) <= threshold) continue;
    std::sort(ts.begin(), ts.end());
    auto ceil_grid = [hop](int64_t t) {
      int64_t q = t / hop;
      if (q * hop < t) ++q;
      return q * hop;
    };
    size_t lo = 0, hi = 0;  // events in (b - window, b] are ts[lo, hi)
    for (int64_t b = ceil_grid(ts.front()); b < ts.back() + window; b += hop) {
      while (hi < ts.size() && ts[hi] <= b) ++hi;
      while (lo < hi && ts[lo] <= b - window) ++lo;
      const auto cnt = static_cast<int64_t>(hi - lo);
      if (cnt > threshold) expected[{user, b}] = cnt;
    }
  }
  size_t covered = 0;
  for (const Event& e : out) {
    const int64_t user = e.payload[user_col].AsInt64();
    const int64_t cnt = e.payload[count_col].AsInt64();
    if (e.le % hop != 0 || e.re % hop != 0 || e.re <= e.le) {
      return "bot detector: lifetime off the hop grid for user " +
             std::to_string(user);
    }
    for (int64_t b = e.le; b < e.re; b += hop) {
      auto it = expected.find({user, b});
      if (it == expected.end() || it->second != cnt) {
        return "bot detector: user " + std::to_string(user) + " at " +
               std::to_string(b) + " reported " + std::to_string(cnt) +
               ", direct count " +
               (it == expected.end() ? std::string("<= threshold")
                                     : std::to_string(it->second));
      }
      ++covered;
    }
  }
  if (covered != expected.size()) {
    return "bot detector: " + std::to_string(covered) +
           " (user, window) reports, direct count has " +
           std::to_string(expected.size());
  }
  return "";
}

std::string CheckPlantedBots(const std::vector<Event>& bot_stream, int user_col,
                             const std::unordered_set<int64_t>& bots) {
  std::unordered_set<int64_t> seen;
  for (const Event& e : bot_stream) seen.insert(e.payload[user_col].AsInt64());
  for (int64_t bot : bots) {
    if (seen.count(bot) == 0) {
      return "planted bot " + std::to_string(bot) + " missing from bot_stream";
    }
  }
  return "";
}

std::string CheckIdentical(const std::vector<Event>& a,
                           const std::vector<Event>& b) {
  if (a.size() != b.size()) {
    return "repeat run: " + std::to_string(a.size()) + " events vs " +
           std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].le != b[i].le || a[i].re != b[i].re || a[i].payload != b[i].payload) {
      return "repeat run: event " + std::to_string(i) + " differs";
    }
  }
  return "";
}

}  // namespace e2e
