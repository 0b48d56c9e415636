// Self-test of the benchmark's output checkers: each checker must accept the
// program's real output and reject a seeded wrong one (a dropped row, a
// flipped Z sign, a perturbed count). Run with `timr_e2e --selftest`, or
// `python3 e2ebench/run.py --selftest` from the repository root.

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bt/custom_reducers.h"
#include "bt/queries.h"
#include "bt/suite_runner.h"
#include "checks.h"
#include "mr/checkpoint.h"
#include "temporal/convert.h"
#include "timr/timr.h"
#include "workload/generator.h"

namespace e2e {

namespace {

using timr::Row;
using timr::Value;
using timr::temporal::Event;
namespace T = timr::temporal;

int failures = 0;

void Expect(bool ok, const std::string& what, const std::string& detail) {
  std::printf("%s %s%s%s\n", ok ? "ok  " : "FAIL", what.c_str(),
              detail.empty() ? "" : " -- ", detail.c_str());
  failures += ok ? 0 : 1;
}

void Accepts(const std::string& checker, const std::string& err) {
  Expect(err.empty(), checker + " accepts the program's output", err);
}

void Rejects(const std::string& checker, const std::string& mutation,
             const std::string& err) {
  Expect(!err.empty(), checker + " rejects " + mutation, err);
}

// First row whose Z is non-zero and, when `pred` is given, satisfies it.
size_t FindRow(const std::vector<Row>& rows,
               const std::function<bool(const Row&)>& pred = nullptr) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i][kFsZ].AsDouble() != 0 && (!pred || pred(rows[i]))) return i;
  }
  return rows.size();
}

timr::mr::Dataset InputDataset(const std::vector<Event>& events) {
  return timr::mr::Dataset::FromRows(T::PointRowSchema(timr::bt::UnifiedSchema()),
                                     T::RowsFromEvents(events, false).ValueOrDie());
}

void TestBtCheckers() {
  timr::workload::GeneratorConfig gen;  // the bt_week log at seed 1
  gen.seed = 20120401 + 7919;
  gen.duration = 7 * T::kDay;
  timr::bt::BtQueryConfig query;
  query.selection_period = 8 * T::kDay;
  query.bot_search_threshold = 60;
  query.bot_click_threshold = 30;
  const auto log = timr::workload::GenerateBtLog(gen);

  timr::mr::LocalCluster cluster(16, 2);
  const auto plan =
      timr::bt::BtFeaturePipeline(query, timr::bt::Annotation::kStandard).node();
  std::map<std::string, timr::mr::Dataset> store{
      {timr::bt::kBtInput, InputDataset(log.events)}};
  auto run = timr::framework::RunPlan(&cluster, plan, &store);
  if (!run.ok()) {
    Expect(false, "BT pipeline runs", run.status().ToString());
    return;
  }
  const std::vector<Row> rows = Payloads(run.ValueOrDie().output);
  std::map<std::string, timr::mr::Dataset> custom_store{
      {timr::bt::kBtInput, InputDataset(log.events)}};
  const std::vector<Row> ref =
      timr::bt::RunCustomBtJob(&cluster, &custom_store, query)
          .ValueOrDie()
          .feature_scores;

  auto equal = [&](const std::vector<Row>& r) { return CheckFeatureScoresEqual(r, ref); };
  auto signs = [&](const std::vector<Row>& r) {
    return CheckPlantedSigns(r, log.truth, 30, 2.0, 50);
  };
  Accepts("feature-scores = custom reference", equal(rows));
  Accepts("Z recomputed", CheckZRecomputed(rows));
  Accepts("planted signs", signs(rows));

  const size_t scored = FindRow(rows);
  const size_t planted = FindRow(rows, [&](const Row& r) {
    const auto& cls = log.truth.ad_classes[static_cast<size_t>(r[kFsAdId].AsInt64())];
    const int64_t with = r[kFsExamplesWith].AsInt64();
    return cls.pos_keywords.count(r[kFsKeyword].AsInt64()) > 0 && with >= 30 &&
           r[kFsExamplesTotal].AsInt64() - with >= 30 &&
           r[kFsZ].AsDouble() >= 2.0;
  });
  if (scored == rows.size() || planted == rows.size()) {
    Expect(false, "output has a scored planted row", "");
    return;
  }
  std::vector<Row> dropped = rows;
  dropped.erase(dropped.begin() + static_cast<long>(scored));
  std::vector<Row> flipped = rows;
  flipped[planted][kFsZ] = Value(-flipped[planted][kFsZ].AsDouble());
  std::vector<Row> perturbed = rows;
  perturbed[scored][kFsExamplesWith] =
      Value(perturbed[scored][kFsExamplesWith].AsInt64() + 1);

  Rejects("feature-scores = custom reference", "a dropped row", equal(dropped));
  Rejects("feature-scores = custom reference", "a flipped Z sign", equal(flipped));
  Rejects("feature-scores = custom reference", "a perturbed count", equal(perturbed));
  Rejects("Z recomputed", "a flipped Z sign", CheckZRecomputed(flipped));
  Rejects("Z recomputed", "a perturbed count", CheckZRecomputed(perturbed));
  Rejects("planted signs", "a flipped Z sign", signs(flipped));
  Rejects("planted signs", "too few supported rows (dropped rows)",
          CheckPlantedSigns(rows, log.truth, 30, 2.0, rows.size() + 1));

  // Kill after 2 fragments, then resume from the in-memory checkpoint.
  timr::mr::CheckpointStore checkpoint;
  timr::framework::TimrOptions stop;
  stop.checkpoint = &checkpoint;
  stop.chaos_kill_after_stages = 2;
  std::map<std::string, timr::mr::Dataset> s1{
      {timr::bt::kBtInput, InputDataset(log.events)}};
  const bool stopped = !timr::framework::RunPlan(&cluster, plan, &s1, stop).ok();
  timr::framework::TimrOptions resume;
  resume.checkpoint = &checkpoint;
  std::map<std::string, timr::mr::Dataset> s2{
      {timr::bt::kBtInput, InputDataset(log.events)}};
  auto resumed = timr::framework::RunPlan(&cluster, plan, &s2, resume);
  if (!stopped || !resumed.ok()) {
    Expect(false, "kill and resume run", resumed.status().ToString());
    return;
  }
  const timr::mr::JobStats& stats = resumed.ValueOrDie().job_stats;
  Accepts("stages restored", CheckStagesRestored(stats, 2));
  Rejects("stages restored", "a perturbed count", CheckStagesRestored(stats, 3));
  timr::mr::JobStats lost = stats;
  lost.stages.erase(lost.stages.begin());
  Rejects("stages restored", "a dropped row", CheckStagesRestored(lost, 2));

  const auto& out = resumed.ValueOrDie().output;
  Accepts("repeat run identical", CheckIdentical(out, run.ValueOrDie().output));
  std::vector<Event> short_out(out.begin(), out.end() - 1);
  Rejects("repeat run identical", "a dropped row",
          CheckIdentical(short_out, run.ValueOrDie().output));
}

void TestSuiteCheckers() {
  timr::workload::GeneratorConfig gen;  // small Zipf log with default bots
  gen.num_users = 300;
  gen.vocab_size = 2000;
  gen.duration = 2 * T::kDay;
  gen.user_activity_zipf = 0.8;
  timr::bt::BtQueryConfig query;
  query.selection_period = 3 * T::kDay;
  query.bot_search_threshold = 60;
  query.bot_click_threshold = 30;
  const auto log = timr::workload::GenerateBtLog(gen);

  timr::mr::LocalCluster cluster(16, 2);
  std::map<std::string, timr::mr::Dataset> store;
  if (!timr::bt::LoadBtSuiteStore(log.events, &store).ok()) {
    Expect(false, "suite store loads", "");
    return;
  }
  timr::framework::SuiteOptions options;
  options.timr.skew.adaptive_repartition = true;
  auto run = timr::bt::RunBtCqSuite(&cluster, &store, query, options);
  if (!run.ok()) {
    Expect(false, "suite runs", run.status().ToString());
    return;
  }
  std::map<std::string, std::vector<Event>> out;
  for (size_t i = 0; i < run.ValueOrDie().query_names.size(); ++i) {
    out[run.ValueOrDie().query_names[i]] = run.ValueOrDie().outputs[i];
  }
  std::map<std::string, timr::Schema> schemas;
  for (const auto& [name, node] : timr::bt::BtCqSuite(query)) {
    schemas[name] = node->OutputSchema().ValueOrDie();
  }
  auto col = [&](const char* q, const char* f) {
    return schemas.at(q).IndexOf(f).ValueOrDie();
  };
  auto drop_first = [](std::vector<Event> v) {
    if (!v.empty()) v.erase(v.begin());
    return v;
  };

  auto partition = [&](const std::vector<Event>& clicks) {
    return CheckPartition(clicks.size(), out["clean_impressions"].size(),
                          out["clean_keywords"].size(), out["bot_elimination"].size());
  };
  Accepts("clean partition", partition(out["clean_clicks"]));
  Rejects("clean partition", "a dropped row", partition(drop_first(out["clean_clicks"])));

  const size_t clean = out["bot_elimination"].size();
  const int events_col = col("hourly_volume", "Events");
  auto hourly = [&](const std::vector<Event>& v) {
    return CheckWindowedVolume(v, events_col, T::kHour, clean);
  };
  std::vector<Event> bumped = out["hourly_volume"];
  if (!bumped.empty()) {
    bumped[0].payload[events_col] = Value(bumped[0].payload[events_col].AsInt64() + 1);
  }
  Accepts("hourly volume", hourly(out["hourly_volume"]));
  Rejects("hourly volume", "a perturbed count", hourly(bumped));
  auto keyword = [&](const std::vector<Event>& v) {
    return CheckWindowedVolume(v, col("keyword_volume", "Searches"),
                               query.selection_period, out["clean_keywords"].size());
  };
  Accepts("keyword volume", keyword(out["keyword_volume"]));
  Rejects("keyword volume", "a dropped row", keyword(drop_first(out["keyword_volume"])));

  const int user_col = col("bot_searchers", "UserId");
  const int cnt_col = col("bot_searchers", "cnt");
  auto searchers = [&](const std::vector<Event>& v) {
    return CheckBotDetector(log.events, timr::bt::kStreamKeyword,
                            query.bot_search_threshold, query.profile_window,
                            query.bot_hop, v, user_col, cnt_col);
  };
  std::vector<Event> miscounted = out["bot_searchers"];
  if (!miscounted.empty()) {
    miscounted[0].payload[cnt_col] = Value(miscounted[0].payload[cnt_col].AsInt64() + 1);
  }
  Accepts("bot searchers = direct count", searchers(out["bot_searchers"]));
  Rejects("bot searchers = direct count", "a perturbed count", searchers(miscounted));
  Rejects("bot searchers = direct count", "a dropped row",
          searchers(drop_first(out["bot_searchers"])));
  auto clickers = [&](const std::vector<Event>& v) {
    return CheckBotDetector(log.events, timr::bt::kStreamClick,
                            query.bot_click_threshold, query.profile_window,
                            query.bot_hop, v, col("bot_clickers", "UserId"),
                            col("bot_clickers", "cnt"));
  };
  Accepts("bot clickers = direct count", clickers(out["bot_clickers"]));
  Rejects("bot clickers = direct count", "a dropped row",
          clickers(drop_first(out["bot_clickers"])));

  const int bot_col = col("bot_stream", "UserId");
  std::vector<Event> without_bot;
  const int64_t bot = *log.truth.bot_users.begin();
  for (const Event& e : out["bot_stream"]) {
    if (e.payload[bot_col].AsInt64() != bot) without_bot.push_back(e);
  }
  Accepts("planted bots in bot_stream",
          CheckPlantedBots(out["bot_stream"], bot_col, log.truth.bot_users));
  Rejects("planted bots in bot_stream", "a bot's dropped rows",
          CheckPlantedBots(without_bot, bot_col, log.truth.bot_users));
}

}  // namespace

int RunSelfTest() {
  TestBtCheckers();
  TestSuiteCheckers();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace e2e
