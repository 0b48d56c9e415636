// End-to-end benchmark of the TiMR reproduction (see ../README.md).
//
//   timr_e2e --workload <bt_week|suite_skewed|bt_procs_resume> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//   timr_e2e --selftest
//
// One run: a cold set-up (generate the log, load the store, build plans and
// the independent references, one untimed warm-up job whose outputs are
// checked in full), then back-to-back timed jobs for --seconds with tracing
// off, then — with --trace 1 — one traced job plus direct probes of single
// layers. The last line on stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. Diagnostics go to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/sharing.h"
#include "bt/custom_reducers.h"
#include "bt/queries.h"
#include "bt/suite_runner.h"
#include "checks.h"
#include "common/stopwatch.h"
#include "mr/checkpoint.h"
#include "mr/cluster.h"
#include "mr/driver.h"
#include "mr/rpc.h"
#include "temporal/convert.h"
#include "temporal/executor.h"
#include "timr/suite.h"
#include "timr/timr.h"
#include "trace.h"
#include "workload/generator.h"

namespace e2e {
int RunSelfTest();
}

namespace {

using namespace timr;
namespace T = timr::temporal;
namespace fs = std::filesystem;
using e2e::ScopedSpan;
using e2e::Tracer;

// Taken during static initialization, before main: set-up time counts from
// the process's start, not from the end of argument parsing.
const auto kProcessStart = std::chrono::steady_clock::now();

double SinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

// Jobs run before peak RSS is read. Fixed, so a faster program that fits
// more jobs into --seconds does not read as using more memory; large enough
// that the allocator's footprint has levelled off (suite_skewed's climbs for
// about 8 jobs), and small enough to fit into a run of every workload.
constexpr int kRssJobs = 12;
// Fragments the stopped part of a bt_procs_resume job completes (of 6).
constexpr int kKillAfterStages = 2;
constexpr int kProcsWorkers = 2;
// A planted keyword's sign is checked when it has this many examples on each
// side and a significant score. At this scale planted negatives are weak
// (their |Z| stays near or below 1 on some seeds), so only significant scores
// are held to the planted sign; every run checks over a hundred rows.
constexpr int64_t kSignSupport = 30;
constexpr double kSignMinAbsZ = 2.0;
constexpr size_t kSignMinChecked = 50;

enum class Kind { kBtThreads, kSuite, kBtProcsResume };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Workload {
  Kind kind = Kind::kBtThreads;
  workload::GeneratorConfig gen;
  bt::BtQueryConfig query;
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  // A week of ad logs over 2000 users: the "one week" stand-in of the repo's
  // benches (paper §V-A).
  w->gen.seed = 20120401 + 7919 * seed;
  w->gen.num_users = 2000;
  w->gen.vocab_size = 20000;
  w->gen.duration = 7 * T::kDay;
  w->query.selection_period = 8 * T::kDay;  // covers the whole log
  w->query.bot_search_threshold = 60;
  w->query.bot_click_threshold = 30;
  if (name == "bt_week") {
    w->kind = Kind::kBtThreads;
  } else if (name == "bt_procs_resume") {
    w->kind = Kind::kBtProcsResume;
  } else if (name == "suite_skewed") {
    // Zipf user activity with the generator's default bot multipliers: the
    // bots are users 0..k-1, the Zipf head, so their activity dominates (the
    // run reports the share). Fewer users keep one 36-stage job near 2 s.
    w->kind = Kind::kSuite;
    w->gen.num_users = 400;
    w->gen.user_activity_zipf = 0.8;
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------- resources --

// CPU of this process plus its reaped children (forked workers).
struct Usage {
  double user = 0;
  double sys = 0;
  double child_maxrss_mb = 0;
  double self_maxrss_mb = 0;
};

double Seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; }

Usage SampleUsage() {
  rusage self{}, child{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &child);
  Usage u;
  u.user = Seconds(self.ru_utime) + Seconds(child.ru_utime);
  u.sys = Seconds(self.ru_stime) + Seconds(child.ru_stime);
  u.child_maxrss_mb = static_cast<double>(child.ru_maxrss) / 1024.0;
  u.self_maxrss_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
  return u;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

// ------------------------------------------------------------------ jobs --

struct JobOutcome {
  Status status;
  double wall_s = 0;  // timed program calls only
  double user_s = 0;  // self + reaped children, over the same calls
  double sys_s = 0;
  // Outputs: one entry for the BT pipeline, one per CQ for the suite.
  std::vector<std::vector<T::Event>> outputs;
  std::vector<std::string> query_names;
  mr::JobStats stats;  // resumed part only, for bt_procs_resume
  double stats_wall_s = 0;  // wall of the calls `stats` covers
  size_t shared_fragments = 0;
  size_t rows_executed_once = 0;
};

class Bench {
 public:
  Bench(Args args, Workload w)
      : args_(std::move(args)),
        w_(std::move(w)),
        tracer_(args_.trace),
        cluster_(/*num_machines=*/16, Threads()) {}

  Tracer* tracer() { return &tracer_; }

  /// Everything counted in setup_s. Returns "" or the first check failure.
  std::string Setup();
  JobOutcome RunJob(bool probes);
  /// Repeatability and the two clocks, for every timed job.
  std::string CheckRepeat(const JobOutcome& job) const;
  std::string CheckFull(const JobOutcome& job) const;
  std::map<std::string, std::pair<double, std::string>> LayerMetrics(
      const JobOutcome& traced);
  void PrintStageWalls(const std::vector<mr::JobStats>& runs) const;
  const std::string& probe_error() const { return probe_error_; }

  /// bt_procs_resume's checkpoint directory, emptied before every job.
  fs::path SpillDir() const {
    return fs::path(args_.out_dir) /
           ("spill-" + args_.workload + "-" + std::to_string(args_.seed));
  }

 private:
  static int Threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
  }

  std::map<std::string, mr::Dataset> MakeStore() const {
    std::map<std::string, mr::Dataset> store;
    store[bt::kBtInput] =
        mr::Dataset::FromRows(T::PointRowSchema(bt::UnifiedSchema()), input_rows_);
    return store;
  }

  void ProbeCheckpoint();
  void ProbeRpc();

  Args args_;
  Workload w_;
  Tracer tracer_;
  mr::LocalCluster cluster_;

  workload::BtLog log_;
  std::vector<Row> input_rows_;
  T::PlanNodePtr plan_;  // BT pipeline (kStandard)
  std::vector<std::pair<std::string, T::PlanNodePtr>> suite_;
  std::map<std::string, Schema> suite_schemas_;
  std::vector<Row> reference_;  // custom-reducer feature scores
  std::vector<std::vector<T::Event>> golden_;  // warm-up job outputs
  std::vector<std::string> stage_names_;       // BT fragments, in order

  // Probe results, filled around the traced job. The probes' times are read
  // back from their spans.
  double checkpoint_bytes_ = 0;
  double rpc_bytes_ = 0;
  std::string probe_error_;
};

std::string Bench::Setup() {
  {
    ScopedSpan s(&tracer_, "workload.GenerateBtLog");
    log_ = workload::GenerateBtLog(w_.gen);
  }
  {
    ScopedSpan s(&tracer_, "setup.load_store");
    input_rows_ = T::RowsFromEvents(log_.events, false).ValueOrDie();
  }
  {
    ScopedSpan s(&tracer_, "setup.plans");
    plan_ = bt::BtFeaturePipeline(w_.query, bt::Annotation::kStandard).node();
    if (w_.kind == Kind::kSuite) {
      suite_ = bt::BtCqSuite(w_.query);
      for (const auto& [name, node] : suite_) {
        suite_schemas_[name] = node->OutputSchema().ValueOrDie();
      }
    }
  }
  {
    ScopedSpan s(&tracer_, "bt.RunCustomBtJob");
    auto store = MakeStore();
    auto custom = bt::RunCustomBtJob(&cluster_, &store, w_.query);
    if (!custom.ok()) return "custom reference: " + custom.status().ToString();
    reference_ = std::move(custom.ValueOrDie().feature_scores);
  }
  if (w_.kind == Kind::kSuite) {
    size_t bot_events = 0;
    for (const T::Event& e : log_.events) {
      bot_events += log_.truth.bot_users.count(e.payload[1].AsInt64());
    }
    std::fprintf(stderr, "log: %zu events, bots %zu of %d users hold %.1f%%\n",
                 log_.events.size(), log_.truth.bot_users.size(),
                 w_.gen.num_users, 100.0 * bot_events / log_.events.size());
  } else {
    std::fprintf(stderr, "log: %zu events\n", log_.events.size());
  }
  ScopedSpan s(&tracer_, "setup.warmup_job");
  JobOutcome warm = RunJob(/*probes=*/false);
  if (!warm.status.ok()) return "warm-up job: " + warm.status.ToString();
  golden_ = warm.outputs;
  if (w_.kind != Kind::kSuite) {
    for (const auto& st : warm.stats.stages) stage_names_.push_back(st.name);
  }
  return CheckFull(warm);
}

JobOutcome Bench::RunJob(bool probes) {
  JobOutcome job;
  ScopedSpan job_span(&tracer_, "job");
  auto timed = [&](const char* span, auto&& call) {
    ScopedSpan s(&tracer_, span);
    const Usage before = SampleUsage();
    Stopwatch sw;
    auto result = call();
    const double wall = sw.ElapsedSeconds();
    const Usage after = SampleUsage();
    job.wall_s += wall;
    job.user_s += after.user - before.user;
    job.sys_s += after.sys - before.sys;
    return std::make_pair(std::move(result), wall);
  };

  if (w_.kind == Kind::kBtThreads) {
    auto store = MakeStore();
    auto [run, wall] = timed("timr.RunPlan", [&] {
      return framework::RunPlan(&cluster_, plan_, &store);
    });
    job.status = run.status();
    if (!run.ok()) return job;
    job.outputs.push_back(std::move(run.ValueOrDie().output));
    job.stats = std::move(run.ValueOrDie().job_stats);
    job.stats_wall_s = wall;
    return job;
  }

  if (w_.kind == Kind::kSuite) {
    auto store = MakeStore();
    framework::SuiteOptions options;
    options.share_fragments = true;
    options.timr.skew.adaptive_repartition = true;
    auto [run, wall] = timed("bt.RunBtCqSuite", [&] {
      return bt::RunBtCqSuite(&cluster_, &store, w_.query, options);
    });
    job.status = run.status();
    if (!run.ok()) return job;
    framework::SuiteRunResult& r = run.ValueOrDie();
    job.outputs = std::move(r.outputs);
    job.query_names = std::move(r.query_names);
    job.stats = std::move(r.job_stats);
    job.stats_wall_s = wall;
    job.shared_fragments = r.shared.size();
    job.rows_executed_once = r.rows_executed_once;
    return job;
  }

  // bt_procs_resume: a run stopped by a simulated driver death, then a run
  // resuming from a fresh CheckpointStore on the same spill directory.
  const fs::path spill = SpillDir();
  std::error_code ec;
  fs::remove_all(spill, ec);
  framework::TimrOptions options;
  options.process.workers = kProcsWorkers;
  {
    auto store = MakeStore();
    framework::TimrOptions stop = options;
    stop.chaos_kill_after_stages = kKillAfterStages;
    auto [run, wall] = timed("timr.RunPlan.stopped", [&] {
      mr::CheckpointStore checkpoint(spill.string());
      stop.checkpoint = &checkpoint;
      return framework::RunPlan(&cluster_, plan_, &store, stop);
    });
    (void)wall;
    if (run.ok() || run.status().message().find("chaos kill") == std::string::npos) {
      job.status = run.ok() ? Status::Invalid("stopped run was not stopped")
                            : run.status();
      return job;
    }
  }
  if (probes) {
    ScopedSpan s(&tracer_, "probe.checkpoint");
    ProbeCheckpoint();
  }
  auto store = MakeStore();
  auto [run, wall] = timed("timr.RunPlan.resumed", [&] {
    mr::CheckpointStore checkpoint(spill.string());
    framework::TimrOptions resume = options;
    resume.checkpoint = &checkpoint;
    return framework::RunPlan(&cluster_, plan_, &store, resume);
  });
  job.status = run.status();
  if (!run.ok()) return job;
  job.outputs.push_back(std::move(run.ValueOrDie().output));
  job.stats = std::move(run.ValueOrDie().job_stats);
  job.stats_wall_s = wall;
  return job;
}

// WriteDatasetFile over the stopped run's checkpointed outputs, and a fresh
// CheckpointStore + Restore of them, both timed by their spans rather than
// read from the program's own counters. Thread-mode workloads keep no
// checkpoint, so there the probe first checkpoints the input log as one stage.
void Bench::ProbeCheckpoint() {
  const fs::path spill = SpillDir();
  std::vector<std::string> stage_names = stage_names_;
  size_t expected = kKillAfterStages;
  if (w_.kind != Kind::kBtProcsResume) {
    std::error_code ec;
    fs::remove_all(spill, ec);
    const mr::Dataset input = MakeStore().at(bt::kBtInput);
    stage_names = {"input"};
    expected = 1;
    const Status st = mr::CheckpointStore(spill.string())
                          .SaveStage(0, "input", {{bt::kBtInput, &input}}, {});
    if (!st.ok()) {
      probe_error_ = "checkpoint probe: " + st.ToString();
      return;
    }
  }
  checkpoint_bytes_ = static_cast<double>(DirBytes(spill));
  const fs::path rewrite = fs::path(args_.out_dir) / "rewrite";
  fs::create_directories(rewrite);
  for (const auto& e : fs::directory_iterator(spill)) {
    if (e.path().extension() != ".ds") continue;
    auto ds = mr::ReadDatasetFile(e.path().string());
    if (!ds.ok()) {
      probe_error_ = "checkpoint probe: " + ds.status().ToString();
      return;
    }
    Status st;
    {
      ScopedSpan s(&tracer_, "mr.WriteDatasetFile");
      st = mr::WriteDatasetFile((rewrite / e.path().filename()).string(),
                                ds.ValueOrDie());
    }
    if (!st.ok()) probe_error_ = "checkpoint probe: " + st.ToString();
  }
  std::error_code ec;
  fs::remove_all(rewrite, ec);

  auto store = MakeStore();
  Result<size_t> restored = Status::Invalid("not run");
  {
    ScopedSpan s(&tracer_, "mr.CheckpointStore.Restore");
    mr::CheckpointStore fresh(spill.string());
    restored = fresh.Restore(stage_names, &store);
  }
  if (!restored.ok() || restored.ValueOrDie() != expected) {
    probe_error_ = "checkpoint probe: restore " +
                   (restored.ok() ? std::to_string(restored.ValueOrDie())
                                  : restored.status().ToString());
  }
}

// The row codec and framing of process mode, replayed over every dataset in
// the checkpoint directory (bt_procs_resume: each stage output, plus the input
// log; thread-mode workloads: the input log ProbeCheckpoint put there): encode
// into one frame per partition, decode, compare.
void Bench::ProbeRpc() {
  std::vector<mr::Dataset> datasets;
  if (w_.kind == Kind::kBtProcsResume) datasets.push_back(MakeStore().at(bt::kBtInput));
  for (const auto& e : fs::directory_iterator(SpillDir())) {
    if (e.path().extension() != ".ds") continue;
    auto ds = mr::ReadDatasetFile(e.path().string());
    if (!ds.ok()) {
      probe_error_ = "rpc probe: " + ds.status().ToString();
      return;
    }
    datasets.push_back(std::move(ds.ValueOrDie()));
  }
  for (const mr::Dataset& ds : datasets) {
    for (size_t p = 0; p < ds.num_partitions(); ++p) {
      std::string frame;
      {
        ScopedSpan s(&tracer_, "rpc.encode");
        mr::rpc::WireWriter w;
        w.WriteSchema(ds.schema());
        w.Rows(ds.partition(p));
        mr::rpc::EncodeFrame(mr::rpc::MsgType::kReduceResponse, w.buf(), &frame);
      }
      rpc_bytes_ += static_cast<double>(frame.size());
      Schema schema;
      std::vector<Row> rows;
      Status st;
      {
        ScopedSpan s(&tracer_, "rpc.decode");
        mr::rpc::DecodeResult d = mr::rpc::DecodeFrame(frame);
        st = d.status;
        if (st.ok()) {
          mr::rpc::WireReader r(d.frame.payload);
          r.ReadSchema(&schema);
          r.Rows(&rows);
          st = r.Finish("replayed partition");
        }
      }
      if (!st.ok() || schema != ds.schema() || rows != ds.partition(p)) {
        probe_error_ = "rpc probe: round trip changed a partition";
      }
    }
  }
}

std::string Bench::CheckRepeat(const JobOutcome& job) const {
  if (job.outputs.size() != golden_.size()) return "repeat run: output count";
  for (size_t i = 0; i < golden_.size(); ++i) {
    std::string err = e2e::CheckIdentical(job.outputs[i], golden_[i]);
    if (!err.empty()) {
      return (job.query_names.empty() ? "" : job.query_names[i] + ": ") + err;
    }
  }
  const double staged = job.stats.TotalWallSeconds();
  if (staged > job.stats_wall_s) {
    return "stage wall " + std::to_string(staged) + " s exceeds job wall " +
           std::to_string(job.stats_wall_s) + " s";
  }
  return "";
}

std::string Bench::CheckFull(const JobOutcome& job) const {
  std::string err = CheckRepeat(job);
  if (!err.empty()) return err;
  if (w_.kind != Kind::kSuite) {
    const std::vector<Row> rows = e2e::Payloads(job.outputs[0]);
    for (std::string e : {e2e::CheckFeatureScoresEqual(rows, reference_),
                          e2e::CheckZRecomputed(rows),
                          e2e::CheckPlantedSigns(rows, log_.truth, kSignSupport,
                                                 kSignMinAbsZ, kSignMinChecked)}) {
      if (!e.empty()) return e;
    }
    if (w_.kind == Kind::kBtProcsResume) {
      return e2e::CheckStagesRestored(job.stats, kKillAfterStages);
    }
    return "";
  }

  std::map<std::string, const std::vector<T::Event>*> out;
  for (size_t i = 0; i < job.query_names.size(); ++i) {
    out[job.query_names[i]] = &job.outputs[i];
  }
  for (const char* q : {"feature_scores", "bt_standard", "bt_naive",
                        "bot_elimination", "clean_clicks", "clean_impressions",
                        "clean_keywords", "hourly_volume", "keyword_volume",
                        "bot_searchers", "bot_clickers", "bot_stream"}) {
    if (out.count(q) == 0) return std::string("suite: no output for ") + q;
  }
  auto col = [&](const char* q, const char* field) {
    return suite_schemas_.at(q).IndexOf(field).ValueOrDie();
  };
  for (const char* q : {"feature_scores", "bt_standard", "bt_naive"}) {
    const std::vector<Row> rows = e2e::Payloads(*out[q]);
    for (std::string e : {e2e::CheckFeatureScoresEqual(rows, reference_),
                          e2e::CheckZRecomputed(rows)}) {
      if (!e.empty()) return std::string(q) + ": " + e;
    }
  }
  const size_t clean = out["bot_elimination"]->size();
  const size_t clean_keywords = out["clean_keywords"]->size();
  for (std::string e :
       {e2e::CheckPartition(out["clean_clicks"]->size(),
                            out["clean_impressions"]->size(), clean_keywords, clean),
        e2e::CheckWindowedVolume(*out["hourly_volume"], col("hourly_volume", "Events"),
                                 T::kHour, clean),
        e2e::CheckWindowedVolume(*out["keyword_volume"],
                                 col("keyword_volume", "Searches"),
                                 w_.query.selection_period, clean_keywords),
        e2e::CheckBotDetector(log_.events, bt::kStreamKeyword,
                              w_.query.bot_search_threshold, w_.query.profile_window,
                              w_.query.bot_hop, *out["bot_searchers"],
                              col("bot_searchers", "UserId"),
                              col("bot_searchers", "cnt")),
        e2e::CheckBotDetector(log_.events, bt::kStreamClick,
                              w_.query.bot_click_threshold, w_.query.profile_window,
                              w_.query.bot_hop, *out["bot_clickers"],
                              col("bot_clickers", "UserId"), col("bot_clickers", "cnt")),
        e2e::CheckPlantedBots(*out["bot_stream"], col("bot_stream", "UserId"),
                              log_.truth.bot_users)}) {
    if (!e.empty()) return e;
  }
  return "";
}

std::map<std::string, std::pair<double, std::string>> Bench::LayerMetrics(
    const JobOutcome& traced) {
  std::map<std::string, std::pair<double, std::string>> m;
  double reduce = 0, task_cpu = 0, map = 0, sort = 0, rows_shuffled = 0;
  double stages = 0, part_ratio = 0, rows_ratio = 0, post_split = 0;
  double hot_keys = 0, virtual_parts = 0, restarts = 0, retries = 0, hb = 0;
  for (const mr::StageStats& s : traced.stats.stages) {
    if (s.recovered_from_checkpoint) continue;
    ++stages;
    reduce += s.reduce_seconds;
    task_cpu += s.task_cpu_seconds_total;
    map += s.map_shuffle_seconds;
    sort += s.sort_seconds;
    rows_shuffled += static_cast<double>(s.rows_shuffled);
    if (s.partition_seconds_median > 0) {
      part_ratio = std::max(part_ratio,
                            s.partition_seconds_max / s.partition_seconds_median);
    }
    if (s.partition_rows_median > 0) {
      rows_ratio = std::max(rows_ratio, static_cast<double>(s.partition_rows_max) /
                                            s.partition_rows_median);
    }
    post_split = std::max(post_split, s.post_split_rows_ratio);
    hot_keys += s.hot_keys_detected;
    virtual_parts += s.virtual_partitions;
    restarts += s.worker_restarts;
    retries += s.rpc_retries;
    hb += s.heartbeat_timeouts;
  }
  // Probes of single layers, outside the traced job.
  {
    std::map<std::string, std::vector<T::Event>> inputs{{bt::kBtInput, log_.events}};
    auto single_plan = bt::BtFeaturePipeline(w_.query, bt::Annotation::kNone).node();
    Result<std::vector<T::Event>> single = Status::Invalid("not run");
    {
      ScopedSpan s(&tracer_, "temporal.Executor.Execute");
      single = T::Executor::Execute(single_plan, std::move(inputs));
    }
    if (!single.ok()) {
      probe_error_ = "single node: " + single.status().ToString();
    } else {
      const std::string e =
          e2e::CheckFeatureScoresEqual(e2e::Payloads(single.ValueOrDie()), reference_);
      if (!e.empty()) probe_error_ = "single node: " + e;
    }
  }
  std::vector<std::pair<std::string, T::PlanNodePtr>> plans = suite_;
  if (plans.empty()) plans.emplace_back("bt_standard", plan_);
  for (const auto& [name, node] : plans) {
    ScopedSpan s(&tracer_, "analysis.AnalyzePlan");
    if (analysis::AnalyzePlan(node).HasErrors()) {
      probe_error_ = "analysis: " + name + " has errors";
    }
  }
  {
    // Over the 20 CQs on every workload; only suite_skewed runs the result.
    const auto cqs = suite_.empty() ? bt::BtCqSuite(w_.query) : suite_;
    size_t selected = 0;
    {
      ScopedSpan s(&tracer_, "analysis.SelectSharedFragments");
      selected = analysis::SelectSharedFragments(cqs).size();
    }
    if (!suite_.empty() && selected != traced.shared_fragments) {
      probe_error_ = "analysis: selection differs from the suite's shared fragments";
    }
  }
  if (w_.kind != Kind::kBtProcsResume) {
    ScopedSpan s(&tracer_, "probe.checkpoint");
    ProbeCheckpoint();
  }
  {
    ScopedSpan s(&tracer_, "probe.rpc");
    ProbeRpc();
  }

  auto span_s = [this](const char* name) {
    return std::make_pair(tracer_.Seconds(name), std::string("s"));
  };
  m["workload.generate_s"] = span_s("workload.GenerateBtLog");
  m["engine.reduce_s"] = {reduce, "s"};
  m["engine.task_cpu_s"] = {task_cpu, "s"};
  m["engine.single_node_s"] = span_s("temporal.Executor.Execute");
  m["mr.map_s"] = {map, "s"};
  m["mr.sort_s"] = {sort, "s"};
  m["mr.rows_shuffled"] = {rows_shuffled, "count"};
  m["mr.stages"] = {stages, "count"};
  m["mr.outside_stages_s"] = {traced.stats_wall_s - traced.stats.TotalWallSeconds(),
                              "s"};
  m["mr.partition_s_ratio_max"] = {part_ratio, "ratio"};
  m["skew.rows_ratio_max"] = {rows_ratio, "ratio"};
  m["skew.post_split_rows_ratio_max"] = {post_split, "ratio"};
  m["skew.hot_keys"] = {hot_keys, "count"};
  m["skew.virtual_partitions"] = {virtual_parts, "count"};
  m["analysis.analyze_s"] = span_s("analysis.AnalyzePlan");
  m["analysis.share_select_s"] = span_s("analysis.SelectSharedFragments");
  m["suite.shared_fragments"] = {static_cast<double>(traced.shared_fragments),
                                 "count"};
  m["suite.rows_executed_once"] = {static_cast<double>(traced.rows_executed_once),
                                   "count"};
  m["procs.user_cpu_s"] = {traced.user_s, "s"};
  m["procs.sys_cpu_s"] = {traced.sys_s, "s"};
  m["procs.worker_peak_rss_mb"] = {SampleUsage().child_maxrss_mb, "MB"};
  m["procs.worker_restarts"] = {restarts, "count"};
  m["procs.rpc_retries"] = {retries, "count"};
  m["procs.heartbeat_timeouts"] = {hb, "count"};
  m["rpc.bytes"] = {rpc_bytes_, "bytes"};
  m["rpc.encode_s"] = span_s("rpc.encode");
  m["rpc.decode_s"] = span_s("rpc.decode");
  m["checkpoint.bytes"] = {checkpoint_bytes_, "bytes"};
  m["checkpoint.write_s"] = span_s("mr.WriteDatasetFile");
  m["checkpoint.restore_s"] = span_s("mr.CheckpointStore.Restore");
  double restored = 0;
  for (const auto& s : traced.stats.stages) restored += s.recovered_from_checkpoint;
  m["checkpoint.stages_restored"] = {restored, "count"};
  return m;
}

void Bench::PrintStageWalls(const std::vector<mr::JobStats>& runs) const {
  if (runs.empty()) return;
  for (size_t i = 0; i < runs[0].stages.size(); ++i) {
    std::vector<double> walls;
    for (const auto& r : runs) {
      if (i < r.stages.size() && !r.stages[i].recovered_from_checkpoint) {
        walls.push_back(r.stages[i].wall_seconds);
      }
    }
    if (!walls.empty()) {
      std::fprintf(stderr, "stage_wall %s %.4f\n", runs[0].stages[i].name.c_str(),
                   Median(walls));
    }
  }
}

void PrintResult(bool correct, int attempted, int failed,
                 const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", vu.first);
    s += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + buf +
         ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") return e2e::RunSelfTest();
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) || !MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr,
                 "usage: timr_e2e --workload bt_week|suite_skewed|bt_procs_resume "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  if (w.kind == Kind::kBtProcsResume && !mr::ProcessModeSupported()) {
    std::fprintf(stderr, "process mode is not supported in this build\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);

  Bench bench(args, w);
  std::string error = bench.Setup();
  const double setup_s = SinceStart();
  if (!error.empty()) {
    std::fprintf(stderr, "set-up check failed: %s\n", error.c_str());
    PrintResult(false, 1, 0, {});
    return 1;
  }
  // The timed jobs run untraced; the tracer switches on for the traced job.
  const bool trace = bench.tracer()->enabled();
  bench.tracer()->set_enabled(false);

  std::vector<double> walls, cpus;
  std::vector<mr::JobStats> stats;
  int attempted = 0, failed = 0;
  double peak_rss_mb = 0;
  Stopwatch run;
  while (attempted < kRssJobs || run.ElapsedSeconds() < args.seconds) {
    JobOutcome job = bench.RunJob(/*probes=*/false);
    ++attempted;
    if (attempted == kRssJobs) peak_rss_mb = SampleUsage().self_maxrss_mb;
    if (!job.status.ok()) {
      ++failed;
      std::fprintf(stderr, "job %d failed: %s\n", attempted,
                   job.status.ToString().c_str());
      continue;
    }
    const std::string e = bench.CheckRepeat(job);
    if (!e.empty() && error.empty()) error = e;
    walls.push_back(job.wall_s);
    cpus.push_back(job.user_s + job.sys_s);
    stats.push_back(std::move(job.stats));
  }
  const double job_s = Median(walls);
  if (!walls.empty()) {
    const auto [lo, hi] = std::minmax_element(walls.begin(), walls.end());
    std::fprintf(stderr,
                 "jobs %d (failed %d), job_s min %.4f median %.4f max %.4f, "
                 "setup_s %.4f\n",
                 attempted, failed, *lo, job_s, *hi, setup_s);
  }
  bench.PrintStageWalls(stats);

  std::map<std::string, std::pair<double, std::string>> metrics;
  if (!trace) {
    metrics["setup_s"] = {setup_s, "s"};
    metrics["job_s"] = {job_s, "s"};
    metrics["job_cpu_s"] = {Median(cpus), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
  } else {
    bench.tracer()->set_enabled(true);
    JobOutcome traced = bench.RunJob(/*probes=*/true);
    ++attempted;
    if (!traced.status.ok()) {
      ++failed;
      std::fprintf(stderr, "traced job failed: %s\n", traced.status.ToString().c_str());
    } else {
      const std::string e = bench.CheckFull(traced);
      if (!e.empty() && error.empty()) error = "traced job: " + e;
      metrics = bench.LayerMetrics(traced);
      if (!bench.probe_error().empty() && error.empty()) error = bench.probe_error();
      metrics["trace.job_s"] = {traced.wall_s, "s"};
      std::fprintf(stderr, "traced job %.4f s vs untraced median %.4f s (%+.2f%%)\n",
                   traced.wall_s, job_s, 100.0 * (traced.wall_s / job_s - 1.0));
    }
    const fs::path path = fs::path(args.out_dir) /
                          ("trace-" + args.workload + "-" + std::to_string(args.seed) +
                           ".json");
    if (!bench.tracer()->WriteChromeJson(path.string())) {
      std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    }
  }
  fs::remove_all(bench.SpillDir(), ec);
  if (!error.empty()) std::fprintf(stderr, "check failed: %s\n", error.c_str());
  PrintResult(error.empty(), attempted, failed, metrics);
  return 0;
}
