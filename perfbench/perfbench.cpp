// End-to-end benchmark of CORAL's production path (see README.md).
//
//   coral_perfbench --gen DIR --seed N [--scale full|small]
//       Load generator: simulate the scenario for `seed`, write the v3 log
//       pair into DIR and the reference outputs (computed from the in-memory
//       logs) into DIR/ref.txt.
//
//   coral_perfbench --data DIR [--data DIR ...] --workload W --seconds S
//                   --trace 0|1 [--corrupt-ref]
//       Run one workload against the generated scenarios in the DIRs and
//       print one JSON result line: the end-to-end metrics (--trace 0) or
//       the per-layer table (--trace 1).
//
// The benchmark calls only the library's public entry points and times every
// call into a layer from here; nothing inside the library is instrumented
// beyond what ReadOptions::sink already reports.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "coral/common/parallel.hpp"
#include "coral/context.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/fleet/client.hpp"
#include "coral/fleet/daemon.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/obs/obs.hpp"
#include "coral/predict/miner.hpp"
#include "coral/predict/predictor.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/stream/session.hpp"
#include "coral/synth/intrepid.hpp"
#include "coral/synth/scenario.hpp"

namespace {

using namespace coral;
using Clock = std::chrono::steady_clock;

// --- Measurement primitives -------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Whole-process CPU time: every thread, so ThreadPool workers and the
/// in-process daemon's threads are counted.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Resident-set high-water mark (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Reset VmHWM to the current RSS, so the timed phase's peak excludes set-up.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

/// Host CPU jiffies from /proc/stat: {steal, total}. On a shared VM host,
/// stolen time explains runs that are slow in wall time but not in CPU time.
std::pair<double, double> host_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The largest sample with at least ten samples above it: the highest
/// percentile a run can state with ten samples beyond it. Needs 11 samples.
struct Tail {
  double value = 0;
  double percentile = 0;
};
Tail tail(std::vector<double> v) {
  if (v.size() < 11) throw std::runtime_error("latency tail needs at least 11 ops");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

/// Per-layer samples of the traced run; thread-safe (fleet clients share it).
class Tracer {
 public:
  void add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(value);
  }
  bool has(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.count(name) != 0;
  }
  std::optional<double> median_of(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = samples_.find(name);
    if (it == samples_.end()) return std::nullopt;
    return median(it->second);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Traced wall time of this thread's layer calls since the op began: the
/// op's wall time minus this is what the layer table does not account for.
thread_local double tls_layer_ms = 0;

/// Wall time and process CPU of one call into a layer, recorded as
/// `<layer>.wall_ms` / `<layer>.cpu_ms` when tracing. `wall_ms` (optional)
/// receives the wall time in either mode, for the end-to-end metrics.
template <class F>
auto timed(Tracer* tr, const std::string& layer, F&& f, double* wall_ms = nullptr)
    -> decltype(f()) {
  const double c0 = tr != nullptr ? process_cpu_ms() : 0.0;
  const auto t0 = Clock::now();
  auto result = f();
  const double wall = ms_between(t0, Clock::now());
  if (wall_ms != nullptr) *wall_ms = wall;
  if (tr != nullptr) {
    tr->add(layer + ".wall_ms", wall);
    tr->add(layer + ".cpu_ms", process_cpu_ms() - c0);
    tls_layer_ms += wall;
  }
  return result;
}

// --- Metric catalogue (mirrors BENCHMARK.json) -------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"}, {"throughput_ops_s", "1/s"},
    {"cpu_ms_per_op", "ms"},  {"peak_rss_mb", "MB"},     {"ingest_mb_s", "MB/s"},
    {"finalize_p50_ms", "ms"}, {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"ras.read.wall_ms", "ms"},
    {"ras.read.cpu_ms", "ms"},
    {"ras.read.records", "count"},
    {"ras.read.blocks_decoded", "count"},
    {"ras.read.useful_ratio", "ratio"},
    {"joblog.read.wall_ms", "ms"},
    {"joblog.read.cpu_ms", "ms"},
    {"core.coanalysis.wall_ms", "ms"},
    {"core.coanalysis.cpu_ms", "ms"},
    {"filter.wall_ms", "ms"},
    {"filter.cpu_ms", "ms"},
    {"filter.groups_out", "count"},
    {"core.match.wall_ms", "ms"},
    {"core.match.cpu_ms", "ms"},
    {"core.match.interruptions", "count"},
    {"core.characterize.wall_ms", "ms"},
    {"core.characterize.cpu_ms", "ms"},
    {"core.engine_overhead_ms", "ms"},
    {"predict.mine.wall_ms", "ms"},
    {"predict.mine.cpu_ms", "ms"},
    {"predict.rules", "count"},
    {"predict.replay.wall_ms", "ms"},
    {"predict.replay.cpu_ms", "ms"},
    {"predict.replay.ns_per_record", "ns"},
    {"predict.predictions", "count"},
    {"fleet.feed.wall_ms", "ms"},
    {"fleet.feed.cpu_ms", "ms"},
    {"fleet.finalize.wall_ms", "ms"},
    {"fleet.finalize.cpu_ms", "ms"},
    {"stream.session.feed_pump.wall_ms", "ms"},
    {"stream.session.feed_pump.cpu_ms", "ms"},
    {"stream.session.finalize.wall_ms", "ms"},
    {"stream.session.finalize.cpu_ms", "ms"},
    {"fleet.wire_overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.unaccounted_ms", "ms"},
};

// --- Inputs and reference outputs --------------------------------------------

/// The paper's Table IV sweep of temporal = spatial thresholds, in seconds.
const std::vector<int> kSweepSeconds = {30, 60, 120, 300, 600, 1800, 3600};

constexpr const char* kRasV3 = "ras.v3";
constexpr const char* kJobsV3 = "jobs.v3";
constexpr const char* kRef = "ref.txt";

/// Reference outputs, keyed by name (see generate()).
using Refs = std::map<std::string, std::uint64_t>;

/// One generated scenario: its stored files and reference outputs.
struct Scenario {
  std::string dir;
  Refs refs;

  std::string path(const char* file) const { return dir + "/" + file; }
  std::uint64_t ref(const std::string& key) const {
    const auto it = refs.find(key);
    if (it == refs.end()) throw std::runtime_error("reference '" + key + "' missing in " + dir);
    return it->second;
  }
  /// Size of the stored v3 pair, in MB.
  double v3_mb() const {
    return static_cast<double>(std::filesystem::file_size(path(kRasV3)) +
                               std::filesystem::file_size(path(kJobsV3))) /
           1e6;
  }
};

Scenario load_scenario(const std::string& dir) {
  Scenario sc{dir, {}};
  std::ifstream in(sc.path(kRef));
  if (!in) throw std::runtime_error("missing " + sc.path(kRef));
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) sc.refs[key] = value;
  return sc;
}

/// The bytes a fleet client sends for a stored pair: the v3 files decoded
/// and re-encoded in v2, the format the wire carries. Load-generator work,
/// outside every timed figure.
std::pair<std::string, std::string> v2_bytes(const std::string& dir) {
  const ras::RasLog ras = ras::read_binary_file(dir + "/" + kRasV3);
  std::ifstream jobs_in(dir + "/" + kJobsV3, std::ios::binary);
  const joblog::JobLog jobs = joblog::read_binary(jobs_in, joblog::ReadOptions{});
  std::ostringstream ras_out, jobs_out;
  ras::write_binary(ras_out, ras);
  joblog::write_binary(jobs_out, jobs);
  return {std::move(ras_out).str(), std::move(jobs_out).str()};
}

core::CoAnalysisConfig sweep_config(int seconds) {
  core::CoAnalysisConfig config;
  config.filters.temporal.threshold = seconds * kUsecPerSec;
  config.filters.spatial.threshold = seconds * kUsecPerSec;
  return config;
}

std::size_t pool_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

template <class Write>
void write_file(const std::string& path, Write&& write) {
  std::ofstream out(path, std::ios::binary);
  write(out);
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Load-generator work, outside every timed figure: simulate the scenario,
/// store the v3 log pair, and compute the reference outputs from the
/// in-memory logs (the fleet references from an offline read of the v2 bytes
/// the clients will send).
void generate(const std::string& dir, std::uint64_t seed, bool small) {
  const synth::SynthResult data =
      synth::generate(small ? synth::small_scenario(seed) : synth::intrepid_scenario(seed));
  par::ThreadPool pool(pool_threads());
  write_file(dir + "/" + kRasV3, [&](std::ostream& out) {
    ras::write_binary(out, data.ras, ras::WriteOptions{.pool = &pool});
  });
  write_file(dir + "/" + kJobsV3,
             [&](std::ostream& out) { joblog::write_binary(out, data.jobs, {}); });

  Context ctx;
  ctx.with_pool(&pool);
  Refs refs;
  const core::CoAnalysisResult result = core::run_coanalysis(data.ras, data.jobs, {}, ctx);
  const predict::RuleTable rules = predict::mine_rules(result, data.jobs, {}, ctx);
  refs["archive.result_fp"] = fleet::result_fingerprint(result);
  refs["archive.rules"] = rules.size();
  refs["archive.predictions"] = predict::replay(rules, data.ras).size();
  for (const int s : kSweepSeconds) {
    const core::CoAnalysisConfig config = sweep_config(s);
    const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs, config, ctx);
    refs["sweep." + std::to_string(s) + ".result_fp"] = fleet::result_fingerprint(r);
    refs["sweep." + std::to_string(s) + ".rules"] =
        predict::mine_rules(r, data.jobs, {}, ctx).size();
  }
  const auto [ras_v2, jobs_v2] = v2_bytes(dir);
  std::istringstream ras_in(ras_v2), jobs_in(jobs_v2);
  const ras::RasLog ras2 = ras::read_binary(ras_in);
  const joblog::JobLog jobs2 = joblog::read_binary(jobs_in, joblog::ReadOptions{});
  refs["fleet.result_fp"] = fleet::result_fingerprint(core::run_coanalysis(ras2, jobs2, {}, ctx));
  refs["fleet.log_fp"] = fleet::log_fingerprint(ras2, jobs2);

  write_file(dir + "/" + kRef, [&](std::ostream& out) {
    for (const auto& [key, value] : refs) out << key << ' ' << value << '\n';
  });
}

// --- Layer calls ---------------------------------------------------------------

struct LogPair {
  ras::RasLog ras;
  joblog::JobLog jobs;
};

/// mmap-read both v3 logs (the RAS decode fanned over `pool`).
LogPair read_pair(const Scenario& sc, par::ThreadPool& pool, Tracer* tr,
                  double* ingest_ms = nullptr) {
  obs::Collector counters;
  ras::ReadOptions ro;
  ro.pool = &pool;
  if (tr != nullptr) ro.sink = &counters;
  double ras_ms = 0, jobs_ms = 0;
  LogPair pair;
  pair.ras = timed(
      tr, "ras.read",
      [&] { return ras::read_binary_file(sc.path(kRasV3), ras::default_catalog(), ro); },
      &ras_ms);
  pair.jobs = timed(
      tr, "joblog.read",
      [&] {
        std::ifstream in(sc.path(kJobsV3), std::ios::binary);
        return joblog::read_binary(in, joblog::ReadOptions{});
      },
      &jobs_ms);
  if (ingest_ms != nullptr) *ingest_ms = ras_ms + jobs_ms;
  if (tr != nullptr) {
    const double records = static_cast<double>(pair.ras.size());
    tr->add("ras.read.records", records);
    tr->add("ras.read.blocks_decoded",
            static_cast<double>(
                counters.snapshot().counter_value("ingest.ras_binary.blocks_decoded")));
    tr->add("ras.read.useful_ratio",
            static_cast<double>(pair.ras.fatal_columns().size()) / records);
  }
  return pair;
}

/// The co-analysis again through the batch engine's public stage functions —
/// filter, match, then characterization — so each is timed on its own. Runs
/// outside the timed op; returns the result fingerprint for the output check.
std::uint64_t decompose(const LogPair& logs, const core::CoAnalysisConfig& config,
                        const Context& ctx, Tracer& tr, double coanalysis_ms) {
  filter::FilterPipelineConfig fc = config.filters;
  fc.causality.pool = ctx.pool();
  double filter_ms = 0, match_ms = 0, char_ms = 0;
  filter::FilterPipelineResult filtered =
      timed(&tr, "filter", [&] { return filter::run_filter_pipeline(logs.ras, fc); }, &filter_ms);
  core::MatchConfig mc = config.matching;
  mc.pool = ctx.pool();
  core::MatchResult matches = timed(
      &tr, "core.match", [&] { return core::match_interruptions(filtered, logs.jobs, mc); },
      &match_ms);
  tr.add("filter.groups_out", static_cast<double>(filtered.groups.size()));
  tr.add("core.match.interruptions", static_cast<double>(matches.interruptions.size()));
  const core::CoAnalysisResult result = timed(
      &tr, "core.characterize",
      [&] {
        return core::complete_coanalysis(std::move(filtered), std::move(matches), logs.jobs,
                                         config, ctx);
      },
      &char_ms);
  tr.add("core.engine_overhead_ms", coanalysis_ms - filter_ms - match_ms - char_ms);
  return fleet::result_fingerprint(result);
}

predict::RuleTable mine(const core::CoAnalysisResult& result, const joblog::JobLog& jobs,
                        const Context& ctx, Tracer* tr) {
  predict::RuleTable rules =
      timed(tr, "predict.mine", [&] { return predict::mine_rules(result, jobs, {}, ctx); });
  if (tr != nullptr) tr->add("predict.rules", static_cast<double>(rules.size()));
  return rules;
}

std::size_t replay(const predict::RuleTable& rules, const ras::RasLog& ras, Tracer* tr) {
  double ms = 0;
  const std::size_t n =
      timed(tr, "predict.replay", [&] { return predict::replay(rules, ras).size(); }, &ms);
  if (tr != nullptr) {
    tr->add("predict.replay.ns_per_record", ms * 1e6 / static_cast<double>(ras.size()));
    tr->add("predict.predictions", static_cast<double>(n));
  }
  return n;
}

// --- Fleet ingest --------------------------------------------------------------

constexpr std::size_t kChunkBytes = std::size_t{256} << 10;  // WireClient default

/// What a fleet client sends for one scenario, and what the reply must say.
struct FleetInputs {
  std::string ras_v2, jobs_v2;
  std::uint64_t result_fp = 0, log_fp = 0;
};

FleetInputs fleet_inputs(const Scenario& sc) {
  auto [ras_v2, jobs_v2] = v2_bytes(sc.dir);
  return {std::move(ras_v2), std::move(jobs_v2), sc.ref("fleet.result_fp"),
          sc.ref("fleet.log_fp")};
}

struct FleetOp {
  double latency_ms = 0, ingest_ms = 0, finalize_ms = 0;
  bool ok = false;
};

/// One tenant's life over the wire: handshake, stream both logs, flush,
/// finalize, and check the reply's fingerprints.
FleetOp fleet_tenant(int port, const std::string& tenant, const FleetInputs& in, Tracer* tr) {
  FleetOp op;
  const auto t0 = Clock::now();
  fleet::WireClient client("127.0.0.1", port);
  client.handshake(fleet::Handshake{.tenant = tenant, .machine = "bgp"});
  timed(
      tr, "fleet.feed",
      [&] {
        client.send_data(stream::Source::Ras, in.ras_v2, kChunkBytes);
        client.send_data(stream::Source::Jobs, in.jobs_v2, kChunkBytes);
        return client.flush();
      },
      &op.ingest_ms);
  const fleet::ReplyFields reply =
      timed(tr, "fleet.finalize", [&] { return client.finalize(); }, &op.finalize_ms);
  client.close();
  op.latency_ms = ms_between(t0, Clock::now());
  const auto fp = [&](const char* key) -> std::optional<std::uint64_t> {
    const auto it = reply.find(key);
    if (it == reply.end()) return std::nullopt;
    return std::strtoull(it->second.c_str(), nullptr, 16);
  };
  op.ok = fp("result_fp") == in.result_fp && fp("log_fp") == in.log_fp;
  return op;
}

/// The same chunk sequence fed straight into a stream::Session configured as
/// the daemon configures its tenants (shared pool, serialized finalize), so
/// fleet.feed - stream.session.feed_pump is the wire layer's share.
bool session_direct(const std::string& tenant, const FleetInputs& in,
                    const predict::RuleTable& rules, par::ThreadPool& pool,
                    std::mutex& finalize_mu, Tracer& tr, double* feed_pump_ms) {
  obs::Collector collector;
  collector.set_span_capacity(fleet::DaemonConfig{}.span_capacity);
  stream::SessionConfig sc;
  sc.rules = &rules;
  Context ctx;
  ctx.with_obs(&collector).with_pool(&pool);
  stream::Session session(tenant, sc, ctx);
  timed(
      &tr, "stream.session.feed_pump",
      [&] {
        for (const auto& [src, bytes] : {std::pair{stream::Source::Ras, &in.ras_v2},
                                         std::pair{stream::Source::Jobs, &in.jobs_v2}}) {
          for (std::size_t at = 0; at < bytes->size(); at += kChunkBytes) {
            const std::string_view chunk = std::string_view(*bytes).substr(at, kChunkBytes);
            while (session.feed(src, chunk) == stream::Admission::Rejected) session.pump();
            session.pump();
          }
        }
        session.flush();
        return 0;
      },
      feed_pump_ms);
  const stream::SessionResult result = timed(&tr, "stream.session.finalize", [&] {
    std::lock_guard<std::mutex> lock(finalize_mu);
    return session.finalize();
  });
  return fleet::result_fingerprint(result.analysis) == in.result_fp &&
         fleet::log_fingerprint(result.ras, result.jobs) == in.log_fp;
}

// --- Workloads -----------------------------------------------------------------

struct Options {
  std::string workload;
  /// One directory per generated scenario; ops rotate over them.
  std::vector<std::string> data;
  double seconds = 10;
  bool trace = false;
  bool corrupt_ref = false;
};

/// What one run measured.
struct RunResult {
  std::vector<double> latencies_ms;  ///< one per attempted op
  std::vector<double> traced_ms, untraced_ms;  ///< traced run: op times by mode
  std::vector<double> ingest_mb_s, finalize_ms, setup_s;
  std::size_t attempted = 0, failed = 0;
  bool setup_ok = true;
  double elapsed_s = 0, cpu_ms = 0, peak_rss_mb = 0;
  double host_steal_pct = 0;  ///< diagnostics only
};

/// Ops every run completes however short --seconds is: latency_tail_ms
/// needs ten samples beyond it.
constexpr std::size_t kMinOps = 11;

/// Timed-phase bookkeeping shared by every workload.
class Phase {
 public:
  explicit Phase(double seconds, std::size_t min_ops = kMinOps)
      : seconds_(seconds), min_ops_(min_ops) {}
  void start() {
    reset_peak_rss();
    steal0_ = host_steal_jiffies();
    cpu0_ = process_cpu_ms();
    t0_ = Clock::now();
  }
  double elapsed_s() const { return ms_between(t0_, Clock::now()) / 1e3; }
  /// Closed loop: start another op while time remains or too few ran.
  bool more(std::size_t ops_done) const { return elapsed_s() < seconds_ || ops_done < min_ops_; }
  void stop(RunResult& r) const {
    r.elapsed_s = elapsed_s();
    r.cpu_ms = process_cpu_ms() - cpu0_;
    r.peak_rss_mb = peak_rss_mb();
    const auto [steal, total] = host_steal_jiffies();
    if (total > steal0_.second) {
      r.host_steal_pct = 100.0 * (steal - steal0_.first) / (total - steal0_.second);
    }
  }

 private:
  double seconds_;
  std::size_t min_ops_;
  std::pair<double, double> steal0_;
  Clock::time_point t0_;
  double cpu0_ = 0;
};

/// Starts a traced op's layer accounting; see tls_layer_ms.
void begin_op() { tls_layer_ms = 0; }

/// Files the share of a traced op's wall time no layer call covered.
void end_op(Tracer* tr, double op_ms) {
  if (tr != nullptr) tr->add("trace.unaccounted_ms", op_ms - tls_layer_ms);
}

/// Runs one op in each mode the run needs — untraced, then (traced run only)
/// traced on the same inputs — and records its wall time and check. `op`
/// returns the op's wall time and sets `ok`; a throw fails the op.
template <class Op>
void run_passes(RunResult& r, Tracer* tr, const char* what, Op&& op) {
  for (int pass = 0; pass < (tr != nullptr ? 2 : 1); ++pass) {
    Tracer* t = pass == 1 ? tr : nullptr;
    bool ok = false;
    const auto t0 = Clock::now();
    double ms = 0;
    try {
      ms = op(t, ok);
    } catch (const std::exception& e) {
      ms = ms_between(t0, Clock::now());
      ok = false;
      std::fprintf(stderr, "%s op failed: %s\n", what, e.what());
    }
    r.attempted += 1;
    r.failed += ok ? 0 : 1;
    r.latencies_ms.push_back(ms);
    if (tr != nullptr) (t != nullptr ? r.traced_ms : r.untraced_ms).push_back(ms);
  }
}

/// Set-ups per half run. A run sets up this many times before its timed
/// phase and again after it, and setup_s is the median of them all, so it
/// spans the run's host conditions rather than its first second.
constexpr std::size_t kSetupReps = 3;

double seconds_since(Clock::time_point t0) { return ms_between(t0, Clock::now()) / 1e3; }

/// archive_analyze: each op is a full production pass over one stored pair.
/// Set-up is the pool start plus one cold op.
RunResult run_archive(const Options& opt, const std::vector<Scenario>& scenarios, Tracer* tr) {
  RunResult r;
  // Returns the op's wall time; the output check lands in `ok`.
  const auto op = [&](const Scenario& sc, par::ThreadPool& pool, Tracer* t, bool& ok) {
    begin_op();
    const auto t0 = Clock::now();
    double ingest_ms = 0, coanalysis_ms = 0;
    const LogPair logs = read_pair(sc, pool, t, &ingest_ms);
    Context ctx;
    ctx.with_pool(&pool);
    const core::CoAnalysisResult result = timed(
        t, "core.coanalysis", [&] { return core::run_coanalysis(logs.ras, logs.jobs, {}, ctx); },
        &coanalysis_ms);
    const predict::RuleTable rules = mine(result, logs.jobs, ctx, t);
    const std::size_t predictions = replay(rules, logs.ras, t);
    const double ms = ms_between(t0, Clock::now());
    end_op(t, ms);
    const std::uint64_t fp = fleet::result_fingerprint(result);
    ok = fp == sc.ref("archive.result_fp") && rules.size() == sc.ref("archive.rules") &&
         predictions == sc.ref("archive.predictions");
    if (t != nullptr) ok = decompose(logs, {}, ctx, *t, coanalysis_ms) == fp && ok;
    r.ingest_mb_s.push_back(sc.v3_mb() / (ingest_ms / 1e3));
    r.finalize_ms.push_back(coanalysis_ms);
    return ms;
  };

  std::optional<par::ThreadPool> pool;
  const auto set_up = [&](std::size_t i) {
    const auto t0 = Clock::now();
    pool.reset();
    pool.emplace(pool_threads());
    bool ok = false;
    op(scenarios[i % scenarios.size()], *pool, nullptr, ok);
    r.setup_s.push_back(seconds_since(t0));
    r.setup_ok = r.setup_ok && ok;
    r.ingest_mb_s.pop_back();  // a set-up's op is not a timed op
    r.finalize_ms.pop_back();
  };
  for (std::size_t i = 0; i < kSetupReps; ++i) set_up(i);

  Phase phase(opt.seconds);
  phase.start();
  for (std::size_t i = 0; phase.more(r.attempted); ++i) {
    const Scenario& sc = scenarios[i % scenarios.size()];
    run_passes(r, tr, "archive", [&](Tracer* t, bool& ok) { return op(sc, *pool, t, ok); });
  }
  phase.stop(r);
  for (std::size_t i = 0; i < kSetupReps; ++i) set_up(kSetupReps + i);
  return r;
}

/// threshold_sweep: the pairs are decoded once in set-up, on the pool; each op
/// re-runs the co-analysis and the miner over every pair at the next Table IV
/// threshold. Whole rotations only, so every threshold weighs the same in the
/// medians. The ops run serially, as bench/ablation_thresholds does: on these
/// logs the pool does not speed them up, and its fork-joins make them wait on
/// the slowest vCPU of a shared host (README.md, hot spot 4).
RunResult run_sweep(const Options& opt, const std::vector<Scenario>& scenarios, Tracer* tr) {
  RunResult r;
  std::optional<par::ThreadPool> pool;
  std::vector<LogPair> logs(scenarios.size());
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    pool.reset();
    pool.emplace(pool_threads());
    double mb = 0, ingest_ms = 0;
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
      // The traced run files set-up reads under the read layer: the only
      // place this workload decodes.
      double ms = 0;
      logs[k] = read_pair(scenarios[k], *pool, tr, &ms);
      mb += scenarios[k].v3_mb();
      ingest_ms += ms;
    }
    r.setup_s.push_back(seconds_since(t0));
    r.ingest_mb_s.push_back(mb / (ingest_ms / 1e3));
  };
  for (std::size_t i = 0; i < kSetupReps; ++i) set_up();
  const Context ctx;

  const auto op = [&](int s, Tracer* t, bool& ok) {
    const core::CoAnalysisConfig config = sweep_config(s);
    const std::string key = "sweep." + std::to_string(s);
    std::vector<core::CoAnalysisResult> results;
    std::vector<std::size_t> rules;
    std::vector<double> coanalysis_ms(logs.size());
    begin_op();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < logs.size(); ++k) {
      results.push_back(timed(
          t, "core.coanalysis",
          [&] { return core::run_coanalysis(logs[k].ras, logs[k].jobs, config, ctx); },
          &coanalysis_ms[k]));
      rules.push_back(mine(results[k], logs[k].jobs, ctx, t).size());
    }
    const double ms = ms_between(t0, Clock::now());
    end_op(t, ms);
    ok = true;
    for (std::size_t k = 0; k < logs.size(); ++k) {
      const std::uint64_t fp = fleet::result_fingerprint(results[k]);
      ok = ok && fp == scenarios[k].ref(key + ".result_fp") &&
           rules[k] == scenarios[k].ref(key + ".rules");
      if (t != nullptr) ok = decompose(logs[k], config, ctx, *t, coanalysis_ms[k]) == fp && ok;
      r.finalize_ms.push_back(coanalysis_ms[k]);
    }
    return ms;
  };

  Phase phase(opt.seconds);
  phase.start();
  while (phase.more(r.attempted)) {
    for (const int s : kSweepSeconds) {
      run_passes(r, tr, "sweep", [&](Tracer* t, bool& ok) { return op(s, t, ok); });
    }
  }
  phase.stop(r);
  for (std::size_t i = 0; i < kSetupReps; ++i) set_up();
  return r;
}

constexpr int kFleetClients = 2;
constexpr std::size_t kDaemonPoolThreads = 2;
/// fleet_ingest reads peak_rss_mb when this many tenants have finished, not
/// at the end of the run: finalized tenants stay resident, so a peak taken
/// at the end would grow with throughput.
constexpr std::size_t kRssTenants = 24;

fleet::DaemonConfig daemon_config(const predict::RuleTable& rules) {
  fleet::DaemonConfig config;
  config.metrics_port = -1;
  config.pool_threads = kDaemonPoolThreads;
  config.rules = &rules;
  return config;
}

/// fleet_ingest: an in-process daemon on loopback; two closed-loop clients,
/// each running one fresh tenant per op. Set-up reads a stored pair, mines
/// the rule table the daemon predicts with, and starts the daemon. The read
/// and mining are repeated; the daemon starts once, and its start time is
/// added to each repetition.
RunResult run_fleet(const Options& opt, const std::vector<Scenario>& scenarios, Tracer* tr) {
  RunResult r;
  std::vector<FleetInputs> inputs;
  for (const Scenario& sc : scenarios) inputs.push_back(fleet_inputs(sc));

  // The set-up's read and mining of pair `i`; the daemon start is timed
  // once, below. Successive set-ups take the pairs in turn, so setup_s does
  // not hang on one pair's size.
  const auto set_up = [&](std::size_t i) {
    const auto t0 = Clock::now();
    const Scenario& sc = scenarios[i % scenarios.size()];
    predict::RuleTable table;
    {
      par::ThreadPool pool(pool_threads());
      const LogPair logs = read_pair(sc, pool, tr);
      Context ctx;
      ctx.with_pool(&pool);
      double coanalysis_ms = 0;
      const core::CoAnalysisResult result = timed(
          tr, "core.coanalysis",
          [&] { return core::run_coanalysis(logs.ras, logs.jobs, {}, ctx); }, &coanalysis_ms);
      table = mine(result, logs.jobs, ctx, tr);
      if (tr != nullptr) {
        // The traced run reports no set-up time, so it may time the stage
        // split and the offline predictor (what the sessions run live) here.
        r.setup_ok =
            decompose(logs, {}, ctx, *tr, coanalysis_ms) == sc.ref("archive.result_fp") &&
            r.setup_ok;
        replay(table, logs.ras, tr);
      }
    }
    r.setup_s.push_back(seconds_since(t0));
    return table;
  };
  // The daemon predicts with the rules mined from the first pair.
  predict::RuleTable rules = set_up(0);
  for (std::size_t i = 1; i < kSetupReps; ++i) set_up(i);
  const auto t0 = Clock::now();
  fleet::Daemon daemon(daemon_config(rules));
  daemon.start();
  const double start_s = seconds_since(t0);
  const int port = daemon.wire_port();

  par::ThreadPool session_pool(kDaemonPoolThreads);
  std::mutex session_finalize_mu;
  std::mutex result_mu;
  std::atomic<std::size_t> tenants{0}, finished{0};
  double peak_rss_at_k = 0;
  Phase phase(opt.seconds, std::max(kMinOps, kRssTenants));
  phase.start();
  const auto client = [&](int c) {
    RunResult own;
    for (std::size_t i = 0; phase.more(tenants.load()); ++i) {
      const std::size_t k = (i * kFleetClients + static_cast<std::size_t>(c)) % inputs.size();
      run_passes(own, tr, "fleet", [&](Tracer* t, bool& ok) {
        std::string tenant = "c";  // (built up in steps: gcc 12 -Wrestrict false positive)
        tenant += std::to_string(c) + "-" + std::to_string(tenants++);
        begin_op();
        const FleetOp op = fleet_tenant(port, tenant, inputs[k], t);
        end_op(t, op.latency_ms);
        ok = op.ok;
        if (t != nullptr) {
          double feed_pump_ms = 0;
          ok = session_direct(tenant, inputs[k], rules, session_pool, session_finalize_mu, *t,
                              &feed_pump_ms) &&
               ok;
          t->add("fleet.wire_overhead_ms", op.ingest_ms - feed_pump_ms);
        }
        const double mb =
            static_cast<double>(inputs[k].ras_v2.size() + inputs[k].jobs_v2.size()) / 1e6;
        own.ingest_mb_s.push_back(mb / (op.ingest_ms / 1e3));
        own.finalize_ms.push_back(op.finalize_ms);
        return op.latency_ms;
      });
      if (++finished == kRssTenants) {
        const double mb = peak_rss_mb();
        std::lock_guard<std::mutex> lock(result_mu);
        peak_rss_at_k = mb;
      }
    }
    std::lock_guard<std::mutex> lock(result_mu);
    r.attempted += own.attempted;
    r.failed += own.failed;
    for (auto [to, from] : {std::pair{&r.latencies_ms, &own.latencies_ms},
                            std::pair{&r.traced_ms, &own.traced_ms},
                            std::pair{&r.untraced_ms, &own.untraced_ms},
                            std::pair{&r.ingest_mb_s, &own.ingest_mb_s},
                            std::pair{&r.finalize_ms, &own.finalize_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kFleetClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  phase.stop(r);
  r.peak_rss_mb = peak_rss_at_k;
  daemon.stop();
  for (std::size_t i = 0; i < kSetupReps; ++i) set_up(kSetupReps + i);
  for (double& s : r.setup_s) s += start_s;
  return r;
}

// --- Layer probes ----------------------------------------------------------------

constexpr int kProbeCalls = 3;

/// A traced run reports the whole layer table. Layers a workload's own ops
/// and set-up never call are timed here, a few times each, on the first
/// stored pair (README.md lists which figures come from here).
void probe_missing_layers(const Scenario& sc, Tracer& tr, RunResult& r) {
  const bool need_replay = !tr.has("predict.replay.wall_ms");
  const bool need_fleet = !tr.has("fleet.feed.wall_ms");
  if (!need_replay && !need_fleet) return;
  par::ThreadPool pool(pool_threads());
  Context ctx;
  ctx.with_pool(&pool);
  const LogPair logs = read_pair(sc, pool, nullptr);
  const core::CoAnalysisResult result = core::run_coanalysis(logs.ras, logs.jobs, {}, ctx);
  const predict::RuleTable rules = predict::mine_rules(result, logs.jobs, {}, ctx);
  for (int i = 0; i < kProbeCalls && need_replay; ++i) {
    r.setup_ok = replay(rules, logs.ras, &tr) == sc.ref("archive.predictions") && r.setup_ok;
  }
  if (!need_fleet) return;
  const FleetInputs in = fleet_inputs(sc);
  fleet::Daemon daemon(daemon_config(rules));
  daemon.start();
  par::ThreadPool session_pool(kDaemonPoolThreads);
  std::mutex finalize_mu;
  for (int i = 0; i < kProbeCalls; ++i) {
    const std::string tenant = "probe-" + std::to_string(i);
    const FleetOp op = fleet_tenant(daemon.wire_port(), tenant, in, &tr);
    double feed_pump_ms = 0;
    const bool ok = session_direct(tenant, in, rules, session_pool, finalize_mu, tr, &feed_pump_ms);
    tr.add("fleet.wire_overhead_ms", op.ingest_ms - feed_pump_ms);
    r.setup_ok = r.setup_ok && op.ok && ok;
  }
  daemon.stop();
}

// --- Output --------------------------------------------------------------------

void print_result(const RunResult& r, const std::map<std::string, double>& values,
                  const std::vector<MetricDef>& defs) {
  std::string out = "{\"correct\": ";
  out += (r.failed == 0 && r.setup_ok) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::runtime_error(std::string("metric ") + d.name + " was not measured");
    }
    std::snprintf(num, sizeof num, "%.17g", it->second);
    out += first ? "" : ", ";
    first = false;
    out += std::string("\"") + d.name + "\": {\"value\": " + num + ", \"unit\": \"" + d.unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Options& opt) {
  std::vector<Scenario> scenarios;
  for (const std::string& dir : opt.data) scenarios.push_back(load_scenario(dir));
  if (opt.corrupt_ref) {
    // Self-test hook: every output check must now fail.
    for (Scenario& sc : scenarios) {
      for (auto& [key, value] : sc.refs) {
        if (key.find("_fp") != std::string::npos) value ^= 1;
      }
    }
  }
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  RunResult r;
  if (opt.workload == "archive_analyze") {
    r = run_archive(opt, scenarios, tr);
  } else if (opt.workload == "threshold_sweep") {
    r = run_sweep(opt, scenarios, tr);
  } else if (opt.workload == "fleet_ingest") {
    r = run_fleet(opt, scenarios, tr);
  } else {
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
  }
  std::fprintf(stderr,
               "%s: %zu ops in %.2f s, %zu failed; op p50 %.3f ms; set-up %.3f s; "
               "host steal %.1f%% of CPU time\n",
               opt.workload.c_str(), r.attempted, r.elapsed_s, r.failed, median(r.latencies_ms),
               median(r.setup_s), r.host_steal_pct);
  std::fprintf(stderr, "set-ups (s):");
  for (const double s : r.setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  std::map<std::string, double> values;
  if (tr == nullptr) {
    const Tail t = tail(r.latencies_ms);
    std::fprintf(stderr, "latency_tail_ms is p%.1f\n", t.percentile);
    values["latency_p50_ms"] = median(r.latencies_ms);
    values["latency_tail_ms"] = t.value;
    values["throughput_ops_s"] = static_cast<double>(r.attempted) / r.elapsed_s;
    values["cpu_ms_per_op"] = r.cpu_ms / static_cast<double>(r.attempted);
    values["peak_rss_mb"] = r.peak_rss_mb;
    values["ingest_mb_s"] = median(r.ingest_mb_s);
    values["finalize_p50_ms"] = median(r.finalize_ms);
    values["setup_s"] = median(r.setup_s);
    print_result(r, values, kEndToEnd);
    return 0;
  }
  probe_missing_layers(scenarios[0], tracer, r);
  for (const MetricDef& d : kPerLayer) {
    if (const auto v = tracer.median_of(d.name)) values[d.name] = *v;
  }
  const double traced = median(r.traced_ms), untraced = median(r.untraced_ms);
  std::fprintf(stderr, "op p50: traced %.3f ms, untraced %.3f ms\n", traced, untraced);
  values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced;
  print_result(r, values, kPerLayer);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string gen_dir;
  std::uint64_t seed = 42;
  bool small = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--gen") {
        gen_dir = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--scale") {
        const std::string s = value();
        if (s != "full" && s != "small") throw std::runtime_error("bad --scale " + s);
        small = s == "small";
      } else if (arg == "--data") {
        opt.data.push_back(value());
      } else if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--corrupt-ref") {
        opt.corrupt_ref = true;
      } else {
        throw std::runtime_error("unknown argument " + arg);
      }
    }
    if (!gen_dir.empty()) {
      generate(gen_dir, seed, small);
      return 0;
    }
    if (opt.data.empty() || opt.workload.empty()) {
      throw std::runtime_error("need --gen DIR, or --data DIR and --workload W");
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coral_perfbench: %s\n", e.what());
    return 1;
  }
}
