// Hardening tests: degenerate scenarios, fuzzed parsers, extreme configs.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/predict/miner.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/stream/session.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral {
namespace machine {

// gtest writes a value parameter into the listed test name ("# GetParam() =
// ..."); print a model by its name rather than its address, so the
// DegenerateInputs names are the same on every run.
void PrintTo(const MachineModel* model, std::ostream* os) { *os << model->name(); }

}  // namespace machine

namespace {

TEST(Robustness, ZeroFaultScenarioProducesCleanLogs) {
  synth::ScenarioConfig config = synth::small_scenario(141, 7);
  config.faults.interrupting_rate_per_day = 0;
  config.faults.persistent_rate_per_day = 0;
  config.faults.idle_rate_per_day = 0;
  config.faults.benign_rate_per_day = 0;
  config.workload.buggy_app_prob = 0;
  const synth::SynthResult data = synth::generate(config);

  EXPECT_TRUE(data.truth.faults.empty());
  EXPECT_TRUE(data.truth.interruptions.empty());
  EXPECT_EQ(data.ras.summary().fatal_records, 0u);
  EXPECT_GT(data.jobs.size(), 100u);  // the machine still runs jobs
  for (const auto& job : data.jobs) EXPECT_EQ(job.exit_code, 0);

  // The analysis degrades gracefully on a clean log.
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  EXPECT_TRUE(r.filtered.groups.empty());
  EXPECT_EQ(r.interruption_count(), 0u);
  EXPECT_TRUE(r.interruptions_per_day.size() <= 8u);
}

TEST(Robustness, ExtremeFaultRateStillTerminates) {
  synth::ScenarioConfig config = synth::small_scenario(142, 3);
  config.faults.interrupting_rate_per_day = 40;
  config.faults.persistent_rate_per_day = 5;
  config.faults.idle_rate_per_day = 40;
  config.faults.benign_rate_per_day = 20;
  const synth::SynthResult data = synth::generate(config);
  EXPECT_GT(data.truth.faults.size(), 100u);
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  EXPECT_GT(r.filtered.groups.size(), 20u);
  // Bookkeeping still consistent under stress.
  EXPECT_EQ(r.system_interruptions + r.application_interruptions, r.interruption_count());
}

TEST(Robustness, OneDayScenario) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(143, 1));
  EXPECT_GT(data.jobs.size(), 10u);
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  EXPECT_LE(r.interruptions_per_day.size(), 2u);
}

TEST(Robustness, AllBuggyWorkload) {
  synth::ScenarioConfig config = synth::small_scenario(144, 5);
  config.workload.buggy_app_prob = 1.0;
  config.workload.bug_difficulty_min = 0.9;
  config.workload.bug_difficulty_max = 0.95;
  const synth::SynthResult data = synth::generate(config);
  // Most interruptions are application errors now.
  std::size_t app = 0;
  for (const auto& in : data.truth.interruptions) {
    app += ras::Catalog::instance().info(in.code).nature ==
                   ras::FaultNature::ApplicationError
               ? 1
               : 0;
  }
  EXPECT_GT(app * 2, data.truth.interruptions.size());
  EXPECT_GT(app, 50u);
}

TEST(Robustness, LocationParserFuzz) {
  // Random strings must either parse to something that round-trips, or
  // throw ParseError — never crash or mangle.
  Rng rng(145);
  const std::string alphabet = "RML0123456789-NJSIX";
  for (int i = 0; i < 5000; ++i) {
    std::string s;
    const auto len = rng.uniform_index(12);
    for (std::size_t c = 0; c < len; ++c) {
      s += alphabet[rng.uniform_index(alphabet.size())];
    }
    try {
      const bgp::Location loc = bgp::Location::parse(s);
      const bgp::Location again = bgp::Location::parse(loc.to_string());
      EXPECT_EQ(loc, again) << s;
    } catch (const ParseError&) {
      // fine
    }
  }
}

TEST(Robustness, PartitionParserFuzz) {
  Rng rng(146);
  const std::string alphabet = "RM0123456789-";
  for (int i = 0; i < 5000; ++i) {
    std::string s;
    const auto len = rng.uniform_index(10);
    for (std::size_t c = 0; c < len; ++c) {
      s += alphabet[rng.uniform_index(alphabet.size())];
    }
    try {
      const bgp::Partition p = bgp::Partition::parse(s);
      EXPECT_EQ(bgp::Partition::parse(p.name()), p) << s;
    } catch (const ParseError&) {
      // fine
    }
  }
}

TEST(Robustness, RasCsvFuzzedRowsRejected) {
  // Mutate a valid CSV by truncating rows; the parser must throw, not crash.
  const synth::SynthResult data = synth::generate(synth::small_scenario(147, 2));
  std::ostringstream out;
  data.ras.write_csv(out);
  const std::string csv = out.str();
  Rng rng(148);
  for (int i = 0; i < 20; ++i) {
    std::string cut = csv.substr(0, csv.size() / 2 + rng.uniform_index(csv.size() / 4));
    std::istringstream in(cut);
    try {
      const auto log = ras::RasLog::read_csv(in);
      EXPECT_LE(log.size(), data.ras.size());  // prefix parse is acceptable
    } catch (const ParseError&) {
      // fine
    }
  }
}

TEST(Robustness, MatchingWindowZero) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(149, 7));
  core::CoAnalysisConfig config;
  config.matching.window = 0;
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs, config);
  // Zero window still matches the exact-time kills the generator produces.
  EXPECT_GE(r.interruption_count(), 0u);
}

// ---- degenerate-input matrix ----------------------------------------------
// Every shape of degenerate log pair gets a defined result — never an
// internal precondition failure — on every machine model, offline and
// through a stream::Session fed the same bytes.

enum class Shape { EmptyPair, RasOnly, JobsOnly, NoFatal, SingleFatal, OneTimestamp };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::EmptyPair: return "empty pair";
    case Shape::RasOnly: return "RAS only";
    case Shape::JobsOnly: return "jobs only";
    case Shape::NoFatal: return "no FATAL";
    case Shape::SingleFatal: return "single FATAL";
    case Shape::OneTimestamp: return "one timestamp";
  }
  return "?";
}

const TimePoint kBase = TimePoint::from_calendar(2009, 1, 5);
constexpr std::size_t kJobs = 32;

/// Job i runs on single-midplane partition i for 30 minutes from
/// kBase + 10i minutes; job 0 (midplane 0, ending at kBase + 30 min) is the
/// only one a record at that instant on midplane 0 can match.
joblog::JobLog make_jobs(const machine::MachineModel& m) {
  const std::vector<bgp::Partition> parts = m.partitions_of_size(1);
  joblog::JobLog log(m);
  for (std::size_t i = 0; i < kJobs; ++i) {
    joblog::JobRecord j;
    j.job_id = static_cast<std::int64_t>(1000 + i);
    j.exec_id = log.intern_exec("/bin/app" + std::to_string(i % 7));
    j.user_id = log.intern_user("user" + std::to_string(i % 5));
    j.project_id = log.intern_project("proj" + std::to_string(i % 3));
    j.start_time = kBase + static_cast<Usec>(i) * 10 * kUsecPerMin;
    j.queue_time = j.start_time - 5 * kUsecPerMin;
    j.end_time = j.start_time + 30 * kUsecPerMin;
    j.partition = parts[i % parts.size()];
    j.exit_code = i == 0 ? 137 : 0;
    log.append(j);
  }
  log.finalize();
  return log;
}

/// `n` records on midplanes 0, 1, ...; FATAL ones cycle through the
/// catalog's fatal codes, the rest are INFO. Records are a minute apart, or
/// all at job 0's end time when `same_time`.
ras::RasLog make_ras(const machine::MachineModel& m, std::size_t n, bool fatal, bool info,
                     bool same_time) {
  const ras::Catalog& cat = ras::default_catalog();
  ras::RasEventArray events(n, ras::RasEvent{});
  for (std::size_t i = 0; i < n; ++i) {
    ras::RasEvent& ev = events[i];
    const bool is_fatal = fatal && (!info || i % 2 == 0);
    ev.event_time = same_time ? kBase + 30 * kUsecPerMin
                              : kBase + static_cast<Usec>(i) * kUsecPerMin;
    ev.location =
        m.midplane_location(static_cast<bgp::MidplaneId>(i % static_cast<std::size_t>(
                                                                  m.midplane_count())));
    ev.errcode = is_fatal ? cat.fatal_ids()[i % cat.fatal_ids().size()]
                          : cat.nonfatal_ids()[i % cat.nonfatal_ids().size()];
    ev.severity = is_fatal ? ras::Severity::Fatal : ras::Severity::Info;
    ev.serial = static_cast<std::uint32_t>(i);
  }
  return ras::RasLog(std::move(events), cat, m);
}

struct LogPair {
  ras::RasLog ras;
  joblog::JobLog jobs;
};

LogPair make_pair(const machine::MachineModel& m, Shape shape) {
  joblog::JobLog no_jobs(m);
  no_jobs.finalize();
  switch (shape) {
    case Shape::EmptyPair: return {ras::RasLog({}, ras::default_catalog(), m), no_jobs};
    case Shape::RasOnly: return {make_ras(m, 64, true, true, false), no_jobs};
    case Shape::JobsOnly: return {ras::RasLog({}, ras::default_catalog(), m), make_jobs(m)};
    case Shape::NoFatal: return {make_ras(m, 64, false, true, false), make_jobs(m)};
    case Shape::SingleFatal: return {make_ras(m, 1, true, false, true), make_jobs(m)};
    case Shape::OneTimestamp: return {make_ras(m, 64, true, true, true), make_jobs(m)};
  }
  return {};
}

std::uint64_t session_fingerprint(const machine::MachineModel& m, const LogPair& logs) {
  std::stringstream ras_buf, job_buf;
  ras::write_binary(ras_buf, logs.ras);
  joblog::write_binary(job_buf, logs.jobs);
  stream::Session session("degenerate", {}, Context().with_machine(m));
  EXPECT_EQ(session.feed(stream::Source::Ras, ras_buf.str()), stream::Admission::Accepted);
  EXPECT_EQ(session.feed(stream::Source::Jobs, job_buf.str()), stream::Admission::Accepted);
  const stream::SessionResult r = session.finalize();
  EXPECT_TRUE(session.snapshot().finalized);
  EXPECT_TRUE(r.ras_report.clean());
  EXPECT_TRUE(r.jobs_report.clean());
  EXPECT_EQ(fleet::log_fingerprint(r.ras, r.jobs), fleet::log_fingerprint(logs.ras, logs.jobs));
  return fleet::result_fingerprint(r.analysis);
}

class DegenerateInputs : public testing::TestWithParam<const machine::MachineModel*> {};

TEST_P(DegenerateInputs, DefinedResultOfflineAndThroughSession) {
  const machine::MachineModel& m = *GetParam();
  for (const Shape shape : {Shape::EmptyPair, Shape::RasOnly, Shape::JobsOnly, Shape::NoFatal,
                            Shape::SingleFatal, Shape::OneTimestamp}) {
    SCOPED_TRACE(shape_name(shape));
    const LogPair logs = make_pair(m, shape);
    const core::CoAnalysisResult r = core::run_coanalysis(logs.ras, logs.jobs);
    const predict::RuleTable rules = predict::mine_rules(r, logs.jobs);

    const bool has_fatal = logs.ras.summary().fatal_records != 0;
    const bool has_jobs = !logs.jobs.empty();
    EXPECT_EQ(r.filtered.groups.empty(), !has_fatal);
    EXPECT_EQ(r.interruption_count(), shape == Shape::SingleFatal ||
                                              shape == Shape::OneTimestamp
                                          ? 1u
                                          : 0u);
    EXPECT_EQ(r.system_interruptions + r.application_interruptions, r.interruption_count());
    EXPECT_EQ(r.interruptions_per_day.size(), has_jobs ? 1u : 0u);
    EXPECT_EQ(r.fatal_events_per_midplane.size(),
              static_cast<std::size_t>(m.midplane_count()));
    for (const core::FeatureRanking& ranking : r.vulnerability.features) {
      EXPECT_EQ(ranking.ranked.empty(), !has_jobs);
    }
    // No series here has two distinct gaps: every interarrival fit stays
    // unset rather than diverging.
    EXPECT_TRUE(r.fatal_before_jobfilter.samples_sec.empty());
    EXPECT_TRUE(r.fatal_after_jobfilter.samples_sec.empty());
    EXPECT_TRUE(r.interruptions_system.samples_sec.empty());
    EXPECT_TRUE(r.interruptions_application.samples_sec.empty());
    if (shape == Shape::OneTimestamp) {
      EXPECT_GE(r.filtered.groups.size(), 3u);
    }
    if (!has_fatal || !has_jobs) {
      EXPECT_TRUE(rules.empty());
    }

    if (shape == Shape::EmptyPair || shape == Shape::RasOnly) {
      EXPECT_EQ(session_fingerprint(m, logs), fleet::result_fingerprint(r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DegenerateInputs, testing::ValuesIn(machine::all_models()),
    [](const testing::TestParamInfo<const machine::MachineModel*>& p) {
      return std::string(p.param->name());
    });

}  // namespace
}  // namespace coral
