#include "coral/core/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "coral/common/error.hpp"

namespace coral::core {

namespace {

/// Fit the interarrival series of `times` into `out`. Leaves `out` unset
/// below 3 events, and when every gap is equal (all events at one instant,
/// or a constant period): the Weibull MLE has no finite optimum there.
void fit_series(std::span<const TimePoint> times, InterarrivalFit& out) {
  if (times.size() < 3) return;
  std::vector<double> gaps = interarrival_seconds(times);
  if (std::adjacent_find(gaps.begin(), gaps.end(), std::not_equal_to<>()) == gaps.end()) {
    return;
  }
  out = fit_interarrivals(std::move(gaps));
}

}  // namespace

IngestedLogs ingest_csv_logs(std::istream& ras_in, std::istream& jobs_in, ParseMode mode,
                             const Context& ctx) {
  IngestedLogs logs;
  logs.ras = ras::RasLog::read_csv(ras_in, ctx.catalog(), mode, &logs.ras_report,
                                   ctx.obs(), ctx.machine());
  logs.jobs = joblog::JobLog::read_csv(jobs_in, mode, &logs.jobs_report, ctx.obs(),
                                       ctx.machine());
  return logs;
}

CoAnalysisResult complete_coanalysis(filter::FilterPipelineResult filtered,
                                     MatchResult matches, const joblog::JobLog& jobs,
                                     const CoAnalysisConfig& config, const Context& ctx) {
  CoAnalysisResult r;
  r.machine_ = &jobs.machine();
  r.filtered = std::move(filtered);
  r.matches = std::move(matches);

  par::ThreadPool* pool = ctx.pool();

  // Step 1 (continued): identify the interruption-related errcodes (§IV-A).
  {
    obs::Span span(ctx.obs(), "identification");
    r.identification =
        identify_interruption_related(r.filtered, r.matches, jobs, config.identification);
    span.counts(r.filtered.groups.size(), r.identification.verdicts.size());
  }

  // Shared columnar inputs of the characterization stages: gathered once,
  // scanned by classification, job filter, propagation and vulnerability.
  CharColumns cols;
  {
    obs::Span span(ctx.obs(), "char.columns");
    cols = build_char_columns(r.filtered, r.matches, jobs, pool);
    span.counts(jobs.size(), cols.survivor_job.size());
  }

  // Step 2: separate system failures from application errors (§IV-B).
  {
    obs::Span span(ctx.obs(), "classification");
    r.classification = classify_causes(r.filtered, r.matches, r.identification, jobs,
                                       cols, config.classification, pool);
    span.counts(r.identification.verdicts.size(), r.classification.by_code.size());
  }

  // Step 3: job-related filtering (§IV-C).
  {
    obs::Span span(ctx.obs(), "job_filter");
    r.job_filter = job_related_filter(r.filtered, r.matches, r.classification, jobs,
                                      cols, config.job_filter, pool);
    span.counts(r.filtered.groups.size(), r.job_filter.kept.size());
  }

  // Characterization: propagation and vulnerability (§VI-C, §VI-D).
  {
    obs::Span span(ctx.obs(), "propagation");
    r.propagation =
        analyze_propagation(r.filtered, r.matches, jobs, cols, config.propagation, pool);
    span.counts(r.matches.interruptions.size(), r.propagation.propagating_codes.size());
  }
  {
    obs::Span span(ctx.obs(), "vulnerability");
    r.vulnerability =
        analyze_vulnerability(r.filtered, r.matches, r.classification, jobs, cols,
                              config.vulnerability, pool);
    span.counts(r.matches.interruptions.size(), jobs.size());
  }

  // Interarrival fits (§V-A, Table IV; Fig. 3): group representatives
  // before and after job-related filtering.
  std::vector<TimePoint> times;
  times.reserve(r.filtered.groups.size());
  for (const filter::EventGroup& g : r.filtered.groups) {
    times.push_back(r.filtered.fatal_events[g.rep].event_time);
  }
  fit_series(times, r.fatal_before_jobfilter);
  times.clear();
  for (const std::size_t idx : r.job_filter.kept) {
    times.push_back(r.filtered.fatal_events[r.filtered.groups[idx].rep].event_time);
  }
  fit_series(times, r.fatal_after_jobfilter);

  // Interruption interarrivals by cause (§VI-B, Table V; Fig. 6).
  std::vector<TimePoint> sys_times, app_times;
  for (const Interruption& in : r.matches.interruptions) {
    const ras::ErrcodeId code =
        r.filtered.fatal_events[r.filtered.groups[in.group].rep].errcode;
    const bool app = r.classification.by_code.count(code) != 0 &&
                     r.classification.by_code.at(code).cause == Cause::ApplicationError;
    (app ? app_times : sys_times).push_back(in.time);
  }
  r.system_interruptions = sys_times.size();
  r.application_interruptions = app_times.size();
  fit_series(sys_times, r.interruptions_system);
  fit_series(app_times, r.interruptions_application);

  // Distinct interrupted executables (paper: 308 jobs, 167 distinct).
  std::set<joblog::ExecId> distinct;
  for (const Interruption& in : r.matches.interruptions) {
    distinct.insert(jobs[in.job].exec_id);
  }
  r.distinct_interrupted_jobs = distinct.size();

  // Fig. 5: interruptions per day. The job log's first submission anchors
  // day 0, and a non-empty job log always materializes at least one bucket.
  if (!jobs.empty()) {
    const TimePoint origin = jobs.summary().first_submit;
    r.interruptions_per_day.assign(1, 0);
    for (const Interruption& in : r.matches.interruptions) {
      const std::int64_t day = in.time.days_since(origin);
      CORAL_EXPECTS(day >= 0);
      const auto bucket = static_cast<std::size_t>(day);
      if (bucket >= r.interruptions_per_day.size()) {
        r.interruptions_per_day.resize(bucket + 1, 0);
      }
      r.interruptions_per_day[bucket] += 1;
    }
  }

  // Fig. 4 series: fatal groups per midplane (a rack-level representative
  // splits its count evenly over the rack's midplanes) and workload in
  // midplane-seconds, all jobs and wide jobs.
  const machine::MachineModel& machine = jobs.machine();
  const auto midplanes = static_cast<std::size_t>(machine.midplane_count());
  const int per_rack = machine.codec().midplanes_per_rack;
  r.fatal_events_per_midplane.assign(midplanes, 0.0);
  r.workload_per_midplane.assign(midplanes, 0.0);
  r.wide_workload_per_midplane.assign(midplanes, 0.0);
  for (const filter::EventGroup& g : r.filtered.groups) {
    const bgp::Location& loc = r.filtered.fatal_events[g.rep].location;
    if (const auto mid = loc.midplane_id()) {
      r.fatal_events_per_midplane[static_cast<std::size_t>(*mid)] += 1;
    } else {
      const int first = loc.rack_index() * per_rack;
      const double share = 1.0 / per_rack;
      for (int i = 0; i < per_rack; ++i) {
        r.fatal_events_per_midplane[static_cast<std::size_t>(first + i)] += share;
      }
    }
  }
  const int wide_threshold = machine.placement_zones().wide_threshold;
  for (const joblog::JobRecord& job : jobs) {
    const double seconds =
        static_cast<double>(job.runtime()) / static_cast<double>(kUsecPerSec);
    const bool wide = job.size_midplanes() >= wide_threshold;
    for (bgp::MidplaneId m : job.partition.midplanes()) {
      r.workload_per_midplane[static_cast<std::size_t>(m)] += seconds;
      if (wide) r.wide_workload_per_midplane[static_cast<std::size_t>(m)] += seconds;
    }
  }
  return r;
}

CoAnalysisResult run_coanalysis(const ras::RasLog& ras, const joblog::JobLog& jobs,
                                const CoAnalysisConfig& config, const Context& ctx) {
  par::ThreadPool* pool = ctx.pool();

  // Step 0: temporal-spatial + causality filtering of FATAL records.
  obs::Span filter_span(ctx.obs(), "filter.batch");
  filter::FilterPipelineConfig filter_config = config.filters;
  if (filter_config.causality.pool == nullptr) filter_config.causality.pool = pool;
  if (filter_config.obs == nullptr) filter_config.obs = ctx.obs();
  filter::FilterPipelineResult filtered = filter::run_filter_pipeline(ras, filter_config);
  filter_span.counts(ras.size(), filtered.groups.size());
  filter_span.end();

  // Step 1: match fatal events against job terminations.
  obs::Span match_span(ctx.obs(), "matching");
  MatchConfig match_config = config.matching;
  if (match_config.pool == nullptr) match_config.pool = pool;
  if (match_config.obs == nullptr) match_config.obs = ctx.obs();
  MatchResult matches = match_interruptions(filtered, jobs, match_config);
  match_span.counts(filtered.groups.size(), matches.interruptions.size());
  match_span.end();

  return complete_coanalysis(std::move(filtered), std::move(matches), jobs, config, ctx);
}

}  // namespace coral::core
