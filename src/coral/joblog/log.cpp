#include "coral/joblog/log.hpp"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>

#include "coral/common/csv.hpp"
#include "coral/common/error.hpp"
#include "coral/common/strings.hpp"
#include "coral/obs/obs.hpp"

namespace coral::joblog {

namespace {

std::int32_t intern(const std::string& value, std::vector<std::string>& table,
                    std::unordered_map<std::string, std::int32_t>& index) {
  const auto it = index.find(value);
  if (it != index.end()) return it->second;
  const auto id = static_cast<std::int32_t>(table.size());
  table.push_back(value);
  index.emplace(value, id);
  return id;
}

}  // namespace

ExecId JobLog::intern_exec(const std::string& path) {
  return intern(path, exec_files_, exec_index_);
}
UserId JobLog::intern_user(const std::string& name) {
  return intern(name, users_, user_index_);
}
ProjectId JobLog::intern_project(const std::string& name) {
  return intern(name, projects_, project_index_);
}

void JobLog::append(JobRecord job) {
  CORAL_EXPECTS(job.end_time >= job.start_time);
  CORAL_EXPECTS(job.exec_id >= 0 &&
                static_cast<std::size_t>(job.exec_id) < exec_files_.size());
  finalized_ = false;
  jobs_.push_back(job);
}

void JobLog::finalize() {
  const auto by_start = [](const JobRecord& a, const JobRecord& b) {
    return a.start_time < b.start_time;
  };
  // Readers deliver logs written from a finalized JobLog, already in start
  // order; a stable sort of sorted input is the identity, so skip it.
  if (!std::is_sorted(jobs_.begin(), jobs_.end(), by_start)) {
    std::stable_sort(jobs_.begin(), jobs_.end(), by_start);
  }
  max_end_prefix_.resize(jobs_.size());
  TimePoint running_max;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (i == 0 || jobs_[i].end_time > running_max) running_max = jobs_[i].end_time;
    max_end_prefix_[i] = running_max;
  }
  by_end_.resize(jobs_.size());
  std::iota(by_end_.begin(), by_end_.end(), std::size_t{0});
  std::sort(by_end_.begin(), by_end_.end(), [this](std::size_t a, std::size_t b) {
    if (jobs_[a].end_time != jobs_[b].end_time) {
      return jobs_[a].end_time < jobs_[b].end_time;
    }
    return a < b;
  });
  interval_ = IntervalIndex(jobs_, by_end_, machine_->midplane_count());
  finalized_ = true;
}

const std::vector<std::size_t>& JobLog::by_end_time() const {
  CORAL_EXPECTS(finalized_);
  return by_end_;
}

const IntervalIndex& JobLog::interval_index() const {
  CORAL_EXPECTS(finalized_ || jobs_.empty());
  return interval_;
}

template <typename Pred>
std::vector<std::size_t> JobLog::running_matching(TimePoint t, Pred pred) const {
  CORAL_EXPECTS(finalized_);
  std::vector<std::size_t> out;
  // First job with start_time > t.
  const auto it = std::upper_bound(jobs_.begin(), jobs_.end(), t,
                                   [](TimePoint tp, const JobRecord& j) {
                                     return tp < j.start_time;
                                   });
  for (auto i = static_cast<std::ptrdiff_t>(it - jobs_.begin()) - 1; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    if (max_end_prefix_[idx] <= t) break;  // nothing earlier can still be running
    const JobRecord& j = jobs_[idx];
    if (j.end_time > t && pred(j)) out.push_back(idx);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

namespace {

// Jobs in one interval-index bucket that are running at `t`, descending job
// index (the caller reverses or merges). Same bounded backward scan as the
// whole-log running_matching, but confined to the jobs that can cover the
// queried midplane.
void bucket_running_at(const IntervalIndex::StartSlice& s, TimePoint t,
                       std::vector<std::size_t>& out) {
  const auto it = std::upper_bound(s.start_time.begin(), s.start_time.end(), t);
  for (auto i = static_cast<std::ptrdiff_t>(it - s.start_time.begin()) - 1; i >= 0; --i) {
    const auto k = static_cast<std::size_t>(i);
    if (s.max_end[k] <= t) break;  // nothing earlier in the bucket can still run
    if (s.end_time[k] > t) out.push_back(s.job[k]);
  }
}

}  // namespace

std::vector<std::size_t> JobLog::running_at(TimePoint t, const bgp::Location& loc) const {
  CORAL_EXPECTS(finalized_);
  if (jobs_.empty()) return {};
  std::vector<std::size_t> out;
  const machine::LocCodec& codec = machine_->codec();
  if (loc.kind() == bgp::LocationKind::Rack) {
    // Rack-level locations touch every midplane of the rack; a multi-midplane
    // partition can sit in several buckets, so merge and dedupe.
    const auto lo = static_cast<bgp::MidplaneId>(loc.rack_index() * codec.midplanes_per_rack);
    for (int i = 0; i < codec.midplanes_per_rack; ++i) {
      bucket_running_at(interval_.starts(lo + i), t, out);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  bucket_running_at(interval_.starts(codec.midplane_of(loc.packed())), t, out);
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> JobLog::running_at(TimePoint t, const bgp::Partition& part) const {
  return running_matching(t,
                          [&part](const JobRecord& j) { return j.partition.overlaps(part); });
}

std::vector<std::size_t> JobLog::overlapping(TimePoint begin, TimePoint end) const {
  CORAL_EXPECTS(finalized_);
  // Binary-search both edges of the candidate slice: jobs starting at or
  // after `end` cannot intersect, and neither can any prefix whose running
  // max end time is still <= `begin`.
  const auto lo = std::partition_point(max_end_prefix_.begin(), max_end_prefix_.end(),
                                       [&](TimePoint m) { return m <= begin; });
  const auto hi = std::partition_point(jobs_.begin(), jobs_.end(),
                                       [&](const JobRecord& j) { return j.start_time < end; });
  std::vector<std::size_t> out;
  const auto first = static_cast<std::size_t>(lo - max_end_prefix_.begin());
  const auto last = static_cast<std::size_t>(hi - jobs_.begin());
  for (std::size_t i = first; i < last; ++i) {
    if (jobs_[i].end_time > begin) out.push_back(i);
  }
  return out;
}

JobLogSummary JobLog::summary() const {
  JobLogSummary s;
  s.total_jobs = jobs_.size();
  s.users = users_.size();
  s.projects = projects_.size();
  std::vector<int> submits(exec_files_.size(), 0);
  for (const auto& j : jobs_) submits[static_cast<std::size_t>(j.exec_id)] += 1;
  for (int n : submits) {
    if (n > 0) s.distinct_jobs += 1;
    if (n > 1) s.resubmitted_jobs += 1;
  }
  if (!jobs_.empty()) {
    s.first_submit = jobs_.front().queue_time;
    s.last_end = jobs_.front().end_time;
    for (const auto& j : jobs_) {
      if (j.queue_time < s.first_submit) s.first_submit = j.queue_time;
      if (j.end_time > s.last_end) s.last_end = j.end_time;
    }
  }
  return s;
}

void JobLog::write_csv(std::ostream& out) const {
  CsvWriter w(out);
  w.write_row({"JOB_ID", "EXEC_FILE", "USER", "PROJECT", "QUEUE_TIME", "START_TIME",
               "END_TIME", "LOCATION", "EXIT"});
  for (const auto& j : jobs_) {
    w.write_row({std::to_string(j.job_id), exec_files_[static_cast<std::size_t>(j.exec_id)],
                 users_[static_cast<std::size_t>(j.user_id)],
                 projects_[static_cast<std::size_t>(j.project_id)],
                 strformat("%.2f", j.queue_time.unix_seconds()),
                 strformat("%.2f", j.start_time.unix_seconds()),
                 strformat("%.2f", j.end_time.unix_seconds()), machine_->partition_name(j.partition),
                 std::to_string(j.exit_code)});
  }
}

namespace {

std::string row_snippet(const std::vector<std::string>& row) {
  std::string s;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ',';
    s += row[i];
    if (s.size() > 64) break;
  }
  return s;
}

// Unix-second fields far outside the plausible log range would make llround
// in from_unix_seconds implementation-defined; reject them as unparseable.
TimePoint parse_job_time(const std::string& field) {
  const double sec = parse_double(field);
  if (!(sec > -1e12 && sec < 1e13)) {
    throw ParseError("job time out of range: '" + field + "'");
  }
  return TimePoint::from_unix_seconds(sec);
}

}  // namespace

JobLog JobLog::read_csv(std::istream& in, ParseMode mode, IngestReport* report,
                        obs::Collector* sink, const machine::MachineModel& machine) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  obs::Span span(sink, "ingest.job_csv");

  CsvReader r(in, ',', mode, &rep);
  std::vector<std::string> row;
  if (!r.read_row(row)) throw ParseError("empty job CSV");
  if (row.size() != 9 || row[0] != "JOB_ID") throw ParseError("bad job CSV header");
  JobLog log(machine);
  while (r.read_row(row)) {
    if (row.size() == 1 && row[0].empty()) continue;
    const std::uint64_t offset = r.row_offset();
    if (row.size() != 9) {
      if (mode == ParseMode::Strict) throw ParseError("bad job CSV row width");
      rep.add_malformed(IngestReason::RowWidth, offset, row_snippet(row),
                        "expected 9 fields, got " + std::to_string(row.size()));
      continue;
    }
    // Parse every throwing field before interning, so a rejected row leaves
    // no stray entries in the string tables.
    JobRecord j;
    IngestReason reason = IngestReason::BadRecord;
    try {
      reason = IngestReason::BadNumber;
      j.job_id = parse_int(row[0]);
      reason = IngestReason::BadTimestamp;
      j.queue_time = parse_job_time(row[4]);
      j.start_time = parse_job_time(row[5]);
      j.end_time = parse_job_time(row[6]);
      reason = IngestReason::BadLocation;
      j.partition = machine.parse_partition(row[7]);
      reason = IngestReason::BadNumber;
      j.exit_code = static_cast<int>(parse_int(row[8]));
    } catch (const Error& e) {
      if (mode == ParseMode::Strict) throw;
      rep.add_malformed(reason, offset, row_snippet(row), e.what());
      continue;
    }
    if (mode == ParseMode::Lenient && j.end_time < j.start_time) {
      rep.add_malformed(IngestReason::BadRecord, offset, row_snippet(row),
                        "job ends before it starts");
      continue;
    }
    j.exec_id = log.intern_exec(row[1]);
    j.user_id = log.intern_user(row[2]);
    j.project_id = log.intern_project(row[3]);
    log.append(j);
    rep.add_ok();
  }
  log.finalize();
  span.counts(rep.records_seen(), rep.records_ok());
  rep.report_malformed(sink, "ingest.job_csv");
  return log;
}

}  // namespace coral::joblog
