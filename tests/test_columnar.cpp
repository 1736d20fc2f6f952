// Equality pins for the columnar hot path: the SoA fatal view against the
// AoS records, the per-midplane interval index against brute-force job
// scans, the flat-vector group matcher against the historical std::set
// collection, and the sliced CRC32 / parallel binary reader against their
// sequential references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/parallel.hpp"
#include "coral/common/rng.hpp"
#include "coral/core/matching.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/joblog/log.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/ras/binary_stream.hpp"
#include "coral/ras/log.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral {
namespace {

const synth::SynthResult& scenario() {
  static const synth::SynthResult result = synth::generate(synth::small_scenario(42));
  return result;
}

// ---------------------------------------------------------------------------
// FatalColumns: the SoA view must agree with the AoS records index for index.

void expect_columns_match_events(const ras::RasLog& log) {
  const ras::FatalColumns& cols = log.fatal_columns();
  const std::vector<ras::RasEvent> fatal = log.fatal_events();
  ASSERT_EQ(cols.size(), fatal.size());
  ASSERT_EQ(cols.errcode.size(), cols.size());
  ASSERT_EQ(cols.loc_key.size(), cols.size());
  ASSERT_EQ(cols.log_index.size(), cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(cols.event_time[i], fatal[i].event_time) << "row " << i;
    EXPECT_EQ(cols.errcode[i], fatal[i].errcode) << "row " << i;
    EXPECT_EQ(cols.loc_key[i], fatal[i].location.packed()) << "row " << i;
    // log_index maps back into the full log, and the packed key round-trips.
    const ras::RasEvent& owner = log[cols.log_index[i]];
    EXPECT_EQ(owner.severity, ras::Severity::Fatal);
    EXPECT_EQ(owner.event_time, fatal[i].event_time);
    EXPECT_EQ(bgp::Location::from_packed(cols.loc_key[i]), owner.location);
  }
}

TEST(FatalColumns, MatchesAosViewOnScenarioLog) {
  expect_columns_match_events(scenario().ras);
}

TEST(FatalColumns, OutOfOrderAppendsAreSortedConsistently) {
  const ras::Catalog& cat = ras::default_catalog();
  const TimePoint base = TimePoint::from_calendar(2009, 3, 1);
  ras::RasLog log;
  // Appends arrive shuffled in time and mixed in severity; finalize() owns
  // the sort, and the columns must mirror whatever order it settles on.
  for (std::size_t i = 0; i < 500; ++i) {
    ras::RasEvent ev;
    ev.event_time = base + static_cast<Usec>((i * 7919) % 500) * kUsecPerMin;
    ev.location = i % 3 == 0 ? bgp::Location::rack(static_cast<int>(i % 40))
                             : bgp::Location::node_card(static_cast<int>(i % 80),
                                                        static_cast<int>(i % 16));
    ev.errcode = i % 2 == 0 ? cat.fatal_ids()[i % cat.fatal_ids().size()]
                            : cat.nonfatal_ids()[i % cat.nonfatal_ids().size()];
    ev.severity = i % 2 == 0 ? ras::Severity::Fatal : ras::Severity::Warning;
    ev.serial = static_cast<std::uint32_t>(i);
    log.append(ev);
  }
  log.finalize();
  expect_columns_match_events(log);
}

TEST(FatalColumns, ConsistentAfterLenientIngestDrops) {
  std::stringstream buf;
  ras::write_binary(buf, scenario().ras);
  std::string bytes = buf.str();
  // Corrupt a payload byte in the third record block: its frame drops in
  // lenient mode, and the surviving log's columns must still mirror it.
  std::size_t p = bytes.find("CBLK");
  for (int skip = 0; skip < 4; ++skip) p = bytes.find("CBLK", p + 1);
  ASSERT_NE(p, std::string::npos);
  bytes[p + 20] = static_cast<char>(bytes[p + 20] ^ 0xFF);

  std::istringstream in(bytes);
  IngestReport rep;
  const ras::RasLog parsed =
      ras::read_binary(in, ras::default_catalog(), {.mode = ParseMode::Lenient, .report = &rep});
  ASSERT_LT(parsed.size(), scenario().ras.size());
  EXPECT_GT(rep.malformed(IngestReason::BinaryFrame), 0u);
  expect_columns_match_events(parsed);
}

// ---------------------------------------------------------------------------
// JobLog::overlapping against the all-jobs reference scan, including the
// boundary shapes the binary-searched slice must not get wrong.

std::vector<std::size_t> overlapping_reference(const joblog::JobLog& jobs,
                                               TimePoint begin, TimePoint end) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].start_time < end && jobs[i].end_time > begin) out.push_back(i);
  }
  return out;
}

TEST(Overlapping, EmptyLog) {
  joblog::JobLog empty;
  empty.finalize();
  EXPECT_TRUE(empty.overlapping(TimePoint(0), TimePoint(1'000'000)).empty());
}

TEST(Overlapping, DegenerateBeginEqualsEnd) {
  const joblog::JobLog& jobs = scenario().jobs;
  ASSERT_FALSE(jobs.empty());
  // A zero-width window [t, t): jobs straddling t still qualify under the
  // start < end, end > begin predicate, exactly as the linear scan had it.
  const TimePoint t = jobs[jobs.size() / 2].start_time + kUsecPerMin;
  EXPECT_EQ(jobs.overlapping(t, t), overlapping_reference(jobs, t, t));
}

TEST(Overlapping, AllJobsOverlap) {
  const joblog::JobLog& jobs = scenario().jobs;
  TimePoint lo = jobs[0].start_time;
  TimePoint hi = jobs[0].end_time;
  for (const joblog::JobRecord& j : jobs) {
    if (j.start_time < lo) lo = j.start_time;
    if (j.end_time > hi) hi = j.end_time;
  }
  const auto all = jobs.overlapping(lo - kUsecPerMin, hi + kUsecPerMin);
  ASSERT_EQ(all.size(), jobs.size());
  EXPECT_EQ(all, overlapping_reference(jobs, lo - kUsecPerMin, hi + kUsecPerMin));
}

TEST(Overlapping, SampledWindowsMatchReference) {
  const joblog::JobLog& jobs = scenario().jobs;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const joblog::JobRecord& a = jobs[rng.uniform_index(jobs.size())];
    const joblog::JobRecord& b = jobs[rng.uniform_index(jobs.size())];
    const TimePoint begin = std::min(a.start_time, b.end_time);
    const TimePoint end = std::max(a.start_time, b.end_time);
    EXPECT_EQ(jobs.overlapping(begin, end), overlapping_reference(jobs, begin, end));
  }
}

// ---------------------------------------------------------------------------
// IntervalIndex-backed running_at against the covers() scan it replaced.

std::vector<std::size_t> running_at_reference(const joblog::JobLog& jobs, TimePoint t,
                                              const bgp::Location& loc) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].start_time <= t && jobs[i].end_time > t && jobs[i].partition.covers(loc)) {
      out.push_back(i);
    }
  }
  return out;
}

TEST(IntervalIndex, RunningAtMatchesReferenceOnScenario) {
  const joblog::JobLog& jobs = scenario().jobs;
  const ras::FatalColumns& cols = scenario().ras.fatal_columns();
  ASSERT_FALSE(cols.empty());
  // Query at real event (time, location) pairs — including rack-level
  // locations, whose two-bucket merge path is easy to get wrong.
  const std::size_t step = std::max<std::size_t>(1, cols.size() / 200);
  for (std::size_t i = 0; i < cols.size(); i += step) {
    const bgp::Location loc = bgp::Location::from_packed(cols.loc_key[i]);
    EXPECT_EQ(jobs.running_at(cols.event_time[i], loc),
              running_at_reference(jobs, cols.event_time[i], loc))
        << "event row " << i << " at " << loc.to_string();
  }
}

// ---------------------------------------------------------------------------
// Boundary semantics, pinned with hand-placed jobs. Jobs occupy the
// half-open interval [start, end): a job *is* running at its start instant
// and is *not* running at its end instant, and the overlap predicate is
// start < window_end && end > window_begin. Every indexed query must agree
// with the brute-force references above at exactly these edges.

joblog::JobLog boundary_log() {
  joblog::JobLog jobs;
  const auto exec = jobs.intern_exec("/bin/toy");
  const auto user = jobs.intern_user("user000");
  const auto project = jobs.intern_project("project00");
  const auto add = [&](std::int64_t id, Usec start, Usec end, bgp::MidplaneId m,
                       int count) {
    joblog::JobRecord rec;
    rec.job_id = id;
    rec.exec_id = exec;
    rec.user_id = user;
    rec.project_id = project;
    rec.queue_time = TimePoint(start);
    rec.start_time = TimePoint(start);
    rec.end_time = TimePoint(end);
    rec.partition = bgp::Partition(m, count);
    jobs.append(rec);
  };
  add(1, 1000, 2000, 0, 1);  // the job whose edges the queries probe
  add(2, 2000, 3000, 0, 1);  // back-to-back successor on the same midplane
  add(3, 1500, 1500, 0, 1);  // zero-duration: never running anywhere
  add(4, 1000, 2000, 1, 1);  // same times, the rack's other midplane
  add(5, 500, 5000, 2, 2);   // wide partition spanning midplanes 2-3
  jobs.finalize();
  return jobs;
}

TEST(IntervalIndexBoundary, RunningAtJobEdges) {
  const joblog::JobLog jobs = boundary_log();
  const bgp::Location m0 = bgp::Location::midplane(0);

  // At the exact start instant the job is running; one tick before, not.
  EXPECT_EQ(jobs.running_at(TimePoint(1000), m0),
            running_at_reference(jobs, TimePoint(1000), m0));
  EXPECT_EQ(jobs.running_at(TimePoint(1000), m0), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(jobs.running_at(TimePoint(999), m0).empty());

  // At the exact end instant the job has stopped — and its back-to-back
  // successor on the same midplane has started: a handoff, never an overlap.
  EXPECT_EQ(jobs.running_at(TimePoint(2000), m0),
            running_at_reference(jobs, TimePoint(2000), m0));
  EXPECT_EQ(jobs.running_at(TimePoint(2000), m0), (std::vector<std::size_t>{4}));

  // A zero-duration job is running at no instant, not even its own start.
  const auto at_1500 = jobs.running_at(TimePoint(1500), m0);
  EXPECT_EQ(at_1500, running_at_reference(jobs, TimePoint(1500), m0));
  EXPECT_EQ(at_1500, (std::vector<std::size_t>{1}));
}

TEST(IntervalIndexBoundary, RunningAtRackMergesBothMidplanes) {
  const joblog::JobLog jobs = boundary_log();
  const bgp::Location rack0 = bgp::Location::rack(0);
  // Jobs 1 (midplane 0) and 4 (midplane 1) both run at t=1500 under rack 0;
  // the two-bucket merge must return them once each, index-sorted.
  EXPECT_EQ(jobs.running_at(TimePoint(1500), rack0),
            running_at_reference(jobs, TimePoint(1500), rack0));
  EXPECT_EQ(jobs.running_at(TimePoint(1500), rack0), (std::vector<std::size_t>{1, 2}));
  // A wide partition's job appears once even though it fills two buckets.
  const bgp::Location rack1 = bgp::Location::rack(1);
  EXPECT_EQ(jobs.running_at(TimePoint(1500), rack1), (std::vector<std::size_t>{0}));
}

TEST(OverlappingBoundary, WindowEdgesAreHalfOpen) {
  const joblog::JobLog jobs = boundary_log();

  // Job 1 ends exactly at the window's begin: excluded (end > begin fails).
  EXPECT_EQ(jobs.overlapping(TimePoint(2000), TimePoint(2500)),
            overlapping_reference(jobs, TimePoint(2000), TimePoint(2500)));
  for (const std::size_t i : jobs.overlapping(TimePoint(2000), TimePoint(2500))) {
    EXPECT_NE(jobs[i].job_id, 1);
  }

  // Job 2 starts exactly at the window's end: excluded (start < end fails).
  EXPECT_EQ(jobs.overlapping(TimePoint(500), TimePoint(2000)),
            overlapping_reference(jobs, TimePoint(500), TimePoint(2000)));
  for (const std::size_t i : jobs.overlapping(TimePoint(500), TimePoint(2000))) {
    EXPECT_NE(jobs[i].job_id, 2);
  }

  // A zero-duration job strictly inside the window *does* overlap it (its
  // [1500, 1500) interval intersects [1000, 2000) under the strict
  // inequalities) even though it is never running — the one place the two
  // predicates deliberately disagree.
  const auto wide = jobs.overlapping(TimePoint(1000), TimePoint(2000));
  EXPECT_EQ(wide, overlapping_reference(jobs, TimePoint(1000), TimePoint(2000)));
  bool saw_zero_duration = false;
  for (const std::size_t i : wide) saw_zero_duration |= jobs[i].job_id == 3;
  EXPECT_TRUE(saw_zero_duration);
}

TEST(OverlappingBoundary, RandomizedEdgeAlignedWindows) {
  const joblog::JobLog& jobs = scenario().jobs;
  Rng rng(13);
  // Windows whose edges are *exactly* job start/end times — the alignment a
  // uniform sampler almost never produces and binary searches get wrong.
  for (int i = 0; i < 100; ++i) {
    const joblog::JobRecord& a = jobs[rng.uniform_index(jobs.size())];
    const joblog::JobRecord& b = jobs[rng.uniform_index(jobs.size())];
    const TimePoint edges[2] = {rng.bernoulli(0.5) ? a.start_time : a.end_time,
                                rng.bernoulli(0.5) ? b.start_time : b.end_time};
    const TimePoint begin = std::min(edges[0], edges[1]);
    const TimePoint end = std::max(edges[0], edges[1]);
    EXPECT_EQ(jobs.overlapping(begin, end), overlapping_reference(jobs, begin, end))
        << "window [" << begin.usec() << ", " << end.usec() << ")";
    const bgp::Location loc = bgp::Location::midplane(
        static_cast<bgp::MidplaneId>(rng.uniform_index(bgp::Topology::kMidplanes)));
    EXPECT_EQ(jobs.running_at(begin, loc), running_at_reference(jobs, begin, loc));
    EXPECT_EQ(jobs.running_at(end, loc), running_at_reference(jobs, end, loc));
  }
}

// ---------------------------------------------------------------------------
// match_interruptions against the std::set-collecting reference matcher.

core::MatchResult match_reference(const filter::FilterPipelineResult& filtered,
                                  const joblog::JobLog& jobs, Usec window) {
  core::MatchResult result;
  result.jobs_by_group.resize(filtered.groups.size());
  result.group_by_job.assign(jobs.size(), std::nullopt);
  for (std::size_t g = 0; g < filtered.groups.size(); ++g) {
    const filter::EventGroup& group = filtered.groups[g];
    const TimePoint rep_time = filtered.fatal_events[group.rep].event_time;
    const TimePoint lo = rep_time - window;
    const TimePoint hi = rep_time + window;
    std::set<std::size_t> matched;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].end_time < lo || jobs[j].end_time > hi) continue;
      if (jobs[j].start_time > hi) continue;
      for (const std::size_t member : group.members) {
        if (jobs[j].partition.covers(filtered.fatal_events[member].location)) {
          matched.insert(j);
          break;
        }
      }
    }
    result.jobs_by_group[g].assign(matched.begin(), matched.end());
  }
  for (std::size_t g = 0; g < filtered.groups.size(); ++g) {
    for (std::size_t job_idx : result.jobs_by_group[g]) {
      if (!result.group_by_job[job_idx]) {
        result.group_by_job[job_idx] = g;
        result.interruptions.push_back({g, job_idx, jobs[job_idx].end_time});
      }
    }
  }
  std::sort(result.interruptions.begin(), result.interruptions.end(),
            [](const core::Interruption& a, const core::Interruption& b) {
              return a.time < b.time;
            });
  return result;
}

TEST(MatchInterruptions, EqualsSetBasedReferenceOnScenario) {
  const filter::FilterPipelineResult filtered =
      filter::run_filter_pipeline(scenario().ras, {});
  ASSERT_FALSE(filtered.groups.empty());
  const core::MatchConfig config;
  const core::MatchResult fast =
      core::match_interruptions(filtered, scenario().jobs, config);
  const core::MatchResult ref = match_reference(filtered, scenario().jobs, config.window);

  ASSERT_EQ(fast.jobs_by_group.size(), ref.jobs_by_group.size());
  for (std::size_t g = 0; g < fast.jobs_by_group.size(); ++g) {
    EXPECT_EQ(fast.jobs_by_group[g], ref.jobs_by_group[g]) << "group " << g;
  }
  EXPECT_EQ(fast.group_by_job, ref.group_by_job);
  ASSERT_EQ(fast.interruptions.size(), ref.interruptions.size());
  for (std::size_t i = 0; i < fast.interruptions.size(); ++i) {
    EXPECT_EQ(fast.interruptions[i].group, ref.interruptions[i].group);
    EXPECT_EQ(fast.interruptions[i].job, ref.interruptions[i].job);
    EXPECT_EQ(fast.interruptions[i].time, ref.interruptions[i].time);
  }
}

// ---------------------------------------------------------------------------
// CRC32: slicing-by-8 against known vectors and a bytewise reference.

std::uint32_t crc32_bytewise(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(bin::crc32("", 0), 0x00000000u);
  EXPECT_EQ(bin::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(bin::crc32("a", 1), 0xE8B7BE43u);
  const std::string quick = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(bin::crc32(quick.data(), quick.size()), 0x414FA339u);
}

TEST(Crc32, MatchesBytewiseReferenceAcrossLengthsAndAlignments) {
  Rng rng(11);
  std::string data(4096 + 16, '\0');
  for (char& c : data) c = static_cast<char>(rng.uniform_index(256));
  // Odd start offsets, and lengths around every boundary of both paths:
  // the 16-byte slicing round and bytewise tail of the table (every length
  // under 64, on every host), and on hosts with PCLMULQDQ the 64-byte entry
  // to the carry-less fold, its four-way rounds, the single 16-byte folds
  // after them and the table tail behind those.
  for (std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    for (std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
          std::size_t{15}, std::size_t{16}, std::size_t{17}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{127}, std::size_t{128},
          std::size_t{129}, std::size_t{1000}, std::size_t{4000}, std::size_t{4096 + 7}}) {
      ASSERT_LE(offset + len, data.size());
      EXPECT_EQ(bin::crc32(data.data() + offset, len),
                crc32_bytewise(data.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, MatchesBytewiseReferenceOnMultiMiBBuffersAtOddOffsets) {
  Rng rng(12);
  std::string data((std::size_t{3} << 20) + 64, '\0');
  for (char& c : data) c = static_cast<char>(rng.uniform_index(256));
  for (const auto& [offset, len] :
       {std::pair<std::size_t, std::size_t>{1, (std::size_t{3} << 20) + 13},
        std::pair<std::size_t, std::size_t>{7, (std::size_t{2} << 20) + 61},
        std::pair<std::size_t, std::size_t>{13, std::size_t{3} << 20}}) {
    ASSERT_LE(offset + len, data.size());
    EXPECT_EQ(bin::crc32(data.data() + offset, len),
              crc32_bytewise(data.data() + offset, len))
        << "offset " << offset << " len " << len;
  }
}

// ---------------------------------------------------------------------------
// Parallel binary read: identical events, accounting and errors.

void expect_logs_equal(const ras::RasLog& a, const ras::RasLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].recid, b[i].recid) << "record " << i;
    EXPECT_EQ(a[i].event_time, b[i].event_time) << "record " << i;
    EXPECT_EQ(a[i].errcode, b[i].errcode) << "record " << i;
    EXPECT_EQ(a[i].location, b[i].location) << "record " << i;
    EXPECT_EQ(a[i].serial, b[i].serial) << "record " << i;
    EXPECT_EQ(a[i].severity, b[i].severity) << "record " << i;
  }
  // The fatal columns the pooled reader gathers at emit (and rebases when it
  // closes holes) must be the ones the sequential reader builds.
  const ras::FatalColumns& fa = a.fatal_columns();
  const ras::FatalColumns& fb = b.fatal_columns();
  EXPECT_EQ(fa.event_time, fb.event_time);
  EXPECT_EQ(fa.errcode, fb.errcode);
  EXPECT_EQ(fa.loc_key, fb.loc_key);
  EXPECT_EQ(fa.log_index, fb.log_index);
}

void expect_reports_equal(const IngestReport& a, const IngestReport& b) {
  EXPECT_EQ(a.records_ok(), b.records_ok());
  EXPECT_EQ(a.total_malformed(), b.total_malformed());
  for (std::size_t r = 0; r < kIngestReasonCount; ++r) {
    EXPECT_EQ(a.malformed(static_cast<IngestReason>(r)),
              b.malformed(static_cast<IngestReason>(r)))
        << to_string(static_cast<IngestReason>(r));
  }
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].reason, b.samples()[i].reason);
    EXPECT_EQ(a.samples()[i].byte_offset, b.samples()[i].byte_offset);
    EXPECT_EQ(a.samples()[i].detail, b.samples()[i].detail);
  }
}

std::string scenario_ras_bytes() {
  std::stringstream buf;
  ras::write_binary(buf, scenario().ras);
  return buf.str();
}

TEST(ParallelBinaryRead, CleanFileMatchesSequential) {
  const std::string bytes = scenario_ras_bytes();
  par::ThreadPool pool(4);

  std::istringstream seq_in(bytes);
  IngestReport seq_rep;
  const ras::RasLog seq = ras::read_binary(seq_in, ras::default_catalog(), {.report = &seq_rep});
  std::istringstream par_in(bytes);
  IngestReport par_rep;
  const ras::RasLog par = ras::read_binary(
      par_in, ras::default_catalog(), {.report = &par_rep, .pool = &pool});
  expect_logs_equal(seq, par);
  expect_reports_equal(seq_rep, par_rep);
  EXPECT_EQ(par.size(), scenario().ras.size());
}

TEST(ParallelBinaryRead, DamagedFileMatchesSequentialInLenientMode) {
  par::ThreadPool pool(4);
  Rng rng(23);
  for (int round = 0; round < 8; ++round) {
    std::string bytes = scenario_ras_bytes();
    // Flip a few bits anywhere — headers, payloads, the dictionary.
    for (int f = 0; f < 3; ++f) {
      const std::size_t at = rng.uniform_index(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_index(8)));
    }
    std::istringstream seq_in(bytes);
    IngestReport seq_rep;
    const ras::RasLog seq = ras::read_binary(
        seq_in, ras::default_catalog(), {.mode = ParseMode::Lenient, .report = &seq_rep});
    std::istringstream par_in(bytes);
    IngestReport par_rep;
    const ras::RasLog par = ras::read_binary(
        par_in, ras::default_catalog(),
        {.mode = ParseMode::Lenient, .report = &par_rep, .pool = &pool});
    expect_logs_equal(seq, par);
    expect_reports_equal(seq_rep, par_rep);
  }
}

TEST(ParallelBinaryRead, StrictErrorsMatchSequentialByteForByte) {
  par::ThreadPool pool(4);
  std::string bytes = scenario_ras_bytes();
  // Corrupt one payload byte deep in the record stream: the strict error
  // must be the same CRC message, same offset, from both readers.
  std::size_t p = bytes.find("CBLK");
  for (int skip = 0; skip < 10; ++skip) p = bytes.find("CBLK", p + 1);
  ASSERT_NE(p, std::string::npos);
  bytes[p + 16] = static_cast<char>(bytes[p + 16] ^ 0x55);

  std::string seq_what;
  std::string par_what;
  try {
    std::istringstream in(bytes);
    ras::read_binary(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    seq_what = e.what();
  }
  try {
    std::istringstream in(bytes);
    ras::read_binary(in, ras::default_catalog(), {.pool = &pool});
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    par_what = e.what();
  }
  EXPECT_EQ(seq_what, par_what);
  EXPECT_NE(seq_what.find("CRC mismatch"), std::string::npos) << seq_what;
}

TEST(ParallelBinaryRead, TruncatedFileMatchesSequential) {
  par::ThreadPool pool(4);
  std::string bytes = scenario_ras_bytes();
  bytes.resize(bytes.size() * 2 / 3);  // cut mid-block

  std::istringstream seq_in(bytes);
  IngestReport seq_rep;
  const ras::RasLog seq = ras::read_binary(
      seq_in, ras::default_catalog(), {.mode = ParseMode::Lenient, .report = &seq_rep});
  std::istringstream par_in(bytes);
  IngestReport par_rep;
  const ras::RasLog par = ras::read_binary(
      par_in, ras::default_catalog(),
      {.mode = ParseMode::Lenient, .report = &par_rep, .pool = &pool});
  expect_logs_equal(seq, par);
  expect_reports_equal(seq_rep, par_rep);
  EXPECT_GT(seq_rep.malformed(IngestReason::BinaryFrame), 0u);
}

TEST(ParallelBinaryRead, SliceRejectsABlockLargerThanWhatIsLeft) {
  // The pooled reader's guard against writing past a chunk's slice: a block
  // declaring more records than remain is refused before it emits any.
  ras::RasEventArray events(10, ras::RasEvent{});
  ras::RasEventSlice slice(events.data(), 4, 7);
  EXPECT_EQ(slice.size(), 4u);
  EXPECT_NO_THROW(slice.admit(3));
  EXPECT_THROW(slice.admit(4), ras::RasEventSlice::Overflow);
  ras::RasEvent ev;
  ev.serial = 99;
  slice.push_back(ev);
  slice.push_back(ev);
  EXPECT_EQ(slice.size(), 6u);
  EXPECT_NO_THROW(slice.admit(1));
  EXPECT_THROW(slice.admit(2), ras::RasEventSlice::Overflow);
  EXPECT_EQ(events[4].serial, 99u);
  EXPECT_EQ(events[5].serial, 99u);
  EXPECT_EQ(events[6].serial, 0u);
}

// The pooled readers decode into slices of one presized array; holes left
// by lenient drops and exact-filter rejects are compacted afterwards, and a
// truncated file defers to the sequential reader. Every combination must
// reproduce the sequential read: events, RECIDs, fatal columns, the ingest
// report and the block counters.

/// The default catalog with every other errcode removed: a lenient read
/// against it drops the missing codes as UnknownErrcode throughout the file.
const ras::Catalog& reduced_catalog() {
  static const ras::Catalog catalog = [] {
    std::vector<ras::ErrcodeInfo> kept;
    const auto all = ras::default_catalog().all();
    for (std::size_t i = 0; i < all.size(); i += 2) kept.push_back(all[i]);
    return ras::Catalog(std::move(kept));
  }();
  return catalog;
}

struct ReadOutcome {
  ras::RasLog log;
  IngestReport rep;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t blocks_skipped = 0;
};

/// Fill a heap block of `bytes` with 0xA5 and free it, so the next
/// allocation of about that size reuses stale bytes instead of fresh zero
/// pages. The writes are volatile so the compiler cannot elide the block.
void dirty_heap(std::size_t bytes) {
  auto* junk = static_cast<volatile unsigned char*>(std::malloc(bytes));
  ASSERT_NE(junk, nullptr);
  for (std::size_t i = 0; i < bytes; ++i) junk[i] = 0xA5;
  std::free(const_cast<unsigned char*>(junk));
}

ReadOutcome read_ras(const std::string& bytes, const ras::Catalog& catalog,
                     ParseMode mode, const bin::ReadPredicate& pred,
                     par::ThreadPool* pool, std::size_t dirty_bytes = 0) {
  ReadOutcome out;
  obs::Collector col;
  ras::ReadOptions opts;
  opts.mode = mode;
  opts.report = &out.rep;
  opts.sink = &col;
  opts.pool = pool;
  opts.predicate = pred;
  std::istringstream in(bytes);
  if (dirty_bytes != 0) dirty_heap(dirty_bytes);
  out.log = ras::read_binary(in, catalog, opts);
  const auto snap = col.snapshot();
  out.blocks_total = snap.counter_value("ingest.ras_binary.blocks_total");
  out.blocks_decoded = snap.counter_value("ingest.ras_binary.blocks_decoded");
  out.blocks_skipped = snap.counter_value("ingest.ras_binary.blocks_skipped");
  return out;
}

/// The middle half of `log`'s time span on midplanes 0-7.
bin::ReadPredicate window_of(const ras::RasLog& log) {
  bin::ReadPredicate window;
  const std::int64_t span = log[log.size() - 1].event_time - log[0].event_time;
  window.time_begin = log[0].event_time + span / 4;
  window.time_end = log[0].event_time + span * 3 / 4;
  for (int m = 0; m < 8; ++m) window.midplanes.push_back(m);
  return window;
}

TEST(ParallelBinaryRead, PooledMatchesSequentialAcrossVersionsPoolsAndCases) {
  const ras::RasLog& log = scenario().ras;
  // The presize leaves the event array's slots unwritten. A log whose array
  // (3000 x 40 bytes) is below glibc's 128 KB mmap threshold comes from the
  // malloc heap, so before each pooled read of it the heap is dirtied: a slot
  // the decode never wrote, or a hole the compaction failed to close, would
  // then show 0xA5 bytes instead of zeros.
  const ras::RasLog small(
      ras::RasEventArray(log.events().begin(), log.events().begin() + 3000), log.catalog(),
      log.machine());

  struct Case {
    const char* name;
    const ras::RasLog* log;
    ParseMode mode;
    const ras::Catalog* catalog;
    bool predicate;
    bool truncate;
    bool dirty;
  };
  const Case cases[] = {
      {"strict intact", &log, ParseMode::Strict, &ras::default_catalog(), false, false,
       false},
      {"lenient reduced catalog", &log, ParseMode::Lenient, &reduced_catalog(), false, false,
       false},
      {"time and midplane predicate", &log, ParseMode::Strict, &ras::default_catalog(), true,
       false, false},
      {"truncated mid-block", &log, ParseMode::Lenient, &ras::default_catalog(), false, true,
       false},
      {"lenient reduced catalog, dirty heap", &small, ParseMode::Lenient, &reduced_catalog(),
       false, false, true},
      {"time and midplane predicate, dirty heap", &small, ParseMode::Strict,
       &ras::default_catalog(), true, false, true},
  };
  for (const std::uint32_t version : {2u, 3u}) {
    for (const Case& c : cases) {
      std::stringstream buf;
      ras::write_binary(buf, *c.log, ras::WriteOptions{.version = version});
      const std::string bytes = buf.str();
      const std::string input = c.truncate ? bytes.substr(0, bytes.size() * 2 / 3) : bytes;
      const bin::ReadPredicate pred = c.predicate ? window_of(*c.log) : bin::ReadPredicate{};
      const ReadOutcome seq = read_ras(input, *c.catalog, c.mode, pred, nullptr);
      // The cases exercise what they are named for.
      if (c.catalog != &ras::default_catalog()) {
        EXPECT_GT(seq.rep.malformed(IngestReason::UnknownErrcode), c.log->size() / 10);
      }
      if (c.predicate) {
        EXPECT_GT(seq.log.size(), 0u);
        EXPECT_LT(seq.log.size() * 4, c.log->size());
      }
      if (c.truncate) {
        EXPECT_GT(seq.rep.malformed(IngestReason::BinaryFrame), 0u);
      }
      // The event array holds the records of the blocks the read decodes. A
      // buffer of exactly that size takes the heap chunk the array would
      // (such as the previous read's array, which holds the same records).
      const std::size_t dirty_bytes =
          c.dirty ? std::min<std::size_t>(c.log->size(),
                                          seq.blocks_decoded * ras::kRasRecordsPerBlock) *
                        sizeof(ras::RasEvent)
                  : 0;
      for (const std::size_t threads : {1, 2, 3, 8}) {
        SCOPED_TRACE(std::string(c.name) + ", v" + std::to_string(version) + ", pool of " +
                     std::to_string(threads));
        par::ThreadPool pool(threads);
        const ReadOutcome got = read_ras(input, *c.catalog, c.mode, pred, &pool, dirty_bytes);
        expect_logs_equal(seq.log, got.log);
        expect_reports_equal(seq.rep, got.rep);
        EXPECT_EQ(seq.blocks_total, got.blocks_total);
        EXPECT_EQ(seq.blocks_decoded, got.blocks_decoded);
        EXPECT_EQ(seq.blocks_skipped, got.blocks_skipped);
      }
    }
  }
}

}  // namespace
}  // namespace coral
