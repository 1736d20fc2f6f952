#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corrupt.hpp"

#include "coral/common/error.hpp"
#include "coral/context.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/stream/session.hpp"

namespace coral {
namespace {

// ---------------------------------------------------------------------------
// Fixtures: exact-content logs serialized to binary-v2 bytes, so parity
// assertions can compare the session's decode against the offline readers
// byte for byte.

ras::RasLog make_ras_log(std::size_t n) {
  const ras::Catalog& cat = ras::default_catalog();
  const TimePoint base = TimePoint::from_calendar(2009, 1, 5);
  ras::RasEventArray events(n, ras::RasEvent{});
  for (std::size_t i = 0; i < n; ++i) {
    ras::RasEvent& ev = events[i];
    ev.event_time = base + static_cast<Usec>(i) * kUsecPerMin;
    ev.location = bgp::Location::midplane(static_cast<int>(i % 80));
    ev.errcode = i % 2 == 0 ? cat.fatal_ids()[i % cat.fatal_ids().size()]
                            : cat.nonfatal_ids()[i % cat.nonfatal_ids().size()];
    ev.severity = i % 2 == 0 ? ras::Severity::Fatal : ras::Severity::Info;
    ev.serial = static_cast<std::uint32_t>(i);
  }
  return ras::RasLog(std::move(events), cat);
}

joblog::JobLog make_job_log(std::size_t n) {
  const TimePoint base = TimePoint::from_calendar(2009, 1, 5);
  joblog::JobLog log;
  for (std::size_t i = 0; i < n; ++i) {
    joblog::JobRecord j;
    j.job_id = static_cast<std::int64_t>(1000 + i);
    j.exec_id = log.intern_exec("/bin/app" + std::to_string(i % 7));
    j.user_id = log.intern_user("user" + std::to_string(i % 5));
    j.project_id = log.intern_project("proj" + std::to_string(i % 3));
    j.start_time = base + static_cast<Usec>(i) * 10 * kUsecPerMin;
    j.queue_time = j.start_time - 5 * kUsecPerMin;
    j.end_time = j.start_time + 30 * kUsecPerMin;
    j.partition = bgp::Partition(static_cast<int>(i % 40) * 2, 2);
    j.exit_code = i % 4 == 0 ? 137 : 0;
    log.append(j);
  }
  log.finalize();
  return log;
}

std::string ras_bytes(const ras::RasLog& log) {
  std::stringstream buf;
  ras::write_binary(buf, log);
  return buf.str();
}

std::string job_bytes(const joblog::JobLog& log) {
  std::stringstream buf;
  joblog::write_binary(buf, log);
  return buf.str();
}

/// What the offline batch engine says about one (possibly damaged) byte
/// pair: the ground truth every session run must reproduce exactly.
struct Offline {
  ras::RasLog ras;
  joblog::JobLog jobs;
  IngestReport ras_rep, job_rep;
  std::uint64_t result_fp = 0;
  std::uint64_t log_fp = 0;
};

Offline offline_run(const std::string& ras_image, const std::string& job_image,
                    ParseMode mode) {
  Offline off;
  std::istringstream ras_in(ras_image), job_in(job_image);
  off.ras = ras::read_binary(
      ras_in, ras::default_catalog(), {.mode = mode, .report = &off.ras_rep});
  off.jobs = joblog::read_binary(job_in, {.mode = mode, .report = &off.job_rep});
  off.log_fp = fleet::log_fingerprint(off.ras, off.jobs);
  off.result_fp =
      fleet::result_fingerprint(core::run_coanalysis(off.ras, off.jobs));
  return off;
}

/// Feed both byte images through a session in a seed-derived random
/// interleaving: random chunk sizes, random source order, occasional pumps.
stream::SessionResult session_run(const std::string& ras_image,
                                  const std::string& job_image, ParseMode mode,
                                  std::uint64_t seed) {
  stream::SessionConfig cfg;
  cfg.mode = mode;
  stream::Session session("t" + std::to_string(seed), cfg, Context{});
  Rng rng(seed);
  std::string_view feeds[2] = {ras_image, job_image};
  while (!feeds[0].empty() || !feeds[1].empty()) {
    const std::size_t pick =
        feeds[0].empty() ? 1 : (feeds[1].empty() ? 0 : rng.uniform_index(2));
    std::string_view& rest = feeds[pick];
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform_index(4096), rest.size());
    const auto src = pick == 0 ? stream::Source::Ras : stream::Source::Jobs;
    EXPECT_EQ(session.feed(src, rest.substr(0, n)), stream::Admission::Accepted)
        << "seed " << seed;
    rest.remove_prefix(n);
    if (rng.uniform_index(4) == 0) session.pump();
  }
  return session.finalize();
}

void expect_reports_equal(const IngestReport& got, const IngestReport& want,
                          std::uint64_t seed) {
  EXPECT_EQ(got.records_ok(), want.records_ok()) << "seed " << seed;
  EXPECT_EQ(got.total_malformed(), want.total_malformed()) << "seed " << seed;
  for (int r = 0; r < static_cast<int>(kIngestReasonCount); ++r) {
    const auto reason = static_cast<IngestReason>(r);
    EXPECT_EQ(got.malformed(reason), want.malformed(reason))
        << "seed " << seed << " reason " << r;
  }
}

// ---------------------------------------------------------------------------
// The parity pin: any interleaving of feeds must be byte-identical to the
// offline batch engine on the same logs.

TEST(SessionParity, RandomInterleavingsMatchOfflineEngine) {
  const std::string ras_image = ras_bytes(make_ras_log(700));
  const std::string job_image = job_bytes(make_job_log(300));
  const Offline off = offline_run(ras_image, job_image, ParseMode::Strict);
  ASSERT_EQ(off.ras.size(), 700u);
  ASSERT_EQ(off.jobs.size(), 300u);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    stream::SessionResult got;
    ASSERT_NO_FATAL_FAILURE(
        got = session_run(ras_image, job_image, ParseMode::Strict, seed));
    EXPECT_EQ(fleet::log_fingerprint(got.ras, got.jobs), off.log_fp)
        << "seed " << seed;
    EXPECT_EQ(fleet::result_fingerprint(got.analysis), off.result_fp)
        << "seed " << seed;
    expect_reports_equal(got.ras_report, off.ras_rep, seed);
    expect_reports_equal(got.jobs_report, off.job_rep, seed);
  }
}

TEST(SessionParity, LenientCorruptionAccountingMatchesOffline) {
  const std::string ras_clean = ras_bytes(make_ras_log(900));
  const std::string job_clean = job_bytes(make_job_log(400));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng corrupt_rng(seed);
    const std::string ras_bad = testing::flip_bits(ras_clean, corrupt_rng, 5);
    const std::string job_bad =
        testing::flip_bits(testing::truncate_bytes(job_clean, corrupt_rng, 0.4),
                           corrupt_rng, 2);
    const Offline off = offline_run(ras_bad, job_bad, ParseMode::Lenient);
    stream::SessionResult got;
    ASSERT_NO_FATAL_FAILURE(
        got = session_run(ras_bad, job_bad, ParseMode::Lenient, 100 + seed));
    EXPECT_EQ(fleet::log_fingerprint(got.ras, got.jobs), off.log_fp)
        << "seed " << seed;
    EXPECT_EQ(fleet::result_fingerprint(got.analysis), off.result_fp)
        << "seed " << seed;
    expect_reports_equal(got.ras_report, off.ras_rep, seed);
    expect_reports_equal(got.jobs_report, off.job_rep, seed);
  }
}

TEST(SessionParity, ConcurrentFeedersWithBackgroundPumping) {
  const std::string ras_image = ras_bytes(make_ras_log(1200));
  const std::string job_image = job_bytes(make_job_log(500));
  const Offline off = offline_run(ras_image, job_image, ParseMode::Strict);
  stream::SessionConfig cfg;
  cfg.mode = ParseMode::Strict;
  stream::Session session("concurrent", cfg, Context{});
  auto feeder = [&session](stream::Source src, const std::string& image,
                           std::uint64_t seed) {
    Rng rng(seed);
    std::string_view rest = image;
    while (!rest.empty()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform_index(2048), rest.size());
      while (session.feed(src, rest.substr(0, n)) != stream::Admission::Accepted) {
        session.pump();
      }
      rest.remove_prefix(n);
    }
  };
  std::thread ras_thread(feeder, stream::Source::Ras, std::cref(ras_image), 11);
  std::thread job_thread(feeder, stream::Source::Jobs, std::cref(job_image), 22);
  // A third participant pumps and snapshots while the feeders run — the
  // live-counter path the /metrics scraper exercises in production.
  std::thread pumper([&session] {
    for (int i = 0; i < 50; ++i) {
      session.pump();
      (void)session.snapshot();
    }
  });
  ras_thread.join();
  job_thread.join();
  pumper.join();
  const stream::SessionResult got = session.finalize();
  EXPECT_EQ(fleet::log_fingerprint(got.ras, got.jobs), off.log_fp);
  EXPECT_EQ(fleet::result_fingerprint(got.analysis), off.result_fp);
}

// ---------------------------------------------------------------------------
// Admission control: quotas, rejection, shedding — with exact accounting.

TEST(SessionAdmission, RejectsOverQuotaUntilPumped) {
  stream::SessionConfig cfg;
  cfg.queue_bytes = 1024;
  stream::Session session("quota", cfg, Context{});
  const std::string chunk(800, 'x');
  EXPECT_EQ(session.feed(stream::Source::Ras, chunk), stream::Admission::Accepted);
  EXPECT_EQ(session.feed(stream::Source::Ras, chunk), stream::Admission::Rejected);
  stream::SessionStats s = session.snapshot();
  EXPECT_EQ(s.bytes_accepted, 800u);
  EXPECT_EQ(s.backlog_bytes, 800u);
  session.pump();
  // Lenient garbage is held as a potential partial frame, not consumed —
  // but it left the queue, so the quota admits the next chunk.
  EXPECT_EQ(session.feed(stream::Source::Ras, chunk), stream::Admission::Accepted);
  EXPECT_EQ(session.snapshot().bytes_accepted, 1600u);
}

TEST(SessionAdmission, OversizedChunkAdmittedOnEmptyBacklog) {
  stream::SessionConfig cfg;
  cfg.queue_bytes = 64;
  stream::Session session("oversized", cfg, Context{});
  // Larger than the whole quota, but the backlog is empty: admitting it is
  // the only way a lossless feeder of big chunks can ever make progress.
  EXPECT_EQ(session.feed(stream::Source::Jobs, std::string(1000, 'y')),
            stream::Admission::Accepted);
  EXPECT_EQ(session.feed(stream::Source::Jobs, "more"),
            stream::Admission::Rejected);
}

TEST(SessionAdmission, QuotaSizedChunksCompleteLosslessly) {
  // A lossless feeder whose chunks are as large as the quota: after the
  // first pump the assembler holds a partial frame that only the next chunk
  // can complete. The empty queue must admit that chunk; counting the
  // partial frame against the quota would make this loop spin forever.
  const std::string ras_image = ras_bytes(make_ras_log(400000));
  const std::string job_image = job_bytes(make_job_log(200));
  const Offline off = offline_run(ras_image, job_image, ParseMode::Strict);
  stream::SessionConfig cfg;
  cfg.mode = ParseMode::Strict;
  const std::size_t chunk = cfg.queue_bytes;
  ASSERT_GT(ras_image.size(), 2 * chunk);  // a full-size second chunk
  stream::Session session("bigchunks", cfg, Context{});
  for (const auto& [src, image] : {std::pair{stream::Source::Ras, &ras_image},
                                   std::pair{stream::Source::Jobs, &job_image}}) {
    std::string_view rest = *image;
    while (!rest.empty()) {
      const std::string_view piece = rest.substr(0, chunk);
      for (int tries = 0; session.feed(src, piece) == stream::Admission::Rejected; ++tries) {
        ASSERT_LT(tries, 8) << "feed/pump retry loop is not making progress";
        session.pump();
      }
      rest.remove_prefix(piece.size());
    }
  }
  const stream::SessionResult got = session.finalize();
  EXPECT_EQ(got.ras.size(), 400000u);
  EXPECT_EQ(fleet::log_fingerprint(got.ras, got.jobs), off.log_fp);
  EXPECT_EQ(fleet::result_fingerprint(got.analysis), off.result_fp);
}

TEST(SessionAdmission, ShedPolicyCountsExactly) {
  obs::Collector obs;
  stream::SessionConfig cfg;
  cfg.queue_bytes = 1024;
  cfg.overflow = stream::SessionConfig::Overflow::Shed;
  Context ctx;
  ctx.with_obs(&obs);
  stream::Session session("shed", cfg, ctx);
  ASSERT_EQ(session.feed(stream::Source::Ras, std::string(1000, 'a')),
            stream::Admission::Accepted);
  EXPECT_EQ(session.feed(stream::Source::Ras, std::string(300, 'b')),
            stream::Admission::Shed);
  EXPECT_EQ(session.feed(stream::Source::Ras, std::string(50, 'c')),
            stream::Admission::Shed);
  const stream::SessionStats s = session.snapshot();
  EXPECT_EQ(s.bytes_accepted, 1000u);
  EXPECT_EQ(s.bytes_shed, 350u);
  EXPECT_EQ(s.chunks_shed, 2u);
  // The obs counters tell the same story.
  const obs::Snapshot snap = obs.snapshot();
  EXPECT_EQ(snap.counter_value("session.bytes.accepted"), 1000u);
  EXPECT_EQ(snap.counter_value("session.bytes.shed"), 350u);
}

// ---------------------------------------------------------------------------
// Lifecycle edges.

TEST(SessionLifecycle, FeedAfterFinalizeIsRejected) {
  stream::Session session("done", {}, Context{});
  const std::string ras_image = ras_bytes(make_ras_log(64));
  ASSERT_EQ(session.feed(stream::Source::Ras, ras_image), stream::Admission::Accepted);
  ASSERT_EQ(session.feed(stream::Source::Jobs, job_bytes(make_job_log(32))),
            stream::Admission::Accepted);
  (void)session.finalize();
  EXPECT_EQ(session.feed(stream::Source::Ras, ras_image), stream::Admission::Rejected);
  EXPECT_TRUE(session.snapshot().finalized);
}

TEST(SessionLifecycle, DoubleFinalizeThrows) {
  stream::Session session("twice", {}, Context{});
  ASSERT_EQ(session.feed(stream::Source::Ras, ras_bytes(make_ras_log(64))),
            stream::Admission::Accepted);
  ASSERT_EQ(session.feed(stream::Source::Jobs, job_bytes(make_job_log(32))),
            stream::Admission::Accepted);
  (void)session.finalize();
  EXPECT_THROW((void)session.finalize(), InvalidArgument);
}

TEST(SessionLifecycle, StrictModeBadMagicThrowsOnPump) {
  stream::SessionConfig cfg;
  cfg.mode = ParseMode::Strict;
  stream::Session session("strict", cfg, Context{});
  ASSERT_EQ(session.feed(stream::Source::Ras, "NOTALOGX and then some"),
            stream::Admission::Accepted);
  EXPECT_THROW(session.pump(), ParseError);
}

TEST(SessionLifecycle, StrictModeTruncatedHeaderThrowsAtFinalize) {
  stream::SessionConfig cfg;
  cfg.mode = ParseMode::Strict;
  stream::Session session("stub", cfg, Context{});
  ASSERT_EQ(session.feed(stream::Source::Jobs, "CJ"), stream::Admission::Accepted);
  session.pump();  // 2 bytes: not enough to judge the header yet
  EXPECT_THROW((void)session.finalize(), ParseError);
}

TEST(SessionLifecycle, SnapshotTracksLiveProgress) {
  stream::Session session("live", {}, Context{});
  const std::string image = ras_bytes(make_ras_log(256));
  const std::string jobs_image = job_bytes(make_job_log(64));
  ASSERT_EQ(session.feed(stream::Source::Ras, image), stream::Admission::Accepted);
  stream::SessionStats before = session.snapshot();
  EXPECT_EQ(before.backlog_bytes, image.size());
  EXPECT_EQ(before.ras_records, 0u);
  EXPECT_FALSE(before.finalized);
  session.flush();
  stream::SessionStats after = session.snapshot();
  EXPECT_EQ(after.backlog_bytes, 0u);
  EXPECT_EQ(after.ras_records, 256u);
  EXPECT_EQ(after.bytes_decoded, image.size());
  ASSERT_EQ(session.feed(stream::Source::Jobs, jobs_image), stream::Admission::Accepted);
  const stream::SessionResult r = session.finalize();
  EXPECT_EQ(r.ras.size(), 256u);
  EXPECT_EQ(r.jobs.size(), 64u);
  EXPECT_TRUE(session.snapshot().finalized);
}

TEST(SessionLifecycle, EmptySessionFinalizesToEmptyResult) {
  // A tenant that never received data finalizes to the defined empty
  // analysis — the same one the offline engine gives two empty logs.
  stream::Session session("empty", {}, Context{});
  const stream::SessionResult r = session.finalize();
  EXPECT_TRUE(session.snapshot().finalized);
  EXPECT_TRUE(r.ras.empty());
  EXPECT_TRUE(r.jobs.empty());
  EXPECT_EQ(r.analysis.interruption_count(), 0u);
  EXPECT_TRUE(r.analysis.filtered.groups.empty());
  for (const core::FeatureRanking& ranking : r.analysis.vulnerability.features) {
    EXPECT_TRUE(ranking.ranked.empty());
  }
  EXPECT_TRUE(r.analysis.fatal_before_jobfilter.samples_sec.empty());
  EXPECT_TRUE(r.analysis.interruptions_per_day.empty());

  const ras::RasLog no_ras(ras::RasEventArray{});
  joblog::JobLog no_jobs;
  no_jobs.finalize();
  EXPECT_EQ(fleet::result_fingerprint(r.analysis),
            fleet::result_fingerprint(core::run_coanalysis(no_ras, no_jobs)));
}

}  // namespace
}  // namespace coral
