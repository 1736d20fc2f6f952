#include <gtest/gtest.h>

#include <sstream>

#include "coral/bgp/location.hpp"
#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/ras/catalog.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral {
namespace {

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::small_scenario(111, 10));
  return result;
}

TEST(RasBinary, RoundTripsExactly) {
  std::stringstream buf;
  ras::write_binary(buf, data().ras);
  const ras::RasLog parsed = ras::read_binary(buf);
  ASSERT_EQ(parsed.size(), data().ras.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].event_time, data().ras[i].event_time);
    EXPECT_EQ(parsed[i].location, data().ras[i].location);
    EXPECT_EQ(parsed[i].errcode, data().ras[i].errcode);
    EXPECT_EQ(parsed[i].severity, data().ras[i].severity);
    EXPECT_EQ(parsed[i].serial, data().ras[i].serial);
    EXPECT_EQ(parsed[i].recid, data().ras[i].recid);
  }
}

TEST(RasBinary, MuchSmallerThanCsv) {
  std::stringstream bin, csv;
  ras::write_binary(bin, data().ras);
  data().ras.write_csv(csv);
  EXPECT_LT(bin.str().size() * 3, csv.str().size());
}

TEST(RasBinary, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(ras::read_binary(empty), ParseError);
  std::stringstream junk("not a log at all, definitely");
  EXPECT_THROW(ras::read_binary(junk), ParseError);
  // Truncated: valid prefix, cut in the middle of the records.
  std::stringstream buf;
  ras::write_binary(buf, data().ras);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream cut(bytes);
  EXPECT_THROW(ras::read_binary(cut), ParseError);
}

TEST(JobBinary, RoundTripsExactly) {
  std::stringstream buf;
  joblog::write_binary(buf, data().jobs);
  const joblog::JobLog parsed = joblog::read_binary(buf);
  ASSERT_EQ(parsed.size(), data().jobs.size());
  EXPECT_EQ(parsed.exec_files(), data().jobs.exec_files());
  EXPECT_EQ(parsed.users(), data().jobs.users());
  EXPECT_EQ(parsed.projects(), data().jobs.projects());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].job_id, data().jobs[i].job_id);
    EXPECT_EQ(parsed[i].exec_id, data().jobs[i].exec_id);
    EXPECT_EQ(parsed[i].queue_time, data().jobs[i].queue_time);
    EXPECT_EQ(parsed[i].start_time, data().jobs[i].start_time);
    EXPECT_EQ(parsed[i].end_time, data().jobs[i].end_time);
    EXPECT_EQ(parsed[i].partition, data().jobs[i].partition);
    EXPECT_EQ(parsed[i].exit_code, data().jobs[i].exit_code);
  }
}

TEST(JobBinary, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(joblog::read_binary(empty), ParseError);
  std::stringstream wrong;
  ras::write_binary(wrong, data().ras);  // a RAS file is not a job file
  EXPECT_THROW(joblog::read_binary(wrong), ParseError);
}

namespace golden {

void put_bytes(std::string& s, const void* p, std::size_t n) {
  s.append(static_cast<const char*>(p), n);
}
template <typename T>
void put(std::string& s, T v) {
  put_bytes(s, &v, sizeof v);
}
void put_str(std::string& s, const std::string& v) {
  put<std::uint16_t>(s, static_cast<std::uint16_t>(v.size()));
  s += v;
}
std::string frame(const std::string& payload) {
  std::string out("CBLK");
  put<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  put<std::uint32_t>(out, bin::crc32(payload.data(), payload.size()));
  return out + payload;
}

}  // namespace golden

// The v2 byte layout, assembled independently from its documented schema.
// Guards against accidental format drift (field reorder, width change,
// nondeterministic struct padding) that a round-trip test cannot see.
TEST(RasBinary, GoldenByteLayout) {
  const ras::Catalog tiny({ras::ErrcodeInfo{.name = "ALPHA"},
                           ras::ErrcodeInfo{.name = "BETA"}});
  ras::RasEventArray events(2, ras::RasEvent{});
  events[0].event_time = TimePoint(1000000);
  events[0].location = bgp::Location::rack(3);
  events[0].errcode = 1;
  events[0].severity = ras::Severity::Fatal;
  events[0].serial = 7;
  events[1].event_time = TimePoint(2000000);
  events[1].location = bgp::Location::midplane(5);
  events[1].errcode = 0;
  events[1].severity = ras::Severity::Info;
  events[1].serial = 9;
  const ras::RasLog log(std::move(events), tiny);

  std::stringstream buf1, buf2;
  ras::write_binary(buf1, log);
  ras::write_binary(buf2, log);
  // Deterministic output, including the struct padding bytes.
  EXPECT_EQ(buf1.str(), buf2.str());

  using golden::frame;
  using golden::put;
  using golden::put_str;
  std::string expect("CRAS");
  put<std::uint32_t>(expect, 2);  // format version

  std::string dict;
  put<char>(dict, 'D');
  put<std::uint32_t>(dict, 2);  // catalog size
  put_str(dict, "ALPHA");
  put_str(dict, "BETA");
  put<std::uint64_t>(dict, 2);  // total record count
  expect += frame(dict) + frame(dict);  // written twice for redundancy

  std::string recs;
  put<char>(recs, 'R');
  put<std::uint32_t>(recs, 2);  // records in this block
  for (std::size_t i = 0; i < log.size(); ++i) {
    put<std::int64_t>(recs, log[i].event_time.usec());
    put<std::uint32_t>(recs, log[i].location.packed());
    put<std::uint32_t>(recs, static_cast<std::uint32_t>(log[i].errcode));
    put<std::uint32_t>(recs, log[i].serial);
    put<std::uint8_t>(recs, static_cast<std::uint8_t>(log[i].severity));
    recs.append(3, '\0');  // pad bytes are zeroed, never uninitialized
  }
  expect += frame(recs);

  EXPECT_EQ(buf1.str(), expect);
}

TEST(Binary, AnalysisIdenticalAfterBinaryRoundTrip) {
  std::stringstream rbuf, jbuf;
  ras::write_binary(rbuf, data().ras);
  joblog::write_binary(jbuf, data().jobs);
  const ras::RasLog ras2 = ras::read_binary(rbuf);
  const joblog::JobLog jobs2 = joblog::read_binary(jbuf);
  const auto a = core::run_coanalysis(data().ras, data().jobs);
  const auto b = core::run_coanalysis(ras2, jobs2);
  EXPECT_EQ(a.filtered.groups.size(), b.filtered.groups.size());
  EXPECT_EQ(a.matches.interruptions.size(), b.matches.interruptions.size());
  EXPECT_EQ(a.system_interruptions, b.system_interruptions);
}

}  // namespace
}  // namespace coral
