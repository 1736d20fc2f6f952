#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corrupt.hpp"

#include "coral/common/error.hpp"
#include "coral/fleet/client.hpp"
#include "coral/fleet/daemon.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/machine/model.hpp"
#include "coral/ras/binary_io.hpp"

namespace coral {
namespace {

// ---------------------------------------------------------------------------
// Fixtures (the constructed logs test_session.cpp uses, kept machine-legal
// for both bgp and bgq: midplanes 0..71 and power-of-two partitions).

ras::RasLog make_ras_log(std::size_t n) {
  const ras::Catalog& cat = ras::default_catalog();
  const TimePoint base = TimePoint::from_calendar(2009, 1, 5);
  ras::RasEventArray events(n, ras::RasEvent{});
  for (std::size_t i = 0; i < n; ++i) {
    ras::RasEvent& ev = events[i];
    ev.event_time = base + static_cast<Usec>(i) * kUsecPerMin;
    ev.location = bgp::Location::midplane(static_cast<int>(i % 72));
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
    j.partition = bgp::Partition(static_cast<int>(i % 36) * 2, 2);
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

std::string offline_result_fp(const std::string& ras_image,
                              const std::string& job_image, ParseMode mode,
                              const machine::MachineModel& machine) {
  std::istringstream ras_in(ras_image), job_in(job_image);
  const ras::RasLog ras_log = ras::read_binary(
      ras_in, ras::default_catalog(), {.mode = mode, .machine = &machine});
  const joblog::JobLog job_log =
      joblog::read_binary(job_in, {.mode = mode, .machine = &machine});
  Context ctx;
  ctx.with_machine(machine);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fleet::result_fingerprint(
                    core::run_coanalysis(ras_log, job_log, {}, ctx))));
  return buf;
}

/// A daemon bound to ephemeral localhost ports, stopped at scope exit.
struct DaemonFixture {
  fleet::Daemon daemon;
  explicit DaemonFixture(fleet::DaemonConfig cfg = {}) : daemon(std::move(cfg)) {
    daemon.start();
  }
  ~DaemonFixture() { daemon.stop(); }
  int port() const { return daemon.wire_port(); }
};

// ---------------------------------------------------------------------------
// Wire protocol plumbing.

TEST(FleetWire, HandshakeRoundTrips) {
  const fleet::Handshake hs{"tenant-1", "bgq", ParseMode::Strict, true};
  const std::string msg = fleet::encode_handshake(hs);
  fleet::MessageReader reader;
  reader.push(msg);
  std::string got;
  ASSERT_TRUE(reader.next(got));
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0], fleet::kMsgHello);
  const fleet::Handshake back =
      fleet::decode_handshake(std::string_view(got).substr(1));
  EXPECT_EQ(back.tenant, hs.tenant);
  EXPECT_EQ(back.machine, hs.machine);
  EXPECT_EQ(back.mode, hs.mode);
  EXPECT_EQ(back.shed_overflow, hs.shed_overflow);
}

TEST(FleetWire, MessageReaderReassemblesByteAtATime) {
  const std::string wire = fleet::encode_message(fleet::kMsgRasData, "payload!") +
                           fleet::encode_message(fleet::kMsgFlush, "");
  fleet::MessageReader reader;
  std::vector<std::string> got;
  std::string msg;
  for (const char c : wire) {
    reader.push(std::string_view(&c, 1));
    while (reader.next(msg)) got.push_back(msg);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::string(1, fleet::kMsgRasData) + "payload!");
  EXPECT_EQ(got[1], std::string(1, fleet::kMsgFlush));
}

TEST(FleetWire, DamagedFrameIsProtocolError) {
  std::string wire = fleet::encode_message(fleet::kMsgRasData, "payload!");
  wire[bin::kBlockHeaderBytes + 3] ^= 0x40;  // corrupt the payload -> CRC fails
  fleet::MessageReader reader;
  std::string msg;
  reader.push(wire);
  EXPECT_THROW((void)reader.next(msg), ParseError);
}

TEST(FleetWire, RejectsBadTenantNames) {
  EXPECT_TRUE(fleet::valid_tenant_name("prod-bgp_01.anl"));
  EXPECT_FALSE(fleet::valid_tenant_name(""));
  EXPECT_FALSE(fleet::valid_tenant_name("has space"));
  EXPECT_FALSE(fleet::valid_tenant_name("quote\"label"));
  EXPECT_FALSE(fleet::valid_tenant_name(std::string(65, 'a')));
  EXPECT_THROW(
      (void)fleet::decode_handshake("\x05\x00no\"no\x03\x00""bgp\x00\x00"),
      ParseError);
}

// ---------------------------------------------------------------------------
// Daemon end-to-end: tenants, parity, liveness.

TEST(FleetDaemon, TwoConcurrentTenantsOnDifferentMachinesReachParity) {
  DaemonFixture fx;
  struct Feed {
    const char* tenant;
    const char* machine_name;
    const machine::MachineModel* machine;
    std::string ras_image, job_image;
    fleet::ReplyFields reply;
  };
  Feed feeds[2] = {
      {"intrepid", "bgp", &machine::bgp_model(),
       ras_bytes(make_ras_log(800)), job_bytes(make_job_log(300)), {}},
      {"mira", "bgq", &machine::bgq_model(),
       ras_bytes(make_ras_log(500)), job_bytes(make_job_log(200)), {}},
  };
  std::thread feeders[2];
  for (int i = 0; i < 2; ++i) {
    feeders[i] = std::thread([&fx, &feeds, i] {
      Feed& f = feeds[i];
      fleet::WireClient client("127.0.0.1", fx.port());
      client.handshake({f.tenant, f.machine_name, ParseMode::Strict, false});
      // Small chunks force many interleaved wire messages across tenants.
      client.send_data(stream::Source::Ras, f.ras_image, 3000);
      client.send_data(stream::Source::Jobs, f.job_image, 3000);
      f.reply = client.finalize();
    });
  }
  for (std::thread& t : feeders) t.join();
  for (Feed& f : feeds) {
    EXPECT_EQ(f.reply.at("result_fp"),
              offline_result_fp(f.ras_image, f.job_image, ParseMode::Strict,
                                *f.machine))
        << f.tenant;
    EXPECT_EQ(f.reply.at("ras_records"),
              std::to_string(f.machine == &machine::bgp_model() ? 800 : 500))
        << f.tenant;
  }
  // Both tenants visible, finalized, on their own machines.
  const auto tenants = fx.daemon.tenants();
  ASSERT_EQ(tenants.size(), 2u);
  for (const auto& t : tenants) EXPECT_TRUE(t.stats.finalized) << t.name;
}

TEST(FleetDaemon, QuotaSizedWireMessagesComplete) {
  // Data messages as large as the per-source quota: once the first one is
  // decoded, the tenant's assembler holds a partial frame that only the next
  // message can complete, so admission must not count it against the quota,
  // or the connection's feed/pump retry loop can never make progress.
  DaemonFixture fx;
  const std::size_t chunk = fleet::DaemonConfig{}.queue_bytes;
  const std::string ras_image = ras_bytes(make_ras_log(400000));
  const std::string job_image = job_bytes(make_job_log(300));
  ASSERT_GT(ras_image.size(), 2 * chunk);  // a full-size second chunk
  fleet::WireClient client("127.0.0.1", fx.port());
  client.handshake({"bigchunks", "bgp", ParseMode::Strict, false});
  client.send_data(stream::Source::Ras, ras_image, chunk);
  client.send_data(stream::Source::Jobs, job_image, chunk);
  const fleet::ReplyFields reply = client.finalize();
  EXPECT_EQ(reply.at("ras_records"), "400000");
  EXPECT_EQ(reply.at("result_fp"),
            offline_result_fp(ras_image, job_image, ParseMode::Strict,
                              machine::bgp_model()));
}

TEST(FleetDaemon, ConcurrentFinalizesOfOneTenantGetTheSameReply) {
  // Two connections attached to one tenant ask for its finalize at once:
  // the tenant finalizes exactly once and both get the same reply body,
  // while the reply fingerprints run outside the fleet-wide finalize lock.
  DaemonFixture fx;
  const std::string ras_image = ras_bytes(make_ras_log(2000));
  const std::string job_image = job_bytes(make_job_log(300));
  fleet::WireClient feeder("127.0.0.1", fx.port());
  feeder.handshake({"shared", "bgp", ParseMode::Strict, false});
  fleet::WireClient other("127.0.0.1", fx.port());
  other.handshake({"shared", "bgp", ParseMode::Strict, false});
  feeder.send_data(stream::Source::Ras, ras_image, 4096);
  feeder.send_data(stream::Source::Jobs, job_image, 4096);
  feeder.flush();

  fleet::ReplyFields replies[2];
  std::thread finalizers[2];
  fleet::WireClient* clients[2] = {&feeder, &other};
  for (int i = 0; i < 2; ++i) {
    finalizers[i] = std::thread([&replies, &clients, i] { replies[i] = clients[i]->finalize(); });
  }
  for (std::thread& t : finalizers) t.join();
  EXPECT_EQ(replies[0], replies[1]);
  EXPECT_EQ(replies[0].at("ras_records"), "2000");
  EXPECT_EQ(replies[0].at("result_fp"),
            offline_result_fp(ras_image, job_image, ParseMode::Strict,
                              machine::bgp_model()));
  const auto tenants = fx.daemon.tenants();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_TRUE(tenants[0].stats.finalized);
}

// Start/stop cycles, with and without traffic. scripts/ci.sh runs this
// suite under ThreadSanitizer: the accept loops must never read state that
// stop() writes.
TEST(DaemonLifecycle, RepeatedStartStopWithTraffic) {
  const std::string ras_image = ras_bytes(make_ras_log(64));
  for (int round = 0; round < 12; ++round) {
    fleet::Daemon daemon;
    daemon.start();
    if (round % 2 == 1) {
      fleet::WireClient client("127.0.0.1", daemon.wire_port());
      client.handshake({"cycle" + std::to_string(round), "bgp", ParseMode::Lenient, false});
      client.send_data(stream::Source::Ras, ras_image);
      EXPECT_EQ(client.flush().at("ras_records"), "64") << "round " << round;
    }
    if (round % 3 == 0) daemon.stop();  // explicit stop, then the destructor's
  }
}

/// This process's virtual size in bytes (the VmSize line of
/// /proc/self/status), or 0 when it cannot be read.
std::uint64_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7)) * 1024;
  }
  return 0;
}

TEST(DaemonLifecycle, FinishedConnectionWorkersAreJoined) {
  // Every connection runs on its own worker thread, whose stack stays
  // mapped until the thread is joined. Sequential connect/handshake/close
  // cycles (about one worker alive at a time) must not grow the daemon by a
  // stack per connection served: unjoined, 64 cycles grow VmSize by just
  // over 64 stacks. The bound allows half that, room for the odd new malloc
  // arena (64 MB of address space) when a worker outlives its client.
  pthread_attr_t attr;
  ASSERT_EQ(pthread_getattr_default_np(&attr), 0);
  std::size_t stack_bytes = 0;
  pthread_attr_getstacksize(&attr, &stack_bytes);
  pthread_attr_destroy(&attr);
  ASSERT_GT(stack_bytes, 0u);

  fleet::Daemon daemon;
  daemon.start();
  const auto cycle = [&daemon] {
    fleet::WireClient client("127.0.0.1", daemon.wire_port());
    client.handshake({"reconnects", "bgp", ParseMode::Lenient, false});
  };
  for (int i = 0; i < 8; ++i) cycle();  // settle malloc arenas and the tenant
  const std::uint64_t before = vm_size_bytes();
  ASSERT_GT(before, 0u);
  constexpr int kCycles = 64;
  for (int i = 0; i < kCycles; ++i) cycle();
  const std::uint64_t after = vm_size_bytes();
  const std::uint64_t growth = after > before ? after - before : 0;
  EXPECT_LT(growth, kCycles / 2 * stack_bytes)
      << "VmSize grew " << growth / 1024 << " kB over " << kCycles << " connections ("
      << stack_bytes / 1024 << " kB per thread stack)";
}

TEST(FleetDaemon, MidRunMetricsAreLiveAndLabeled) {
  DaemonFixture fx;
  const std::string ras_image = ras_bytes(make_ras_log(600));
  const std::string job_image = job_bytes(make_job_log(200));
  fleet::WireClient client("127.0.0.1", fx.port());
  client.handshake({"livetenant", "bgp", ParseMode::Lenient, false});
  client.send_data(stream::Source::Ras, ras_image, 8192);
  const fleet::ReplyFields live = client.flush();
  // Mid-run: decoded but not finalized — the liveness acceptance gate.
  EXPECT_EQ(live.at("ras_records"), "600");
  EXPECT_EQ(live.at("finalized"), "0");
  const std::string mid = fx.daemon.metrics_text();
  EXPECT_NE(mid.find("coral_session_ras_records{tenant=\"livetenant\"} 600"),
            std::string::npos)
      << mid;
  EXPECT_NE(mid.find("coral_session_finalized{tenant=\"livetenant\"} 0"),
            std::string::npos);
  EXPECT_NE(mid.find("coral_session_bytes_accepted_total{tenant=\"livetenant\"}"),
            std::string::npos);
  client.send_data(stream::Source::Jobs, job_image, 8192);
  (void)client.finalize();
  const std::string done = fx.daemon.metrics_text();
  EXPECT_NE(done.find("coral_session_finalized{tenant=\"livetenant\"} 1"),
            std::string::npos);
}

TEST(FleetDaemon, MetricsEndpointServesHttp) {
  DaemonFixture fx;
  {
    fleet::WireClient client("127.0.0.1", fx.port());
    client.handshake({"scraped", "bgp", ParseMode::Lenient, false});
    client.send_data(stream::Source::Ras, ras_bytes(make_ras_log(64)));
    (void)client.flush();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(fx.daemon.metrics_port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string req = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK", 0), 0u) << resp.substr(0, 80);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("coral_session_ras_records{tenant=\"scraped\"} 64"),
            std::string::npos);
}

TEST(FleetDaemon, HandshakeRejectsUnknownMachine) {
  DaemonFixture fx;
  fleet::WireClient client("127.0.0.1", fx.port());
  try {
    client.handshake({"ghost", "craycle-9000", ParseMode::Lenient, false});
    FAIL() << "handshake should have been rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown machine model"),
              std::string::npos)
        << e.what();
  }
}

TEST(FleetDaemon, HandshakeRejectsMachineConflictForExistingTenant) {
  DaemonFixture fx;
  fleet::WireClient first("127.0.0.1", fx.port());
  first.handshake({"claimed", "bgp", ParseMode::Lenient, false});
  fleet::WireClient second("127.0.0.1", fx.port());
  EXPECT_THROW(second.handshake({"claimed", "bgq", ParseMode::Lenient, false}),
               Error);
  // Agreeing on machine + mode re-attaches instead.
  fleet::WireClient third("127.0.0.1", fx.port());
  EXPECT_NO_THROW(third.handshake({"claimed", "bgp", ParseMode::Lenient, false}));
}

TEST(FleetDaemon, RuntimeRegisteredModelIsUsableAtConnectTime) {
  machine::Topology topo;
  topo.name = "minibg";
  topo.description = "4-rack test machine";
  topo.racks = 4;
  const machine::DataModel model(topo);
  ASSERT_TRUE(machine::register_model(model));
  {
    DaemonFixture fx;
    fleet::WireClient client("127.0.0.1", fx.port());
    // The model arrived at runtime, after the daemon was built: exactly the
    // connect-time registration path the fleet design calls for.
    EXPECT_NO_THROW(client.handshake({"mini", "minibg", ParseMode::Lenient, false}));
    const auto tenants = fx.daemon.tenants();
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0].machine, "minibg");
  }
  EXPECT_TRUE(machine::unregister_model("minibg"));
}

TEST(FleetDaemon, GarbageBytesOnSocketGetErrorReply) {
  DaemonFixture fx;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(fx.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string junk = "this is not a CBLK frame at all, not even close";
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  // The daemon replies with one Error frame, then hangs up.
  fleet::MessageReader reader;
  std::string msg;
  char buf[4096];
  ssize_t n;
  bool got_error = false;
  while (!got_error && (n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    reader.push(std::string_view(buf, static_cast<std::size_t>(n)));
    while (reader.next(msg)) {
      if (!msg.empty() && msg[0] == fleet::kMsgError) got_error = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_error);
}

// ---------------------------------------------------------------------------
// FuzzSmokeWire: the corrupt-frame corpus replayed over the socket path —
// scripts/ci.sh runs these under ASan/UBSan. The invariant: damage inside
// the *log payload* costs exactly what it costs offline (at most one block
// of records per damaged stretch, with identical IngestReport accounting),
// because transport framing and payload damage are separate layers.

void expect_wire_parity_on_damaged_logs(const std::string& ras_bad,
                                        const std::string& job_bad,
                                        std::uint64_t seed) {
  std::istringstream ras_in(ras_bad), job_in(job_bad);
  IngestReport want_ras, want_jobs;
  const ras::RasLog off_ras = ras::read_binary(
      ras_in, ras::default_catalog(), {.mode = ParseMode::Lenient, .report = &want_ras});
  const joblog::JobLog off_jobs =
      joblog::read_binary(job_in, {.mode = ParseMode::Lenient, .report = &want_jobs});

  DaemonFixture fx;
  fleet::WireClient client("127.0.0.1", fx.port());
  client.handshake({"fuzz", "bgp", ParseMode::Lenient, false});
  Rng rng(seed);
  // Ship the damaged images in small random chunks so wire-message
  // boundaries land inside damaged stretches too.
  for (std::string_view rest : {std::string_view(ras_bad), std::string_view(job_bad)}) {
    const auto src = rest.data() == ras_bad.data() ? stream::Source::Ras
                                                   : stream::Source::Jobs;
    while (!rest.empty()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform_index(2000), rest.size());
      client.send_data(src, rest.substr(0, n), n);
      rest.remove_prefix(n);
    }
  }
  const fleet::ReplyFields reply = client.finalize();
  EXPECT_EQ(reply.at("ras_records"), std::to_string(off_ras.size())) << "seed " << seed;
  EXPECT_EQ(reply.at("job_records"), std::to_string(off_jobs.size())) << "seed " << seed;
  EXPECT_EQ(reply.at("ras_malformed"), std::to_string(want_ras.total_malformed()))
      << "seed " << seed;
  EXPECT_EQ(reply.at("job_malformed"), std::to_string(want_jobs.total_malformed()))
      << "seed " << seed;
}

TEST(FuzzSmokeWire, CorruptLogCorpusOverSocketMatchesOfflineAccounting) {
  const std::string ras_clean = ras_bytes(make_ras_log(900));
  const std::string job_clean = job_bytes(make_job_log(400));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    expect_wire_parity_on_damaged_logs(testing::flip_bits(ras_clean, rng, 5),
                                       testing::flip_bits(job_clean, rng, 3), seed);
    expect_wire_parity_on_damaged_logs(
        testing::truncate_bytes(ras_clean, rng, 0.3),
        testing::flip_bits(testing::truncate_bytes(job_clean, rng, 0.5), rng, 2),
        seed + 100);
  }
}

TEST(FuzzSmokeWire, ShedsAtMostOneBlockPerDamagedFrame) {
  // Surgical damage: corrupt exactly k frames; the lenient decode must lose
  // at most k blocks' worth of records (64 per block), each stretch one
  // BinaryFrame sample, with the loss top-up making the ledger exact.
  const std::size_t n = 1280;  // 20 record blocks
  const std::string clean = ras_bytes(make_ras_log(n));
  for (int k = 1; k <= 3; ++k) {
    std::string bad = clean;
    std::vector<std::size_t> offs;
    for (std::size_t p = bad.find("CBLK"); p != std::string::npos;
         p = bad.find("CBLK", p + 1)) {
      offs.push_back(p);
    }
    ASSERT_GT(offs.size(), static_cast<std::size_t>(4 * k));
    for (int i = 0; i < k; ++i) {
      // Damage payload bytes of distinct record frames (skip the header
      // and dictionary block at offs[0]/offs[1]).
      bad[offs[static_cast<std::size_t>(2 + 5 * i)] + bin::kBlockHeaderBytes + 7] ^= 0x10;
    }
    DaemonFixture fx;
    fleet::WireClient client("127.0.0.1", fx.port());
    client.handshake({"surgical", "bgp", ParseMode::Lenient, false});
    client.send_data(stream::Source::Ras, bad, 4096);
    client.send_data(stream::Source::Jobs, job_bytes(make_job_log(64)), 4096);
    const fleet::ReplyFields reply = client.finalize();
    const auto records = std::stoull(reply.at("ras_records"));
    const auto malformed = std::stoull(reply.at("ras_malformed"));
    EXPECT_GE(records, n - 64 * static_cast<std::size_t>(k)) << "k=" << k;
    EXPECT_EQ(records + malformed, n) << "k=" << k;
  }
}

}  // namespace
}  // namespace coral
