#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "coral/context.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/joblog/binary_stream.hpp"
#include "coral/predict/predictor.hpp"
#include "coral/ras/binary_stream.hpp"

namespace coral::stream {

/// Which of a tenant's two log feeds a chunk of bytes belongs to.
enum class Source { Ras, Jobs };

/// What happened to a feed() call at the admission gate.
enum class Admission {
  Accepted,  ///< queued; will be decoded by the next pump()
  Rejected,  ///< over quota, nothing enqueued — back off and retry (lossless)
  Shed,      ///< over quota, dropped *with accounting* (SessionConfig::Overflow::Shed)
};

/// Per-tenant resource policy and analysis configuration.
struct SessionConfig {
  ParseMode mode = ParseMode::Lenient;
  /// Ingest-queue quota per source, in bytes of undecoded backlog. A feed
  /// that would push the backlog past this is rejected or shed — unless
  /// the source's queue is empty, which always admits (a lossless feeder
  /// of chunks at or above the quota must still make progress).
  std::size_t queue_bytes = std::size_t{4} << 20;
  /// What the admission gate does with an over-quota feed. Reject is the
  /// lossless default (the wire server turns it into backpressure by
  /// pumping inline); Shed keeps the tenant live at the cost of dropped
  /// bytes, accounted in SessionStats and, downstream, in the BinaryFrame
  /// ledger (dropped bytes read as frame damage).
  enum class Overflow { Reject, Shed } overflow = Overflow::Reject;
  core::CoAnalysisConfig analysis;
  /// Online failure prediction: when set, every decoded RAS record is fed
  /// through a predict::Predictor as it is pumped, live predictions count in
  /// SessionStats/obs ("predict.*" counters, lead-time histogram) and the
  /// full prediction list rides out in SessionResult. Non-owning; must
  /// outlive the session. Null (the default) changes nothing.
  const predict::RuleTable* rules = nullptr;
};

/// Live counters, readable mid-run from any thread without stopping ingest
/// (the /metrics liveness guarantee rides on these being plain atomics).
struct SessionStats {
  std::uint64_t bytes_accepted = 0;  ///< admitted through feed()
  std::uint64_t bytes_decoded = 0;   ///< consumed from the backlog by pump()
  std::uint64_t bytes_shed = 0;      ///< dropped at the admission gate
  std::uint64_t chunks_shed = 0;
  std::uint64_t backlog_bytes = 0;   ///< queued + assembler-buffered, both sources
  std::uint64_t ras_records = 0;     ///< decoded so far
  std::uint64_t job_records = 0;
  std::uint64_t predictions = 0;     ///< issued by the online predictor
  bool finalized = false;
};

/// A finalized session: the same CoAnalysisResult and ingest ledgers the
/// offline pipeline produces for the identical log bytes.
struct SessionResult {
  core::CoAnalysisResult analysis;
  /// The decoded logs the analysis ran on — what a parity check diffs
  /// record-for-record against an offline read of the same bytes.
  ras::RasLog ras;
  joblog::JobLog jobs;
  IngestReport ras_report;
  IngestReport jobs_report;
  /// Online predictions, in issue order (empty without SessionConfig::rules).
  /// Byte-identical to predict::replay over the decoded log, for any feed
  /// chunking — the live path is differential-tested against that replay.
  std::vector<predict::Prediction> predictions;
};

/// One tenant's resident co-analysis engine: an explicit feed()/flush()/
/// snapshot()/finalize() lifecycle over the binary-v2 log formats.
///
/// feed() enqueues raw file bytes (any chunking — a socket's recv sizes, a
/// tail -f, whole files) behind a bounded admission gate; pump() drains the
/// backlog through the same FrameAssembler + stream decoders the offline
/// readers are built on, so finalize() is byte-identical to read_binary +
/// run_coanalysis over the concatenated bytes — including lenient-mode
/// damage accounting. That equivalence holds for *any* interleaving of
/// feeds across sources and tenants, because each source's bytes arrive in
/// order and nothing else is shared.
///
/// Threading: feed() and snapshot() are safe from any thread; pump(),
/// flush() and finalize() serialize on an internal drain lock (concurrent
/// callers queue up harmlessly). One session's pump never blocks another's.
class Session {
 public:
  /// `ctx` supplies catalog, machine, pool and obs; the session keeps a
  /// copy. Per-tenant live counters are published to ctx.obs() (if any)
  /// under "session.*" names.
  Session(std::string name, SessionConfig config, const Context& ctx);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }
  const Context& context() const { return ctx_; }

  /// Offer bytes to one source's ingest queue. Never blocks; over-quota
  /// feeds are Rejected (retry after a pump) or Shed per the config.
  /// Feeding after finalize() is Rejected.
  Admission feed(Source src, std::string_view bytes);

  /// Drain queued bytes into the decoders. Returns the number of backlog
  /// bytes consumed (0 = nothing pending). Call from a worker loop, or
  /// inline after a Rejected feed to make room.
  std::size_t pump();

  /// pump() until the backlog is empty.
  void flush();

  /// Live counters; callable mid-run from any thread.
  SessionStats snapshot() const;

  /// Declare both byte streams complete, run end-of-stream accounting and
  /// the full co-analysis. The one-shot end of the lifecycle: further
  /// feeds are rejected. Strict-mode format errors surface here (and from
  /// pump(), which decodes eagerly).
  SessionResult finalize();

 private:
  struct SourceState;
  SourceState& state(Source src);
  /// Drain one source's queue into its assembler + decoder (drain_mu_ held).
  std::size_t pump_locked(SourceState& st);
  /// Feed RAS records decoded since the last call to the online predictor
  /// (drain_mu_ held; no-op without rules).
  void predict_new_records_locked();

  const std::string name_;
  const SessionConfig config_;
  Context ctx_;

  std::unique_ptr<SourceState> ras_;
  std::unique_ptr<SourceState> jobs_;
  std::unique_ptr<ras::RasStreamDecoder> ras_dec_;
  std::unique_ptr<joblog::JobStreamDecoder> job_dec_;
  std::unique_ptr<predict::Predictor> predictor_;  ///< null without rules
  std::size_t predicted_ = 0;  ///< decoded RAS records already fed (drain_mu_)

  std::mutex drain_mu_;  ///< serializes pump/flush/finalize decode work
  std::atomic<bool> finalized_{false};

  std::atomic<std::uint64_t> bytes_accepted_{0};
  std::atomic<std::uint64_t> bytes_decoded_{0};
  std::atomic<std::uint64_t> bytes_shed_{0};
  std::atomic<std::uint64_t> chunks_shed_{0};
  std::atomic<std::uint64_t> ras_records_{0};
  std::atomic<std::uint64_t> job_records_{0};
  std::atomic<std::uint64_t> predictions_{0};
};

}  // namespace coral::stream
