#include "coral/stream/session.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"

namespace coral::stream {

namespace {

constexpr std::size_t kFileHeaderBytes = 8;  // magic[4] + u32 version

}  // namespace

/// One log feed's ingest state. The queue is the only part touched by
/// feed(); everything from the assembler down is owned by the drain lock.
/// `queued`/`assembling` shadow the backlog as atomics so snapshot() never
/// needs either lock.
struct Session::SourceState {
  SourceState(Source which, ParseMode mode, const char* label)
      : kind(which), what(label), frames(mode, &frame_damage, label) {}

  const Source kind;
  const char* what;

  std::mutex mu;  ///< guards queue
  std::deque<std::string> queue;

  std::atomic<std::size_t> queued{0};      ///< bytes in queue
  std::atomic<std::size_t> assembling{0};  ///< bytes buffered in the assembler

  // --- drain-lock territory ---
  std::string header;        ///< the 8-byte file header, accumulated
  bool header_checked = false;
  IngestReport frame_damage; ///< framing-layer samples (adopted at finish)
  bin::FrameAssembler frames;

  std::size_t backlog() const { return queued.load() + assembling.load(); }
};

Session::Session(std::string name, SessionConfig config, const Context& ctx)
    : name_(std::move(name)), config_(std::move(config)), ctx_(ctx) {
  ras_ = std::make_unique<SourceState>(Source::Ras, config_.mode, "binary RAS log");
  jobs_ = std::make_unique<SourceState>(Source::Jobs, config_.mode, "binary job log");
  ras_dec_ = std::make_unique<ras::RasStreamDecoder>(ctx_.catalog(), config_.mode,
                                                     ctx_.machine());
  job_dec_ = std::make_unique<joblog::JobStreamDecoder>(config_.mode, ctx_.machine());
  if (config_.rules != nullptr) {
    predictor_ = std::make_unique<predict::Predictor>(*config_.rules, ctx_.machine(),
                                                      ctx_.obs());
  }
}

Session::~Session() = default;

Session::SourceState& Session::state(Source src) {
  return src == Source::Ras ? *ras_ : *jobs_;
}

Admission Session::feed(Source src, std::string_view bytes) {
  if (finalized_.load(std::memory_order_acquire)) return Admission::Rejected;
  if (bytes.empty()) return Admission::Accepted;
  SourceState& st = state(src);
  std::lock_guard<std::mutex> lock(st.mu);
  // An empty queue always admits, even a chunk larger than the quota: the
  // quota bounds backlog *growth*, and refusing an oversized chunk outright
  // would wedge a lossless (Reject + retry) feeder forever. The test is on
  // the queue, not the whole backlog: the assembler's partial frame only
  // completes with *more* bytes, so no pump() can drain it, and counting it
  // here would reject every chunk of at least the quota less that remainder
  // forever. Backlog stays bounded by the quota or by one partial frame
  // plus one chunk.
  if (st.queued.load() != 0 && st.backlog() + bytes.size() > config_.queue_bytes) {
    if (config_.overflow == SessionConfig::Overflow::Reject) return Admission::Rejected;
    bytes_shed_.fetch_add(bytes.size(), std::memory_order_relaxed);
    chunks_shed_.fetch_add(1, std::memory_order_relaxed);
    CORAL_OBS_COUNT(ctx_.obs(), "session.bytes.shed", bytes.size());
    return Admission::Shed;
  }
  st.queue.emplace_back(bytes);
  st.queued.fetch_add(bytes.size(), std::memory_order_relaxed);
  bytes_accepted_.fetch_add(bytes.size(), std::memory_order_relaxed);
  CORAL_OBS_COUNT(ctx_.obs(), "session.bytes.accepted", bytes.size());
  return Admission::Accepted;
}

std::size_t Session::pump_locked(SourceState& st) {
  // Take the queued chunks in one swap; decode happens outside st.mu so
  // feeders are never blocked behind record decoding.
  std::deque<std::string> chunks;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    chunks.swap(st.queue);
  }
  if (chunks.empty()) return 0;

  std::size_t taken = 0;
  for (std::string& chunk : chunks) {
    taken += chunk.size();
    std::string_view rest = chunk;
    if (st.header.size() < kFileHeaderBytes) {
      const std::size_t want = kFileHeaderBytes - st.header.size();
      const std::size_t got = std::min(want, rest.size());
      st.header.append(rest.data(), got);
      rest.remove_prefix(got);
    }
    if (!st.header_checked && st.header.size() == kFileHeaderBytes) {
      st.header_checked = true;
      // Same gate the offline readers apply to the 8-byte file header:
      // strict insists on magic + version, lenient tolerates damage (the
      // framed blocks are self-locating).
      if (config_.mode == ParseMode::Strict) {
        const bool is_ras = st.kind == Source::Ras;
        const char* magic = is_ras ? ras::kRasMagic : joblog::kJobMagic;
        const char* logname = is_ras ? "RAS" : "job";
        if (std::memcmp(st.header.data(), magic, 4) != 0) {
          throw ParseError(std::string("not a binary ") + logname + " log (bad magic)");
        }
        std::uint32_t version = 0;
        std::memcpy(&version, st.header.data() + 4, sizeof version);
        // v2 and v3 block tags are disjoint, so one decoder handles both
        // and the session accepts either header.
        const bool known = is_ras ? (version == ras::kRasVersion ||
                                     version == ras::kRasVersion3)
                                  : (version == joblog::kJobVersion ||
                                     version == joblog::kJobVersion3);
        if (!known) {
          throw ParseError(std::string("unsupported binary ") + logname +
                           " log version " + std::to_string(version));
        }
      }
    }
    if (!rest.empty()) st.frames.push(rest);
  }
  st.queued.fetch_sub(taken, std::memory_order_relaxed);

  std::string payload;
  while (st.frames.next(payload)) {
    const std::uint64_t at = st.frames.block_offset() + bin::kBlockHeaderBytes;
    if (st.kind == Source::Ras) {
      ras_dec_->on_payload(payload, at);
      ras_records_.store(ras_dec_->records_decoded(), std::memory_order_relaxed);
    } else {
      job_dec_->on_payload(payload, at);
      job_records_.store(job_dec_->records_decoded(), std::memory_order_relaxed);
    }
  }
  const std::size_t buffered = st.frames.buffered();
  const std::size_t consumed =
      taken + st.assembling.exchange(buffered, std::memory_order_relaxed) - buffered;
  bytes_decoded_.fetch_add(consumed, std::memory_order_relaxed);
  CORAL_OBS_COUNT(ctx_.obs(), "session.bytes.decoded", consumed);
  if (st.kind == Source::Ras) predict_new_records_locked();
  return consumed;
}

void Session::predict_new_records_locked() {
  if (!predictor_) return;
  // The decoder's live tap is append-only between pumps, and payloads arrive
  // in file order, so cursoring over it replays exactly the record sequence
  // an offline predict::replay of the finalized log would see — the parity
  // the online/offline differential test pins.
  const ras::RasEventArray& events = ras_dec_->events_so_far();
  for (; predicted_ < events.size(); ++predicted_) {
    predictor_->on_record(events[predicted_]);
  }
  predictions_.store(predictor_->issued(), std::memory_order_relaxed);
}

std::size_t Session::pump() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  return pump_locked(*ras_) + pump_locked(*jobs_);
}

void Session::flush() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  // A concurrent feeder can race more bytes in; each pass drains what was
  // queued when it started, and the loop exits once a pass finds nothing.
  while (pump_locked(*ras_) + pump_locked(*jobs_) != 0) {
  }
}

SessionStats Session::snapshot() const {
  SessionStats s;
  s.bytes_accepted = bytes_accepted_.load(std::memory_order_relaxed);
  s.bytes_decoded = bytes_decoded_.load(std::memory_order_relaxed);
  s.bytes_shed = bytes_shed_.load(std::memory_order_relaxed);
  s.chunks_shed = chunks_shed_.load(std::memory_order_relaxed);
  s.backlog_bytes = ras_->backlog() + jobs_->backlog();
  s.ras_records = ras_records_.load(std::memory_order_relaxed);
  s.job_records = job_records_.load(std::memory_order_relaxed);
  s.predictions = predictions_.load(std::memory_order_relaxed);
  s.finalized = finalized_.load(std::memory_order_acquire);
  return s;
}

SessionResult Session::finalize() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  if (finalized_.exchange(true, std::memory_order_acq_rel)) {
    throw InvalidArgument("session '" + name_ + "' already finalized");
  }
  // Drain everything accepted before the finalize cut, then declare
  // end-of-stream so the assemblers run BlockReader's truncation endgame.
  while (pump_locked(*ras_) + pump_locked(*jobs_) != 0) {
  }
  SessionResult out;
  for (SourceState* st : {ras_.get(), jobs_.get()}) {
    st->frames.finish();
    std::string payload;
    while (st->frames.next(payload)) {
      const std::uint64_t at = st->frames.block_offset() + bin::kBlockHeaderBytes;
      if (st->kind == Source::Ras) {
        ras_dec_->on_payload(payload, at);
      } else {
        job_dec_->on_payload(payload, at);
      }
    }
    st->assembling.store(st->frames.buffered(), std::memory_order_relaxed);
    if (config_.mode == ParseMode::Strict && !st->header_checked) {
      // Fewer than 8 bytes ever arrived: the offline readers' "bad magic".
      throw ParseError(std::string("not a binary ") +
                       (st->kind == Source::Ras ? "RAS" : "job") + " log (bad magic)");
    }
  }
  // Feed the predictor the tail decoded by the truncation endgame before
  // finish() moves the events out from under the live tap.
  predict_new_records_locked();
  if (predictor_) out.predictions = predictor_->predictions();
  out.ras = ras_dec_->finish(out.ras_report, ras_->frame_damage);
  out.jobs = job_dec_->finish(out.jobs_report, jobs_->frame_damage);
  ras_records_.store(out.ras.size(), std::memory_order_relaxed);
  job_records_.store(out.jobs.size(), std::memory_order_relaxed);
  // Same ingest-health reporting the offline readers emit, so a daemon
  // tenant's malformed ledgers land on /metrics like any batch run's.
  out.ras_report.report_malformed(ctx_.obs(), "ingest.ras_binary");
  out.jobs_report.report_malformed(ctx_.obs(), "ingest.job_binary");
  out.analysis = core::run_coanalysis(out.ras, out.jobs, config_.analysis, ctx_);
  return out;
}

}  // namespace coral::stream
