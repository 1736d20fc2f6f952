#pragma once

#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/ingest.hpp"
#include "coral/common/storev3.hpp"
#include "coral/common/zonemap.hpp"
#include "coral/ras/log.hpp"

namespace coral::ras {

/// Format internals of the binary v2/v3 RAS log (see binary_io.hpp for the
/// layout contract). Exposed so the one-shot file readers and the
/// incremental wire/session ingest path decode through the *same* routines —
/// the fleet parity guarantee (network feed == offline read, byte for byte)
/// rests on there being exactly one decode implementation. The v3 tags
/// extend the v2 tag set rather than replacing it, so one decoder reads
/// both versions (and the session/daemon wire path inherits v3 for free).

inline constexpr char kRasMagic[4] = {'C', 'R', 'A', 'S'};
inline constexpr std::uint32_t kRasVersion = 2;
inline constexpr std::uint32_t kRasVersion3 = 3;
inline constexpr char kRasDictTag = 'D';
inline constexpr char kRasRecordTag = 'R';
/// v3 tags: self-describing meta, packed-location dictionary, columnar
/// record block, segment footer (see common/storev3.hpp for the shared
/// payload shapes).
inline constexpr char kRasMetaTag = 'M';
inline constexpr char kRasLocTag = 'L';
inline constexpr char kRasColumnTag = 'C';
inline constexpr char kRasSegmentTag = 'S';
inline constexpr std::string_view kRasSchemaV3 = "ras.columnar.v3";
/// Small blocks bound what one damaged frame can take with it: 64 records is
/// ~1.5 KB of payload, so the 12-byte frame header stays under 1% overhead
/// while a single bit flip in a 100k-record log costs at most 0.064% of it.
inline constexpr std::size_t kRasRecordsPerBlock = 64;

/// The fixed 24-byte on-disk record (golden byte layout pinned in
/// tests/test_binary_io.cpp; padding bytes are explicit zeros because
/// serialization memcpy's the struct).
struct PackedRecord {
  std::int64_t time_usec = 0;
  std::uint32_t packed_location = 0;
  std::uint32_t dict_index = 0;
  std::uint32_t serial = 0;
  std::uint8_t severity = 0;
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(PackedRecord) == 24);

/// Decoded 'D' payload: dictionary remapped into the target catalog plus the
/// file's total record count. A name missing from the catalog stays nullopt
/// in strict-vs-lenient-neutral form; the caller decides whether to throw.
struct RasDictionary {
  std::vector<std::optional<ErrcodeId>> remap;
  std::uint64_t total_records = 0;
  /// True when every name resolved — the common case; per-record decode then
  /// skips the per-entry remap check (one less gather per record).
  bool all_mapped = true;
};

/// Parse a 'D' payload (cursor past the tag byte). Strict mode throws on a
/// dictionary name missing from `catalog`.
RasDictionary parse_ras_dictionary(bin::PayloadCursor& cur, const Catalog& catalog,
                                   ParseMode mode);

/// Decoded 'L' payload: the file's distinct packed location keys, each
/// validated against the machine model ONCE here instead of once per record
/// (v2's per-record virtual `location_from_packed` is the single hottest
/// cost of a full read). Lenient mode keeps invalid keys as flagged
/// entries; records referencing them are rejected individually.
struct RasLocDict {
  std::vector<std::uint32_t> keys;
  std::vector<machine::Location> locs;
  std::vector<char> valid;
  /// True when every key validated (always, in strict mode) — per-record
  /// decode then skips the per-entry validity gather.
  bool all_valid = true;
};

/// Parse an 'L' payload (cursor past the tag byte). Strict mode throws on a
/// key the machine model rejects.
RasLocDict parse_ras_loc_dict(bin::PayloadCursor& cur,
                              const machine::MachineModel& machine, ParseMode mode);

/// One chunk's slice [begin, end) of an event array the pooled file reader
/// presized from the blocks' declared counts; it stands in for the growing
/// RasEventArray of the stream decoder, so both run the same decode loops.
/// The presize leaves the slots unwritten, so the slice's writes are each
/// slot's first, and every slot below the final size() has been written.
/// size() is the global emit position, which makes the RECIDs and fatal
/// log_index values the loops derive from it global too. The bound is
/// checked once per block against the count the block declares (no block
/// emits more than that).
class RasEventSlice {
 public:
  /// A block declared more records than the slice has left: the reader
  /// defers to the sequential path.
  struct Overflow : std::exception {};

  RasEventSlice(RasEvent* base, std::size_t begin, std::size_t end)
      : base_(base), pos_(begin), end_(end) {}

  std::size_t size() const { return pos_; }
  void admit(std::uint32_t n) const {
    if (n > end_ - pos_) throw Overflow{};
  }
  template <typename... Args>
  void emplace_back(Args&&... args) {
    base_[pos_++] = RasEvent(std::forward<Args>(args)...);
  }
  void push_back(const RasEvent& ev) { base_[pos_++] = ev; }

 private:
  RasEvent* base_;
  std::size_t pos_;
  std::size_t end_;
};

/// Called by the decode loops with each block's declared count before it
/// emits: a growing vector needs no check, a slice enforces its bound.
inline void admit_block(RasEventArray&, std::uint32_t) {}
inline void admit_block(const RasEventSlice& out, std::uint32_t n) { out.admit(n); }

/// Decode one 'R' payload's records (cursor past the tag byte) into `events`
/// (a RasEventArray or a RasEventSlice). `dict` may be
/// null only when every dictionary copy was lost earlier in the input.
/// `attempted` counts records decoded or individually rejected — the unit the
/// lost-record top-up is computed in. A non-null `filter` drops records that
/// fail the exact predicate *after* full validation (they still count as
/// attempted and ok, so accounting is layout-independent).
template <typename Out>
void decode_ras_records(bin::PayloadCursor& cur, const RasDictionary* dict,
                        ParseMode mode, const machine::MachineModel& machine,
                        IngestReport& rep, Out& events, std::uint64_t& attempted,
                        const bin::ZoneFilter* filter = nullptr);

/// Decoded column arrays of one v3 'C' block body. Severities alias the
/// body buffer (they are stored as raw bytes); serials memcpy from the
/// fixed-width tail; the other columns are materialized through the varint
/// codec.
struct RasColumns {
  std::vector<std::int64_t> times;
  std::vector<std::uint32_t> locs;
  std::vector<std::uint32_t> errs;
  std::vector<std::uint32_t> serials;
  const std::uint8_t* sevs = nullptr;
  /// Column maxima, tracked for free while the varint loops have each value
  /// in a register: three compares against these hoist the per-record
  /// validation out of an intact block's emit loop entirely.
  std::uint32_t max_loc = 0;
  std::uint32_t max_err = 0;
  std::uint8_t max_sev = 0;
};

/// All-or-nothing decode of a raw column body holding `n` records; false on
/// any malformed shape (truncated varint, wrong tail size). All-or-nothing
/// keeps lenient accounting block-granular: a damaged body loses the whole
/// block to the top-up, never a prefix of it.
bool decode_ras_columns(std::string_view body, std::uint32_t n, RasColumns& cols);

/// Build one complete 'C' payload (tag through body) for records
/// [events, events + n), whose per-event location-dictionary indices are
/// `loc_idx`. `raw` is caller-owned scratch (reused across blocks).
void encode_ras_column_block(std::string& payload, const RasEvent* events,
                             std::size_t n, const std::uint32_t* loc_idx,
                             bool compress, const machine::LocCodec& codec,
                             std::string& raw);

/// Reusable scratch for decoding 'C' payloads (one per thread), plus the
/// emit-side bookkeeping the adopting RasLog constructor wants: fatal
/// columns gathered as records are emitted (log_index is the emit position,
/// global for a RasEventSlice) and a running time-order check. Both cost
/// a couple of register ops per record here versus a second full pass over
/// the event array in finalize(). Callers that interleave chunks through
/// one scratch move `fatal`/`sorted` out and reset between chunks.
struct RasV3Scratch {
  std::string raw;
  RasColumns cols;
  FatalColumns fatal;
  std::int64_t last_time = std::numeric_limits<std::int64_t>::min();
  bool sorted = true;
};

/// Decode one 'C' payload (cursor past the tag byte) — the single v3 record
/// decode implementation, shared by the stream decoder (into its vector)
/// and the pooled file reader (into a RasEventSlice). Zone-rejected blocks
/// (non-null `filter`) contribute their declared count to `attempted`
/// without touching the body. Throws ParseError on any malformed shape in
/// either mode; lenient callers catch and let the lost-record top-up cover
/// the block.
template <typename Out>
void decode_ras_column_payload(bin::PayloadCursor& cur, const RasDictionary* dict,
                               const RasLocDict* locs, ParseMode mode,
                               const bin::ZoneFilter* filter, IngestReport& rep,
                               Out& events, std::uint64_t& attempted,
                               bin::BlockCounters& blocks, RasV3Scratch& scratch);

/// Incremental binary v2/v3 RAS decoder: feed block payloads as they become
/// available (from a BlockReader, a FrameAssembler over a socket, a tailed
/// file); finish() runs the lost-record top-up and builds the log. Feeding
/// the payload sequence of an intact or damaged file reproduces the one-shot
/// reader's events and accounting exactly — read_binary's sequential path is
/// itself implemented on this class. The v2 and v3 tag sets are disjoint,
/// so no version switch is needed: a stream is whatever its blocks say.
class RasStreamDecoder {
 public:
  RasStreamDecoder(const Catalog& catalog, ParseMode mode,
                   const machine::MachineModel& machine)
      : catalog_(&catalog), machine_(&machine), mode_(mode) {}

  /// Install a pushdown predicate: zone-rejected v3 blocks are skipped
  /// without decoding, and decoded records are exact-filtered. Null (the
  /// default) decodes everything. The filter must outlive the decoder.
  void set_filter(const bin::ZoneFilter* filter) { filter_ = filter; }

  /// Decode one block payload (tag byte + body) whose first byte sat at
  /// absolute offset `payload_offset`. Lenient mode absorbs undecodable
  /// payloads (their records are covered by the finish() top-up); strict
  /// mode throws.
  void on_payload(std::string_view payload, std::uint64_t payload_offset);

  /// Bound the event pre-reservation taken from the dictionary's declared
  /// total, so a corrupt count cannot force a huge allocation. File readers
  /// set this to what the region could physically hold; streaming callers
  /// keep the conservative default and let the vector grow.
  void set_reserve_cap(std::uint64_t cap) { reserve_cap_ = cap; }

  /// Records successfully decoded so far (live gauge for mid-run snapshots).
  std::uint64_t records_decoded() const { return events_.size(); }
  /// Decoded events so far, in decode order — the live tap online consumers
  /// (the session's prediction stage) read new records from between pumps.
  /// Invalidated by finish(), which moves the events into the built log.
  const RasEventArray& events_so_far() const { return events_; }
  /// Records attempted (decoded or individually rejected) so far.
  std::uint64_t records_attempted() const { return attempted_; }
  /// The declared total from the dictionary, once one has been seen.
  std::optional<std::uint64_t> declared_total() const {
    return dict_ ? std::optional<std::uint64_t>(dict_->total_records) : std::nullopt;
  }
  /// Record-block accounting (total / decoded / zone-skipped), the source
  /// of the ingest.ras_binary.blocks_* obs counters.
  const bin::BlockCounters& block_counters() const { return blocks_; }
  /// The 'M' meta block, once one has been seen (v3 streams only).
  const std::optional<bin::StoreMeta>& meta() const { return meta_; }

  /// End of stream: verify counts (strict) or top-up the BinaryFrame ledger
  /// with the exact number of records lost to dropped frames (lenient), fold
  /// the per-record accounting into `rep`, and build the finalized log.
  /// `frame_damage` carries the framing layer's per-stretch samples
  /// (adopted as diagnostics, never double-counted).
  RasLog finish(IngestReport& rep, const IngestReport& frame_damage);

 private:
  const Catalog* catalog_;
  const machine::MachineModel* machine_;
  ParseMode mode_;
  const bin::ZoneFilter* filter_ = nullptr;
  std::optional<RasDictionary> dict_;
  std::optional<bin::StoreMeta> meta_;
  std::optional<RasLocDict> loc_dict_;
  RasEventArray events_;
  IngestReport record_rep_;  ///< per-record rejections, folded into finish()'s rep
  std::uint64_t attempted_ = 0;
  std::uint64_t reserve_cap_ = std::uint64_t{1} << 16;
  bin::BlockCounters blocks_;
  RasV3Scratch scratch_;
  /// v2 'R' blocks emit outside the columnar path, so their records are not
  /// in scratch_'s fatal gather — finish() then takes the verify walk.
  bool saw_v2_records_ = false;
};

}  // namespace coral::ras
