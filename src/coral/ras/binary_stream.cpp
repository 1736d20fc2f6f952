#include "coral/ras/binary_stream.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "coral/common/error.hpp"
#include "coral/common/lz.hpp"
#include "coral/common/varint.hpp"
#include "coral/machine/model.hpp"

namespace coral::ras {

RasDictionary parse_ras_dictionary(bin::PayloadCursor& cur, const Catalog& catalog,
                                   ParseMode mode) {
  RasDictionary dict;
  const auto size = cur.get<std::uint32_t>();
  if (size > 1'000'000) throw ParseError("implausible dictionary size");
  dict.remap.reserve(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto len = cur.get<std::uint16_t>();
    const std::string name = cur.get_string(len);
    const auto id = catalog.find(name);
    if (!id) {
      if (mode == ParseMode::Strict) {
        throw ParseError("unknown errcode in binary RAS log: '" + name + "'");
      }
      dict.all_mapped = false;
    }
    dict.remap.push_back(id);
  }
  dict.total_records = cur.get<std::uint64_t>();
  return dict;
}

namespace {

// Validate and append one fixed-size record. Shared by the contiguous fast
// path and the bounds-checked slow path so their accounting cannot drift.
template <typename Out>
void decode_one(const PackedRecord& rec, std::uint64_t rec_offset,
                const RasDictionary& dict, ParseMode mode,
                const machine::MachineModel& machine, IngestReport& rep, Out& events,
                const bin::ZoneFilter* filter) {
  if (rec.dict_index >= dict.remap.size()) {
    if (mode == ParseMode::Strict) throw ParseError("bad dictionary index");
    rep.add_malformed(IngestReason::BadRecord, rec_offset, "",
                      "dictionary index out of range");
    return;
  }
  if (!dict.remap[rec.dict_index]) {
    rep.add_malformed(IngestReason::UnknownErrcode, rec_offset, "",
                      "errcode name not in target catalog");
    return;
  }
  if (rec.severity > static_cast<std::uint8_t>(Severity::Fatal)) {
    if (mode == ParseMode::Strict) {
      throw ParseError("bad severity in binary RAS log at byte offset " +
                       std::to_string(rec_offset));
    }
    rep.add_malformed(IngestReason::BadSeverity, rec_offset, "",
                      "severity byte out of range");
    return;
  }
  RasEvent ev;
  ev.event_time = TimePoint(rec.time_usec);
  try {
    ev.location = machine.location_from_packed(rec.packed_location);
  } catch (const Error& e) {
    if (mode == ParseMode::Strict) throw;
    rep.add_malformed(IngestReason::BadLocation, rec_offset, "", e.what());
    return;
  }
  ev.errcode = *dict.remap[rec.dict_index];
  ev.serial = rec.serial;
  ev.severity = static_cast<Severity>(rec.severity);
  // A fully-valid record that fails the exact predicate still counts as
  // attempted and ok — accounting must not depend on the query.
  if (filter != nullptr && !(filter->match_time(rec.time_usec) &&
                             filter->match_location(rec.packed_location))) {
    rep.add_ok();
    return;
  }
  // RECID = emit position (global in a pooled reader's slice): lets the log
  // constructor take the read-only TrustedRecids finalize.
  ev.recid = static_cast<std::int64_t>(events.size() + 1);
  events.push_back(ev);
  rep.add_ok();
}

}  // namespace

template <typename Out>
void decode_ras_records(bin::PayloadCursor& cur, const RasDictionary* dict,
                        ParseMode mode, const machine::MachineModel& machine,
                        IngestReport& rep, Out& events, std::uint64_t& attempted,
                        const bin::ZoneFilter* filter) {
  const auto n = cur.get<std::uint32_t>();
  admit_block(events, n);
  // Writer-canonical blocks hold exactly n contiguous records; decode them
  // straight from the payload view, skipping per-record cursor bookkeeping.
  // Any other shape (an adversarial CRC-valid payload) takes the
  // bounds-checked loop below with identical accounting.
  if (dict != nullptr &&
      cur.remaining() == std::size_t{n} * sizeof(PackedRecord)) {
    const std::uint64_t base = cur.offset();
    const std::string_view raw = cur.take(cur.remaining());
    for (std::uint32_t i = 0; i < n; ++i) {
      PackedRecord rec;
      std::memcpy(&rec, raw.data() + std::size_t{i} * sizeof rec, sizeof rec);
      ++attempted;
      decode_one(rec, base + std::uint64_t{i} * sizeof rec, *dict, mode, machine, rep,
                 events, filter);
    }
    return;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t rec_offset = cur.offset();
    PackedRecord rec;
    cur.read(&rec, sizeof rec);
    ++attempted;
    if (dict == nullptr) {
      // Every dictionary copy was damaged; nothing to resolve against.
      if (mode == ParseMode::Strict) {
        throw ParseError("records before dictionary in binary RAS log");
      }
      rep.add_malformed(IngestReason::UnknownErrcode, rec_offset, "",
                        "record with no surviving dictionary");
      continue;
    }
    decode_one(rec, rec_offset, *dict, mode, machine, rep, events, filter);
  }
}

template void decode_ras_records(bin::PayloadCursor&, const RasDictionary*, ParseMode,
                                 const machine::MachineModel&, IngestReport&,
                                 RasEventArray&, std::uint64_t&,
                                 const bin::ZoneFilter*);
template void decode_ras_records(bin::PayloadCursor&, const RasDictionary*, ParseMode,
                                 const machine::MachineModel&, IngestReport&,
                                 RasEventSlice&, std::uint64_t&, const bin::ZoneFilter*);

RasLocDict parse_ras_loc_dict(bin::PayloadCursor& cur,
                              const machine::MachineModel& machine, ParseMode mode) {
  RasLocDict dict;
  const auto size = cur.get<std::uint32_t>();
  if (size > 1'000'000) throw ParseError("implausible location dictionary size");
  dict.keys.reserve(size);
  dict.locs.reserve(size);
  dict.valid.reserve(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto key = cur.get<std::uint32_t>();
    dict.keys.push_back(key);
    try {
      dict.locs.push_back(machine.location_from_packed(key));
      dict.valid.push_back(1);
    } catch (const Error&) {
      if (mode == ParseMode::Strict) throw;
      dict.locs.emplace_back();
      dict.valid.push_back(0);
      dict.all_valid = false;
    }
  }
  return dict;
}

namespace {

void append_u32(std::string& out, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

/// Pointer-based LEB128 decode; returns the advanced pointer, or null on
/// truncation / overlong encoding. The column loops below run millions of
/// varints per file, which is too hot for the string_view-plus-index
/// bookkeeping of bin::get_varint: when 10 bytes are available the unrolled
/// body needs no per-byte bounds check and no loop-carried shift counter.
/// (A branchless SWAR decode was measured slower here — column varint
/// lengths are highly predictable, so the byte loop's branches are ~free.)
inline const std::uint8_t* take_varint(const std::uint8_t* p, const std::uint8_t* end,
                                       std::uint64_t& out) {
  if (end - p >= 10) [[likely]] {
    std::uint8_t b = *p++;
    std::uint64_t v = b & 0x7Fu;
    if (b < 0x80) {
      out = v;
      return p;
    }
    for (int shift = 7; shift < 70; shift += 7) {
      b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if (b < 0x80) {
        out = v;
        return p;
      }
    }
    return nullptr;  // 10 continuation bytes: overlong
  }
  std::uint64_t v = 0;
  int shift = 0;
  while (p != end && shift < 64) {
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (b < 0x80) {
      out = v;
      return p;
    }
    shift += 7;
  }
  return nullptr;
}

}  // namespace

void encode_ras_column_block(std::string& payload, const RasEvent* events,
                             std::size_t n, const std::uint32_t* loc_idx,
                             bool compress, const machine::LocCodec& codec,
                             std::string& raw) {
  bin::ZoneMap zm;
  raw.clear();
  std::int64_t prev_t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t = events[i].event_time.usec();
    bin::put_varint_signed(raw, t - prev_t);
    prev_t = t;
    zm.add_time(t);
  }
  for (std::size_t i = 0; i < n; ++i) {
    bin::put_varint(raw, loc_idx[i]);
    zm.add_location(events[i].location.packed(), codec);
  }
  for (std::size_t i = 0; i < n; ++i) {
    bin::put_varint(raw, static_cast<std::uint32_t>(events[i].errcode));
  }
  // Serials are random surrogates — delta varints average ~5 bytes of
  // byte-at-a-time decode for 4 bytes of entropy, so the column is stored as
  // fixed-width little-endian u32 and decoded with one memcpy.
  for (std::size_t i = 0; i < n; ++i) {
    append_u32(raw, events[i].serial);
  }
  for (std::size_t i = 0; i < n; ++i) {
    raw.push_back(static_cast<char>(static_cast<std::uint8_t>(events[i].severity)));
  }
  payload.push_back(kRasColumnTag);
  append_u32(payload, static_cast<std::uint32_t>(n));
  bin::append_zone_map(payload, zm);
  bin::append_column_body(payload, raw, compress);
}

bool decode_ras_columns(std::string_view body, std::uint32_t n, RasColumns& cols) {
  // Lower bound: three varint columns (>= 1 byte each) plus the 5-byte fixed
  // tail (u32 serial + severity byte) per record. Rejecting early also
  // bounds the allocations below by body size.
  if (std::uint64_t{n} * 8 > body.size()) return false;
  cols.times.resize(n);
  cols.locs.resize(n);
  cols.errs.resize(n);
  cols.serials.resize(n);
  const std::size_t fixed_tail = std::size_t{n} * 5;
  const auto* p = reinterpret_cast<const std::uint8_t*>(body.data());
  // The fixed-width tail doubles as the varint decode bound: a varint that
  // runs into it is a damaged block, not a serial.
  const std::uint8_t* vend = p + (body.size() - fixed_tail);
  std::int64_t prev = 0;
  std::int64_t* times = cols.times.data();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t raw = 0;
    if ((p = take_varint(p, vend, raw)) == nullptr) return false;
    prev += bin::unzigzag(raw);
    times[i] = prev;
  }
  std::uint32_t* locs = cols.locs.data();
  std::uint32_t max_loc = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if ((p = take_varint(p, vend, v)) == nullptr || v > UINT32_MAX) return false;
    locs[i] = static_cast<std::uint32_t>(v);
    max_loc = std::max(max_loc, locs[i]);
  }
  cols.max_loc = max_loc;
  std::uint32_t* errs = cols.errs.data();
  std::uint32_t max_err = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if ((p = take_varint(p, vend, v)) == nullptr || v > UINT32_MAX) return false;
    errs[i] = static_cast<std::uint32_t>(v);
    max_err = std::max(max_err, errs[i]);
  }
  cols.max_err = max_err;
  // Writer-canonical shape is enforced: the varint columns end exactly where
  // the fixed tail begins, anything else is a damaged block.
  if (p != vend) return false;
  // Serials memcpy straight into the u32 column (little-endian host, the
  // same assumption the frame layout makes); severities alias the raw tail.
  std::memcpy(cols.serials.data(), vend, std::size_t{n} * sizeof(std::uint32_t));
  cols.sevs = vend + std::size_t{n} * sizeof(std::uint32_t);
  std::uint8_t max_sev = 0;
  for (std::uint32_t i = 0; i < n; ++i) max_sev = std::max(max_sev, cols.sevs[i]);
  cols.max_sev = max_sev;
  return true;
}

template <typename Out>
void decode_ras_column_payload(bin::PayloadCursor& cur, const RasDictionary* dict,
                               const RasLocDict* locs, ParseMode mode,
                               const bin::ZoneFilter* filter, IngestReport& rep,
                               Out& events, std::uint64_t& attempted,
                               bin::BlockCounters& blocks, RasV3Scratch& scratch) {
  const std::uint64_t block_at = cur.offset();
  const auto n = cur.get<std::uint32_t>();
  bin::ZoneMap zm;
  {
    const std::string_view zb = cur.take(bin::kZoneMapBytes);
    std::size_t pos = 0;
    bin::read_zone_map(zb, pos, zm);
  }
  ++blocks.total;
  if (filter != nullptr && !filter->may_match(zm)) {
    // Zone-rejected: the CRC already vouched for the count field, so the
    // declared records feed `attempted` without decoding — the strict total
    // check and the lenient top-up stay exact under pushdown.
    attempted += n;
    ++blocks.skipped;
    return;
  }
  admit_block(events, n);
  const auto codec = cur.get<std::uint8_t>();
  const auto raw_size = cur.get<std::uint32_t>();
  if (raw_size > bin::kMaxBlockPayload) {
    throw ParseError("implausible column block size in binary RAS log at byte offset " +
                     std::to_string(block_at));
  }
  std::string_view body;
  if (codec == bin::kCodecRaw) {
    if (cur.remaining() != raw_size) {
      throw ParseError("column block size mismatch in binary RAS log at byte offset " +
                       std::to_string(block_at));
    }
    body = cur.take(raw_size);
  } else if (codec == bin::kCodecLz) {
    scratch.raw.resize(raw_size);
    const std::string_view comp = cur.take(cur.remaining());
    if (!bin::lz::decompress(comp, scratch.raw.data(), raw_size)) {
      throw ParseError("corrupt compressed block in binary RAS log at byte offset " +
                       std::to_string(block_at));
    }
    body = scratch.raw;
  } else {
    throw ParseError("unknown codec in binary RAS log at byte offset " +
                     std::to_string(block_at));
  }
  if (!decode_ras_columns(body, n, scratch.cols)) {
    throw ParseError("corrupt column block in binary RAS log at byte offset " +
                     std::to_string(block_at));
  }
  ++blocks.decoded;

  // Per-record validation, in the v2 order (dictionary index, catalog remap,
  // severity, location) so strict errors and lenient reasons match across
  // versions. Lenient paths never throw past this point: a block either
  // fails whole (above) or accounts for every record it declared. Every
  // record counts as attempted whatever its fate, so the tally hoists out of
  // the loop.
  const RasColumns& cols = scratch.cols;
  attempted += n;
  if (dict == nullptr) {
    if (mode == ParseMode::Strict) {
      throw ParseError("records before dictionary in binary RAS log");
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      rep.add_malformed(IngestReason::UnknownErrcode, block_at, "",
                        "record with no surviving dictionary");
    }
    return;
  }
  const std::optional<ErrcodeId>* remap = dict->remap.data();
  const auto remap_n = static_cast<std::uint32_t>(dict->remap.size());
  const auto locs_n =
      locs != nullptr ? static_cast<std::uint32_t>(locs->locs.size()) : 0;
  const machine::Location* loc_arr = locs != nullptr ? locs->locs.data() : nullptr;
  const char* loc_valid = locs != nullptr ? locs->valid.data() : nullptr;
  const std::uint32_t* loc_keys = locs != nullptr ? locs->keys.data() : nullptr;
  // Fully-resolved dictionaries (always, in strict mode) let the hot loop
  // skip two per-record gather loads; the flags are loop-invariant so the
  // short-circuit branches predict for free.
  const bool all_mapped = dict->all_mapped;
  const bool all_valid = locs != nullptr && locs->all_valid;
  constexpr auto kMaxSev = static_cast<std::uint8_t>(Severity::Fatal);
  // Emit-side finalize bookkeeping, kept in registers across the loop.
  std::int64_t last_time = scratch.last_time;
  bool sorted = scratch.sorted;
  // Three compares against the column maxima prove every record in the
  // block valid at once — the overwhelmingly common case for an intact
  // file — so the emit loop runs with no per-record validation at all.
  if (filter == nullptr && all_mapped && all_valid && cols.max_err < remap_n &&
      cols.max_loc < locs_n && cols.max_sev <= kMaxSev) [[likely]] {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::int64_t t = cols.times[i];
      const std::uint8_t sev = cols.sevs[i];
      events.emplace_back(static_cast<std::int64_t>(events.size() + 1), TimePoint(t),
                          loc_arr[cols.locs[i]], *remap[cols.errs[i]],
                          static_cast<Severity>(sev), cols.serials[i]);
      sorted &= t >= last_time;
      last_time = t;
      if (sev == kMaxSev) {
        scratch.fatal.event_time.push_back(TimePoint(t));
        scratch.fatal.errcode.push_back(*remap[cols.errs[i]]);
        scratch.fatal.loc_key.push_back(loc_arr[cols.locs[i]].packed());
        scratch.fatal.log_index.push_back(events.size() - 1);
      }
    }
    scratch.last_time = last_time;
    scratch.sorted = sorted;
    rep.add_ok(n);
    return;
  }
  std::uint64_t ok = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t err_idx = cols.errs[i];
    const std::uint32_t li = cols.locs[i];
    const std::uint8_t sev = cols.sevs[i];
    // One fused validity test on the hot path; its short-circuit order is
    // the v2 order, and the rare failure falls through to the per-reason
    // chain below so strict errors and lenient tallies stay byte-compatible.
    if (err_idx < remap_n && (all_mapped || remap[err_idx]) && sev <= kMaxSev &&
        loc_arr != nullptr && li < locs_n && (all_valid || loc_valid[li])) [[likely]] {
      if (filter != nullptr && !(filter->match_time(cols.times[i]) &&
                                 filter->match_location(loc_keys[li]))) {
        // Exact-filtered records are valid — they count as ok so accounting
        // is query-independent; they just do not land in the output.
        ++ok;
        continue;
      }
      // Parenthesized aggregate init constructs the event in place — no
      // zero-initialized temporary, one 40-byte store per record. The RECID
      // is the emit position (global in a pooled reader's slice), which lets
      // the log constructor take the read-only TrustedRecids finalize.
      const std::int64_t t = cols.times[i];
      events.emplace_back(static_cast<std::int64_t>(events.size() + 1), TimePoint(t),
                          loc_arr[li], *remap[err_idx], static_cast<Severity>(sev),
                          cols.serials[i]);
      ++ok;
      sorted &= t >= last_time;
      last_time = t;
      if (sev == kMaxSev) {
        scratch.fatal.event_time.push_back(TimePoint(t));
        scratch.fatal.errcode.push_back(*remap[err_idx]);
        scratch.fatal.loc_key.push_back(loc_arr[li].packed());
        scratch.fatal.log_index.push_back(events.size() - 1);
      }
      continue;
    }
    if (err_idx >= dict->remap.size()) {
      if (mode == ParseMode::Strict) throw ParseError("bad dictionary index");
      rep.add_malformed(IngestReason::BadRecord, block_at, "",
                        "dictionary index out of range");
      continue;
    }
    if (!dict->remap[err_idx]) {
      rep.add_malformed(IngestReason::UnknownErrcode, block_at, "",
                        "errcode name not in target catalog");
      continue;
    }
    if (sev > kMaxSev) {
      if (mode == ParseMode::Strict) {
        throw ParseError("bad severity in binary RAS log at byte offset " +
                         std::to_string(block_at));
      }
      rep.add_malformed(IngestReason::BadSeverity, block_at, "",
                        "severity byte out of range");
      continue;
    }
    if (locs == nullptr) {
      if (mode == ParseMode::Strict) {
        throw ParseError("records before location dictionary in binary RAS log");
      }
      rep.add_malformed(IngestReason::BadLocation, block_at, "",
                        "record with no surviving location dictionary");
      continue;
    }
    if (li >= locs->locs.size()) {
      if (mode == ParseMode::Strict) {
        throw ParseError("bad location index in binary RAS log at byte offset " +
                         std::to_string(block_at));
      }
      rep.add_malformed(IngestReason::BadRecord, block_at, "",
                        "location index out of range");
      continue;
    }
    if (!locs->valid[li]) {
      // Strict mode threw at dictionary parse time, so this is lenient-only.
      rep.add_malformed(IngestReason::BadLocation, block_at, "",
                        "invalid packed location key");
      continue;
    }
    if (filter != nullptr && !(filter->match_time(cols.times[i]) &&
                               filter->match_location(locs->keys[li]))) {
      ++ok;
      continue;
    }
    RasEvent ev;
    ev.recid = static_cast<std::int64_t>(events.size() + 1);
    ev.event_time = TimePoint(cols.times[i]);
    ev.location = locs->locs[li];
    ev.errcode = *dict->remap[err_idx];
    ev.serial = cols.serials[i];
    ev.severity = static_cast<Severity>(sev);
    events.push_back(ev);
    ++ok;
    sorted &= cols.times[i] >= last_time;
    last_time = cols.times[i];
    if (sev == kMaxSev) {
      scratch.fatal.event_time.push_back(ev.event_time);
      scratch.fatal.errcode.push_back(ev.errcode);
      scratch.fatal.loc_key.push_back(ev.location.packed());
      scratch.fatal.log_index.push_back(events.size() - 1);
    }
  }
  scratch.last_time = last_time;
  scratch.sorted = sorted;
  if (ok != 0) rep.add_ok(ok);
}

template void decode_ras_column_payload(bin::PayloadCursor&, const RasDictionary*,
                                        const RasLocDict*, ParseMode,
                                        const bin::ZoneFilter*, IngestReport&,
                                        RasEventArray&, std::uint64_t&,
                                        bin::BlockCounters&, RasV3Scratch&);
template void decode_ras_column_payload(bin::PayloadCursor&, const RasDictionary*,
                                        const RasLocDict*, ParseMode,
                                        const bin::ZoneFilter*, IngestReport&,
                                        RasEventSlice&, std::uint64_t&,
                                        bin::BlockCounters&, RasV3Scratch&);

void RasStreamDecoder::on_payload(std::string_view payload,
                                  std::uint64_t payload_offset) {
  bin::PayloadCursor cur(payload, payload_offset, "binary RAS log");
  try {
    const char tag = cur.get<char>();
    if (tag == kRasDictTag) {
      RasDictionary d = parse_ras_dictionary(cur, *catalog_, mode_);
      if (!dict_) {
        dict_ = std::move(d);
        events_.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(dict_->total_records, reserve_cap_)));
      }
      return;
    }
    if (tag == kRasMetaTag) {
      bin::StoreMeta m = parse_store_meta(cur);
      if (m.machine != machine_->name() && mode_ == ParseMode::Strict) {
        throw ParseError("binary RAS log written for machine '" + m.machine +
                         "' but read with model '" + std::string(machine_->name()) + "'");
      }
      if (!meta_) meta_ = std::move(m);
      return;
    }
    if (tag == kRasLocTag) {
      RasLocDict d = parse_ras_loc_dict(cur, *machine_, mode_);
      if (!loc_dict_) loc_dict_ = std::move(d);
      return;
    }
    if (tag == kRasSegmentTag) {
      // Footers index blocks the stream has already (or will) deliver; the
      // one-shot file readers use them for zero-touch skips, a streaming
      // decoder just validates the shape and moves on.
      std::vector<bin::SegmentEntry> entries;
      bin::parse_segment_footer(cur, entries);
      return;
    }
    if (tag == kRasColumnTag) {
      decode_ras_column_payload(cur, dict_ ? &*dict_ : nullptr,
                                loc_dict_ ? &*loc_dict_ : nullptr, mode_, filter_,
                                record_rep_, events_, attempted_, blocks_, scratch_);
      return;
    }
    if (tag != kRasRecordTag) {
      if (mode_ == ParseMode::Strict) {
        throw ParseError("unknown block tag in binary RAS log at byte offset " +
                         std::to_string(payload_offset - bin::kBlockHeaderBytes));
      }
      return;  // records inside are covered by the lost-record top-up
    }
    ++blocks_.total;
    saw_v2_records_ = true;
    decode_ras_records(cur, dict_ ? &*dict_ : nullptr, mode_, *machine_, record_rep_,
                       events_, attempted_, filter_);
    ++blocks_.decoded;
  } catch (const Error&) {
    if (mode_ == ParseMode::Strict) throw;
    // A CRC-valid block whose payload still does not parse (writer bug or an
    // adversarial file): skip it; the lost-record top-up accounts for its
    // records.
  }
}

RasLog RasStreamDecoder::finish(IngestReport& rep, const IngestReport& frame_damage) {
  rep.merge(record_rep_);
  record_rep_ = IngestReport{};
  if (mode_ == ParseMode::Strict) {
    if (!dict_) throw ParseError("missing dictionary in binary RAS log");
    if (attempted_ != dict_->total_records) {
      throw ParseError("binary RAS log record count mismatch: expected " +
                       std::to_string(dict_->total_records) + ", got " +
                       std::to_string(attempted_));
    }
  } else {
    // Exactly the records that vanished with dropped/undecodable frames.
    const std::uint64_t expected = dict_ ? dict_->total_records : attempted_;
    if (expected > attempted_) {
      rep.add_malformed_bulk(IngestReason::BinaryFrame, expected - attempted_);
    }
    rep.adopt_samples(frame_damage);
  }
  if (!saw_v2_records_) {
    // Pure columnar stream: the emit loop gathered the fatal columns and
    // verified time order as it went, so the log adopts them without
    // another pass over the event array.
    return RasLog(std::move(events_), *catalog_, *machine_,
                  RasLog::TrustedParts{std::move(scratch_.fatal), scratch_.sorted});
  }
  return RasLog(std::move(events_), *catalog_, *machine_, RasLog::TrustedRecids{});
}

}  // namespace coral::ras
