#include "coral/ras/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string_view>
#include <unordered_map>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/parallel.hpp"
#include "coral/common/storev3.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/binary_stream.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CORAL_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace coral::ras {

namespace {

/// An istream over an in-memory region, so the recovering BlockReader can
/// run on the already-buffered file without copying it.
struct ViewBuf : std::streambuf {
  explicit ViewBuf(std::string_view v) {
    char* p = const_cast<char*>(v.data());
    setg(p, p, p + v.size());
  }
};

// The reference reader: the recovering BlockReader walked front to back,
// feeding the shared incremental decoder — the same class the fleet
// session/wire path runs, which is what makes network ingest byte-identical
// to offline reads. Handles every damage shape and both format versions,
// and defines the exact error messages and lenient accounting the parallel
// fast paths must reproduce.
RasLog read_region_sequential(std::string_view region, const Catalog& catalog,
                              ParseMode mode, const machine::MachineModel& machine,
                              IngestReport& rep, const bin::ZoneFilter* filter,
                              bin::BlockCounters& blocks, std::size_t reserve_div) {
  ViewBuf viewbuf(region);
  std::istream in(&viewbuf);

  // Frame damage is tracked in a side report: one sample per damaged
  // stretch, while the caller-visible BinaryFrame *count* is computed in
  // finish() as the exact number of records lost (the dictionary carries
  // the total).
  IngestReport frames;
  bin::BlockReader reader(in, mode, &frames, "binary RAS log");

  RasStreamDecoder decoder(catalog, mode, machine);
  // Pre-size from the declared total, capped by what the region could
  // physically hold so a corrupt count cannot force a huge allocation
  // (v3 blocks compress, so their floor is a few bytes per record).
  decoder.set_reserve_cap(region.size() / reserve_div);
  decoder.set_filter(filter);
  std::string payload;
  while (reader.next(payload)) {
    decoder.on_payload(payload, reader.block_offset() + bin::kBlockHeaderBytes);
  }
  RasLog log = decoder.finish(rep, frames);
  blocks = decoder.block_counters();
  return log;
}

/// One chunk of a pooled read. Its records go straight into its slice
/// [begin, begin + emitted) of the presized event array.
struct ChunkOut {
  std::size_t begin = 0;    ///< slice start; after settle_chunks, the compacted start
  std::size_t end = 0;      ///< slice end, as presized
  std::size_t emitted = 0;  ///< records the slice cursor wrote
  IngestReport rep;
  std::uint64_t attempted = 0;
  bin::BlockCounters blocks;
  FatalColumns fatal;      ///< v3: fatal gather from emit, global log_index
  bool sorted = true;      ///< v3: chunk-local time order held at emit
  bool fall_back = false;  ///< CRC damage or slice overflow: the sequential reader decides
  std::string error;       ///< strict: first error in block order
  bool has_error = false;
};

std::size_t chunk_count(std::size_t nblocks, par::ThreadPool& pool) {
  // 4 chunks per thread for load balance.
  return std::max<std::size_t>(1, std::min(nblocks, pool.thread_count() * 4));
}

/// Declared record count of a record block: a u32 right after the tag byte,
/// in both 'R' and 'C' payloads. Read before the CRC check, so it is only a
/// size hint; the decode loop re-reads it and the slice bound holds it to
/// what was sized.
std::uint32_t declared_count(const char* base, const bin::FrameRef& fr) {
  std::uint32_t n = 0;
  if (fr.size >= 1 + sizeof n) {
    std::memcpy(&n, base + fr.offset + bin::kBlockHeaderBytes + 1, sizeof n);
  }
  return n;
}

/// Back a presized event array with transparent huge pages. Every slot of it
/// is written by the decode, so the advice costs no memory the read would
/// not touch anyway, and the workers' first touch takes one fault per 2 MB
/// instead of one per 4 KB. Only whole huge pages inside the allocation are
/// advised (the allocator aligns its start); the advice is a hint, so a
/// kernel that declines it changes nothing.
void advise_huge_pages(RasEventArray& events) {
#if defined(CORAL_HAVE_MMAP) && defined(MADV_HUGEPAGE)
  const std::size_t bytes = events.capacity() * sizeof(RasEvent);
  if (bytes >= kHugePageBytes) {
    ::madvise(events.data(), bytes / kHugePageBytes * kHugePageBytes, MADV_HUGEPAGE);
  }
#else
  (void)events;
#endif
}

/// Presize `events` to the summed block counts (`at` holds their prefix
/// sums) and place each chunk's slice over its block range
/// [c * nblocks / chunks, (c + 1) * nblocks / chunks). The resize leaves the
/// slots unwritten (EventArrayAllocator), so each worker takes the page
/// faults of its own slice, in parallel and overlapped with its decode. This
/// is the one resize of a RasEventArray that grows it without assigning the
/// slots: the slices cover the array, and settle_chunks cuts off what they
/// did not write. False when the sum exceeds what the region could
/// physically hold — the cap the sequential reader puts on its reservation —
/// so a corrupt count defers to it instead of forcing a huge allocation.
bool presize(RasEventArray& events, std::vector<ChunkOut>& outs,
             const std::vector<std::size_t>& at, std::size_t cap) {
  if (at.back() > cap) return false;
  events.resize(at.back());
  advise_huge_pages(events);
  const std::size_t nblocks = at.size() - 1;
  for (std::size_t c = 0; c < outs.size(); ++c) {
    outs[c].begin = at[c * nblocks / outs.size()];
    outs[c].end = at[(c + 1) * nblocks / outs.size()];
  }
  return true;
}

/// Defer to the sequential reader, or throw the first strict error in input
/// order (chunks cover ascending block ranges and each stops at its first
/// error, so the earliest chunk's capture is the sequential reader's error).
bool must_fall_back(const std::vector<ChunkOut>& outs) {
  for (const ChunkOut& out : outs) {
    if (out.fall_back) return true;
  }
  for (const ChunkOut& out : outs) {
    if (out.has_error) throw ParseError(out.error);
  }
  return false;
}

/// Fold per-chunk accounting into the caller's report in chunk (== input)
/// order, and close the holes a chunk leaves when it emits fewer records
/// than its slice (lenient per-record drops, exact-filter rejects): each
/// later chunk moves down in one pass that rebases its RECIDs as it copies,
/// and its fatal log_index values follow. An intact unfiltered read has no
/// holes and moves nothing.
std::uint64_t settle_chunks(std::vector<ChunkOut>& outs, RasEventArray& events,
                            IngestReport& rep, bin::BlockCounters& blocks) {
  std::uint64_t attempted = 0;
  std::size_t filled = 0;
  for (ChunkOut& out : outs) {
    if (out.begin != filled) {
      const std::size_t shift = out.begin - filled;
      // Destination below source: a forward copy never reads a moved slot.
      for (std::size_t i = 0; i < out.emitted; ++i) {
        RasEvent ev = events[out.begin + i];
        ev.recid -= static_cast<std::int64_t>(shift);
        events[filled + i] = ev;
      }
      for (std::size_t& idx : out.fatal.log_index) idx -= shift;
      out.begin = filled;
    }
    filled += out.emitted;
    rep.merge(out.rep);  // chunk order == offset order: samples stay sorted
    blocks.merge(out.blocks);
    attempted += out.attempted;
  }
  if (filled != events.size()) {
    events.resize(filled);
    // A selective predicate can leave most of the array unused; do not hold
    // it for the log's lifetime.
    if (filled < events.capacity() / 2) events.shrink_to_fit();
  }
  return attempted;
}

/// Strict: the attempted records must match the dictionary's total.
/// Lenient: charge the records lost with undecodable blocks to BinaryFrame.
void check_total(ParseMode mode, std::uint64_t total, std::uint64_t attempted,
                 IngestReport& rep) {
  if (mode == ParseMode::Strict) {
    if (attempted != total) {
      throw ParseError("binary RAS log record count mismatch: expected " +
                       std::to_string(total) + ", got " + std::to_string(attempted));
    }
  } else if (total > attempted) {
    rep.add_malformed_bulk(IngestReason::BinaryFrame, total - attempted);
  }
}

// The v2 fast path: the dictionary lives in block 0, every other block is
// decoded independently across contiguous block ranges, straight into one
// event array presized from the blocks' declared counts. Any framing
// anomaly, CRC damage or sizing surprise defers to the sequential reader,
// which is the authority on recovery; the caller's report is only touched
// on a committed parallel result, so the fallback starts clean.
template <typename FallBack>
RasLog read_region_parallel_v2(std::string_view region,
                               const std::vector<bin::FrameRef>& frames,
                               const Catalog& catalog, ParseMode mode,
                               const machine::MachineModel& machine, IngestReport& rep,
                               par::ThreadPool& pool, const bin::ZoneFilter* filter,
                               bin::BlockCounters& blocks, std::size_t reserve_div,
                               const FallBack& fall_back) {
  const char* base = region.data();

  // Block 0 carries the dictionary, so any error in it — CRC or content — is
  // also the sequential reader's first error; order is preserved by handling
  // it before the fan-out.
  const bin::FrameRef& f0 = frames[0];
  const char* dict_payload = base + f0.offset + bin::kBlockHeaderBytes;
  if (bin::crc32(dict_payload, f0.size) != f0.crc) {
    if (mode == ParseMode::Strict) {
      throw ParseError("binary RAS log: block CRC mismatch at byte offset " +
                       std::to_string(f0.offset));
    }
    return fall_back();  // the redundant copy may still be intact
  }
  RasDictionary dict;
  {
    bin::PayloadCursor cur(std::string_view(dict_payload, f0.size),
                           f0.offset + bin::kBlockHeaderBytes, "binary RAS log");
    try {
      cur.get<char>();  // tag, known to be 'D'
      dict = parse_ras_dictionary(cur, catalog, mode);
    } catch (const Error&) {
      if (mode == ParseMode::Strict) throw;
      return fall_back();  // sequential skips the block, second copy serves
    }
  }

  // Slice sizes: each 'R' block's declared count; other blocks emit nothing.
  const std::size_t nblocks = frames.size() - 1;
  std::vector<std::size_t> at(nblocks + 1, 0);
  for (std::size_t f = 1; f < frames.size(); ++f) {
    const bin::FrameRef& fr = frames[f];
    const bool records = base[fr.offset + bin::kBlockHeaderBytes] == kRasRecordTag;
    at[f] = at[f - 1] + (records ? declared_count(base, fr) : 0);
  }
  std::vector<ChunkOut> outs(chunk_count(nblocks, pool));
  RasEventArray events;
  if (!presize(events, outs, at, region.size() / reserve_div)) return fall_back();

  par::parallel_for_chunks(
      outs.size(), 1,
      [&](std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
          ChunkOut& out = outs[c];
          const std::size_t fb = 1 + c * nblocks / outs.size();
          const std::size_t fe = 1 + (c + 1) * nblocks / outs.size();
          RasEventSlice slice(events.data(), out.begin, out.end);
          for (std::size_t f = fb; f < fe; ++f) {
            const bin::FrameRef& fr = frames[f];
            const char* payload = base + fr.offset + bin::kBlockHeaderBytes;
            if (bin::crc32(payload, fr.size) != fr.crc) {
              out.fall_back = true;
              break;
            }
            bin::PayloadCursor cur(std::string_view(payload, fr.size),
                                   fr.offset + bin::kBlockHeaderBytes, "binary RAS log");
            try {
              const char tag = cur.get<char>();
              if (tag == kRasDictTag) {
                parse_ras_dictionary(cur, catalog, mode);  // redundant copy
                continue;
              }
              if (tag != kRasRecordTag) {
                if (mode == ParseMode::Strict) {
                  throw ParseError("unknown block tag in binary RAS log at byte offset " +
                                   std::to_string(fr.offset));
                }
                continue;
              }
              ++out.blocks.total;
              decode_ras_records(cur, &dict, mode, machine, out.rep, slice, out.attempted,
                                 filter);
              ++out.blocks.decoded;
            } catch (const RasEventSlice::Overflow&) {
              out.fall_back = true;
              break;
            } catch (const Error& e) {
              if (mode == ParseMode::Strict) {
                out.has_error = true;
                out.error = e.what();
                break;
              }
              // Lenient: CRC-valid block that still fails to parse — skip
              // it, the lost-record top-up accounts for its records.
            }
          }
          out.emitted = slice.size() - out.begin;
        }
      },
      &pool);

  if (must_fall_back(outs)) return fall_back();
  const std::uint64_t attempted = settle_chunks(outs, events, rep, blocks);
  check_total(mode, dict.total_records, attempted, rep);
  return RasLog(std::move(events), catalog, machine, RasLog::TrustedRecids{});
}

// The v3 fast path: parse the writer-canonical metadata prefix
// ('M' 'M' 'D' 'D' 'L' 'L') in order, rebuild the block directory from the
// 'S' segment footers, then fan the 'C' blocks out over slices of one event
// array presized from their declared counts. Under a predicate, blocks
// whose footer entry zone-rejects are skipped without touching their
// payload bytes at all (the mmap zero-copy win); blocks without a footer
// entry (an appender's unsealed tail) fall back to the in-block zone map.
// Either way a rejected block gets no slice. Any deviation from the
// canonical shape defers to the sequential reader.
template <typename FallBack>
RasLog read_region_parallel_v3(std::string_view region,
                               const std::vector<bin::FrameRef>& frames,
                               const Catalog& catalog, ParseMode mode,
                               const machine::MachineModel& machine, IngestReport& rep,
                               par::ThreadPool& pool, const bin::ZoneFilter* filter,
                               bin::BlockCounters& blocks, std::size_t reserve_div,
                               const FallBack& fall_back) {
  const char* base = region.data();
  const auto tag_of = [&](const bin::FrameRef& f) {
    return base[f.offset + bin::kBlockHeaderBytes];
  };

  static constexpr char kPrefix[6] = {kRasMetaTag, kRasMetaTag, kRasDictTag,
                                      kRasDictTag, kRasLocTag,  kRasLocTag};
  if (frames.size() < 6) return fall_back();
  for (std::size_t i = 0; i < 6; ++i) {
    if (tag_of(frames[i]) != kPrefix[i]) return fall_back();
  }

  std::optional<RasDictionary> dict;
  std::optional<RasLocDict> locs;
  for (std::size_t i = 0; i < 6; ++i) {
    const bin::FrameRef& fr = frames[i];
    const char* payload = base + fr.offset + bin::kBlockHeaderBytes;
    if (bin::crc32(payload, fr.size) != fr.crc) {
      // The prefix blocks are the stream's first blocks, so a strict CRC
      // throw here is the sequential reader's first error too.
      if (mode == ParseMode::Strict) {
        throw ParseError("binary RAS log: block CRC mismatch at byte offset " +
                         std::to_string(fr.offset));
      }
      return fall_back();  // the redundant copy may still be intact
    }
    bin::PayloadCursor cur(std::string_view(payload, fr.size),
                           fr.offset + bin::kBlockHeaderBytes, "binary RAS log");
    try {
      const char tag = cur.get<char>();
      if (tag == kRasMetaTag) {
        const bin::StoreMeta meta = bin::parse_store_meta(cur);
        if (meta.machine != machine.name() && mode == ParseMode::Strict) {
          throw ParseError("binary RAS log written for machine '" + meta.machine +
                           "' but read with model '" + std::string(machine.name()) +
                           "'");
        }
      } else if (tag == kRasDictTag) {
        RasDictionary d = parse_ras_dictionary(cur, catalog, mode);
        if (!dict) dict = std::move(d);
      } else {
        RasLocDict l = parse_ras_loc_dict(cur, machine, mode);
        if (!locs) locs = std::move(l);
      }
    } catch (const Error&) {
      if (mode == ParseMode::Strict) throw;
      return fall_back();
    }
  }

  // Classify body frames and rebuild the directory from segment footers.
  std::vector<const bin::FrameRef*> cframes;
  std::vector<bin::SegmentEntry> dir;
  for (std::size_t i = 6; i < frames.size(); ++i) {
    const bin::FrameRef& fr = frames[i];
    const char t = tag_of(fr);
    if (t == kRasColumnTag) {
      cframes.push_back(&fr);
      continue;
    }
    if (t != kRasSegmentTag) return fall_back();
    const char* payload = base + fr.offset + bin::kBlockHeaderBytes;
    if (bin::crc32(payload, fr.size) != fr.crc) return fall_back();
    bin::PayloadCursor cur(std::string_view(payload, fr.size),
                           fr.offset + bin::kBlockHeaderBytes, "binary RAS log");
    try {
      cur.get<char>();  // tag
      bin::parse_segment_footer(cur, dir);
    } catch (const Error&) {
      return fall_back();
    }
  }
  // The offset directory only pays for itself under a predicate (zero-touch
  // skips); an unfiltered read never probes it, so skip the build.
  std::unordered_map<std::uint64_t, const bin::SegmentEntry*> dir_at;
  if (filter != nullptr) {
    dir_at.reserve(dir.size());
    for (const bin::SegmentEntry& e : dir) dir_at.emplace(e.offset, &e);
  }

  // Slice sizes: each block's declared count, or nothing when its footer
  // entry (else its in-block zone map) rejects it. `skip` marks the
  // footer-rejected blocks, whose payload the workers never touch.
  const std::size_t nblocks = cframes.size();
  std::vector<const bin::SegmentEntry*> skip(filter != nullptr ? nblocks : 0, nullptr);
  std::vector<std::size_t> at(nblocks + 1, 0);
  for (std::size_t f = 0; f < nblocks; ++f) {
    const bin::FrameRef& fr = *cframes[f];
    std::uint32_t n = 0;
    if (filter == nullptr) {
      n = declared_count(base, fr);
    } else if (const auto it = dir_at.find(fr.offset);
               it != dir_at.end() && !filter->may_match(it->second->zone)) {
      skip[f] = it->second;
    } else {
      n = declared_count(base, fr);
      bin::ZoneMap zm;
      std::size_t pos = 0;
      if (fr.size >= 1 + sizeof n + bin::kZoneMapBytes &&
          bin::read_zone_map(std::string_view(base + fr.offset + bin::kBlockHeaderBytes +
                                                  1 + sizeof n,
                                              bin::kZoneMapBytes),
                             pos, zm) &&
          !filter->may_match(zm)) {
        n = 0;
      }
    }
    at[f + 1] = at[f] + n;
  }
  std::vector<ChunkOut> outs(chunk_count(nblocks, pool));
  RasEventArray events;
  if (!presize(events, outs, at, region.size() / reserve_div)) return fall_back();

  par::parallel_for_chunks(
      outs.size(), 1,
      [&](std::size_t cb, std::size_t ce) {
        RasV3Scratch scratch;
        for (std::size_t c = cb; c < ce; ++c) {
          ChunkOut& out = outs[c];
          const std::size_t fb = c * nblocks / outs.size();
          const std::size_t fe = (c + 1) * nblocks / outs.size();
          RasEventSlice slice(events.data(), out.begin, out.end);
          for (std::size_t f = fb; f < fe; ++f) {
            const bin::FrameRef& fr = *cframes[f];
            if (filter != nullptr && skip[f] != nullptr) {
              // Footer-covered and zone-rejected: zero-touch skip — the
              // payload bytes (and their mmap pages) are never read.
              out.attempted += skip[f]->count;
              ++out.blocks.total;
              ++out.blocks.skipped;
              continue;
            }
            const char* payload = base + fr.offset + bin::kBlockHeaderBytes;
            if (bin::crc32(payload, fr.size) != fr.crc) {
              out.fall_back = true;
              break;
            }
            bin::PayloadCursor cur(std::string_view(payload, fr.size),
                                   fr.offset + bin::kBlockHeaderBytes, "binary RAS log");
            try {
              cur.get<char>();  // tag, known to be 'C'
              decode_ras_column_payload(cur, &*dict, &*locs, mode, filter, out.rep, slice,
                                        out.attempted, out.blocks, scratch);
            } catch (const RasEventSlice::Overflow&) {
              out.fall_back = true;
              break;
            } catch (const Error& e) {
              if (mode == ParseMode::Strict) {
                out.has_error = true;
                out.error = e.what();
                break;
              }
            }
          }
          out.emitted = slice.size() - out.begin;
          // The scratch is shared across this worker's chunks; snapshot its
          // emit bookkeeping into the chunk and reset for the next one.
          out.fatal = std::move(scratch.fatal);
          scratch.fatal = FatalColumns{};
          out.sorted = scratch.sorted;
          scratch.sorted = true;
          scratch.last_time = std::numeric_limits<std::int64_t>::min();
        }
      },
      &pool);

  if (must_fall_back(outs)) return fall_back();
  const std::uint64_t attempted = settle_chunks(outs, events, rep, blocks);
  check_total(mode, dict->total_records, attempted, rep);

  // Each chunk verified its own order; the seams between chunks are the only
  // unchecked pairs.
  RasLog::TrustedParts parts;
  for (const ChunkOut& out : outs) {
    parts.sorted = parts.sorted && out.sorted &&
                   (out.begin == 0 || out.begin >= events.size() ||
                    events[out.begin - 1].event_time <= events[out.begin].event_time);
  }
  if (parts.sorted) {
    if (outs.size() == 1) {
      parts.fatal = std::move(outs[0].fatal);
    } else {
      std::size_t nfatal = 0;
      for (const ChunkOut& out : outs) nfatal += out.fatal.size();
      parts.fatal.event_time.reserve(nfatal);
      parts.fatal.errcode.reserve(nfatal);
      parts.fatal.loc_key.reserve(nfatal);
      parts.fatal.log_index.reserve(nfatal);
      for (const ChunkOut& out : outs) {
        const FatalColumns& f = out.fatal;
        parts.fatal.event_time.insert(parts.fatal.event_time.end(), f.event_time.begin(),
                                      f.event_time.end());
        parts.fatal.errcode.insert(parts.fatal.errcode.end(), f.errcode.begin(),
                                   f.errcode.end());
        parts.fatal.loc_key.insert(parts.fatal.loc_key.end(), f.loc_key.begin(),
                                   f.loc_key.end());
        parts.fatal.log_index.insert(parts.fatal.log_index.end(), f.log_index.begin(),
                                     f.log_index.end());
      }
    }
  }
  return RasLog(std::move(events), catalog, machine, std::move(parts));
}

// Index the region and dispatch on the first block's tag ('D' = v2,
// 'M' = v3); anything else is the sequential recovering reader's problem.
RasLog read_region_parallel(std::string_view region, const Catalog& catalog,
                            ParseMode mode, const machine::MachineModel& machine,
                            IngestReport& rep, par::ThreadPool& pool,
                            const bin::ZoneFilter* filter, bin::BlockCounters& blocks,
                            std::size_t reserve_div) {
  const auto fall_back = [&] {
    blocks = bin::BlockCounters{};
    return read_region_sequential(region, catalog, mode, machine, rep, filter, blocks,
                                  reserve_div);
  };

  std::vector<bin::FrameRef> frames;
  if (!bin::index_frames(region, frames) || frames.empty()) return fall_back();
  const char first = region[frames[0].offset + bin::kBlockHeaderBytes];
  if (first == kRasDictTag) {
    return read_region_parallel_v2(region, frames, catalog, mode, machine, rep, pool,
                                   filter, blocks, reserve_div, fall_back);
  }
  if (first == kRasMetaTag) {
    return read_region_parallel_v3(region, frames, catalog, mode, machine, rep, pool,
                                   filter, blocks, reserve_div, fall_back);
  }
  return fall_back();
}

std::string slurp(std::istream& in) {
  std::string buf;
  // Pre-size from the stream length when it is seekable (files, stringstreams).
  const auto pos = in.tellg();
  if (pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) && end > pos) {
      buf.reserve(static_cast<std::size_t>(end - pos));
    }
  }
  constexpr std::size_t kChunk = 1 << 20;
  for (;;) {
    const std::size_t old = buf.size();
    buf.resize(old + kChunk);
    in.read(buf.data() + old, static_cast<std::streamsize>(kChunk));
    const auto got = static_cast<std::size_t>(in.gcount());
    buf.resize(old + got);
    if (got < kChunk) break;
  }
  return buf;
}

// ---------------------------------------------------------------------------
// Writers

template <typename T>
void append_raw(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

std::string build_dict_payload(const RasLog& log) {
  std::string p;
  p.push_back(kRasDictTag);
  const Catalog& catalog = log.catalog();
  append_raw(p, static_cast<std::uint32_t>(catalog.size()));
  for (const ErrcodeInfo& info : catalog.all()) {
    append_raw(p, static_cast<std::uint16_t>(info.name.size()));
    p.append(info.name);
  }
  append_raw(p, static_cast<std::uint64_t>(log.size()));
  return p;
}

void encode_v2_block(std::string& payload, const RasLog& log, std::size_t base,
                     std::size_t n) {
  payload.push_back(kRasRecordTag);
  append_raw(payload, static_cast<std::uint32_t>(n));
  for (std::size_t i = base; i < base + n; ++i) {
    const RasEvent& ev = log[i];
    PackedRecord rec;
    rec.time_usec = ev.event_time.usec();
    rec.packed_location = ev.location.packed();
    rec.dict_index = static_cast<std::uint32_t>(ev.errcode);
    rec.serial = ev.serial;
    rec.severity = static_cast<std::uint8_t>(ev.severity);
    payload.append(reinterpret_cast<const char*>(&rec), sizeof rec);
  }
}

/// Frame blocks [block_begin, block_end) into per-block byte strings, fanned
/// over the pool when one is given. `encode` appends one block's complete
/// payload (tag through body); framing (size + CRC) is deterministic, so
/// parallel output is byte-identical to serial.
template <typename Encode>
void frame_blocks(std::vector<std::string>& framed, std::size_t block_begin,
                  std::size_t block_end, par::ThreadPool* pool, const Encode& encode) {
  const std::size_t nb = block_end - block_begin;
  framed.resize(nb);
  const std::size_t chunks =
      pool == nullptr || pool->thread_count() <= 1
          ? 1
          : std::max<std::size_t>(1, std::min(nb, pool->thread_count() * 4));
  par::parallel_for_chunks(
      chunks, 1,
      [&](std::size_t cb, std::size_t ce) {
        std::string payload;
        for (std::size_t c = cb; c < ce; ++c) {
          const std::size_t bb = block_begin + c * nb / chunks;
          const std::size_t be = block_begin + (c + 1) * nb / chunks;
          for (std::size_t b = bb; b < be; ++b) {
            payload.clear();
            encode(payload, b);
            std::string& out = framed[b - block_begin];
            out.clear();
            bin::append_frame(out, payload);
          }
        }
      },
      pool);
}

void write_v2(std::ostream& out, const RasLog& log, par::ThreadPool* pool) {
  out.write(kRasMagic, sizeof kRasMagic);
  out.write(reinterpret_cast<const char*>(&kRasVersion), sizeof kRasVersion);

  // Dictionary: every catalog errcode name, indexed by ErrcodeId. Written
  // twice so one damaged frame cannot make every record undecodable.
  const std::string dict = build_dict_payload(log);
  std::string head;
  bin::append_frame(head, dict);
  bin::append_frame(head, dict);
  out.write(head.data(), static_cast<std::streamsize>(head.size()));

  const std::size_t nblocks = (log.size() + kRasRecordsPerBlock - 1) / kRasRecordsPerBlock;
  // Encode in bounded batches so peak memory stays a slice of the file, not
  // a full copy of it.
  constexpr std::size_t kBatchBlocks = 4096;
  std::vector<std::string> framed;
  for (std::size_t batch = 0; batch < nblocks; batch += kBatchBlocks) {
    const std::size_t batch_end = std::min(nblocks, batch + kBatchBlocks);
    frame_blocks(framed, batch, batch_end, pool,
                 [&](std::string& payload, std::size_t b) {
                   const std::size_t base = b * kRasRecordsPerBlock;
                   encode_v2_block(payload, log, base,
                                   std::min(kRasRecordsPerBlock, log.size() - base));
                 });
    for (const std::string& f : framed) {
      out.write(f.data(), static_cast<std::streamsize>(f.size()));
    }
  }
}

void write_v3(std::ostream& out, const RasLog& log, const WriteOptions& opts) {
  const machine::MachineModel& machine = log.machine();
  out.write(kRasMagic, sizeof kRasMagic);
  out.write(reinterpret_cast<const char*>(&kRasVersion3), sizeof kRasVersion3);

  // Location dictionary: distinct packed keys in first-appearance order,
  // plus each event's index into it.
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> loc_idx(log.size());
  {
    std::unordered_map<std::uint32_t, std::uint32_t> index;
    for (std::size_t i = 0; i < log.size(); ++i) {
      const std::uint32_t key = log[i].location.packed();
      const auto [it, inserted] =
          index.try_emplace(key, static_cast<std::uint32_t>(keys.size()));
      if (inserted) keys.push_back(key);
      loc_idx[i] = it->second;
    }
  }

  std::string meta_payload;
  meta_payload.push_back(kRasMetaTag);
  bin::append_store_meta(
      meta_payload,
      bin::StoreMeta{std::string(machine.name()), std::string(kRasSchemaV3),
                     static_cast<std::uint32_t>(kRasRecordsPerBlock),
                     opts.compress ? bin::kStoreFlagCompressed : std::uint8_t{0}});
  const std::string dict_payload = build_dict_payload(log);
  std::string loc_payload;
  loc_payload.push_back(kRasLocTag);
  append_raw(loc_payload, static_cast<std::uint32_t>(keys.size()));
  for (const std::uint32_t key : keys) append_raw(loc_payload, key);

  std::string head;
  bin::append_frame(head, meta_payload);
  bin::append_frame(head, meta_payload);
  bin::append_frame(head, dict_payload);
  bin::append_frame(head, dict_payload);
  bin::append_frame(head, loc_payload);
  bin::append_frame(head, loc_payload);
  out.write(head.data(), static_cast<std::streamsize>(head.size()));

  // Offsets in segment footers count from the end of the 8-byte file
  // header, like every other offset the readers report.
  std::uint64_t offset = head.size();
  const std::size_t bps = std::max<std::size_t>(1, opts.blocks_per_segment);
  const std::size_t nblocks = (log.size() + kRasRecordsPerBlock - 1) / kRasRecordsPerBlock;
  std::vector<bin::SegmentEntry> seg;
  seg.reserve(bps);
  const auto flush_segment = [&] {
    std::string footer;
    footer.push_back(kRasSegmentTag);
    bin::append_segment_footer(footer, seg);
    std::string framed_footer;
    bin::append_frame(framed_footer, footer);
    out.write(framed_footer.data(), static_cast<std::streamsize>(framed_footer.size()));
    offset += framed_footer.size();
    seg.clear();
  };

  constexpr std::size_t kBatchBlocks = 4096;
  std::vector<std::string> framed;
  for (std::size_t batch = 0; batch < nblocks; batch += kBatchBlocks) {
    const std::size_t batch_end = std::min(nblocks, batch + kBatchBlocks);
    frame_blocks(framed, batch, batch_end, opts.pool,
                 [&](std::string& payload, std::size_t b) {
                   const std::size_t base = b * kRasRecordsPerBlock;
                   const std::size_t n =
                       std::min(kRasRecordsPerBlock, log.size() - base);
                   // Per-thread scratch would save allocations, but encode is
                   // dominated by varint/LZ work; a local string is simpler.
                   std::string raw;
                   encode_ras_column_block(payload, &log[base], n,
                                           loc_idx.data() + base, opts.compress,
                                           machine.codec(), raw);
                 });
    for (std::size_t b = batch; b < batch_end; ++b) {
      const std::string& f = framed[b - batch];
      out.write(f.data(), static_cast<std::streamsize>(f.size()));
      // The footer repeats the block's count and zone map; both sit at
      // fixed offsets in the payload we just framed.
      bin::SegmentEntry entry;
      entry.offset = offset;
      std::uint32_t count = 0;
      std::memcpy(&count, f.data() + bin::kBlockHeaderBytes + 1, sizeof count);
      entry.count = count;
      std::size_t pos = 0;
      bin::read_zone_map(
          std::string_view(f).substr(bin::kBlockHeaderBytes + 1 + sizeof count),
          pos, entry.zone);
      seg.push_back(entry);
      offset += f.size();
      if (seg.size() >= bps) flush_segment();
    }
  }
  if (!seg.empty()) flush_segment();
}

// ---------------------------------------------------------------------------
// Read entry points

RasLog read_view(std::string_view buffer, const Catalog& catalog,
                 const ReadOptions& opts) {
  IngestReport local;
  IngestReport& rep = opts.report != nullptr ? *opts.report : local;
  const machine::MachineModel& machine =
      opts.machine != nullptr ? *opts.machine : machine::bgp_model();
  obs::Span span(opts.sink, "ingest.ras_binary");
  CORAL_OBS_COUNT(opts.sink, "ingest.ras_binary.bytes", buffer.size());

  std::uint32_t version = kRasVersion;
  const bool header_ok = buffer.size() >= sizeof kRasMagic + sizeof version &&
                         std::memcmp(buffer.data(), kRasMagic, sizeof kRasMagic) == 0;
  if (header_ok) {
    std::memcpy(&version, buffer.data() + sizeof kRasMagic, sizeof version);
  }
  if (opts.mode == ParseMode::Strict) {
    if (!header_ok) throw ParseError("not a binary RAS log (bad magic)");
    if (version != kRasVersion && version != kRasVersion3) {
      throw ParseError("unsupported binary RAS log version " + std::to_string(version));
    }
  }
  // Lenient mode tolerates a damaged file header: the framed blocks are
  // self-locating, so recovery proceeds from whatever survives. Offsets in
  // reports and errors are relative to the end of the 8-byte header, as the
  // streaming reader always counted them.
  const std::string_view region =
      buffer.substr(std::min(buffer.size(), sizeof kRasMagic + sizeof version));

  // Bound for the corrupt-declared-total allocation guard: v2 records are
  // fixed 24 bytes; v3 columns bottom out at 8 bytes per record before
  // compression, and compression is bounded by the block floor anyway.
  const std::size_t reserve_div = version == kRasVersion3 ? 8 : sizeof(PackedRecord);

  std::optional<bin::ZoneFilter> filter_store;
  const bin::ZoneFilter* filter = nullptr;
  if (!opts.predicate.unconstrained()) {
    filter_store.emplace(opts.predicate, machine.codec(), machine.midplane_count());
    filter = &*filter_store;
  }

  bin::BlockCounters blocks;
  // Any pool takes the in-place path, a single-thread one too: it decodes
  // straight from the mapped region into unwritten slots, while the
  // sequential reader copies each block through an istream before decoding
  // it. On a 2M-record v3 file in-place read through a 1-thread pool
  // measured 80-122 ms against 98-140 ms sequential (4-vCPU host, medians
  // of 8 interleaved rounds of 8 reads).
  RasLog log = opts.pool != nullptr
                   ? read_region_parallel(region, catalog, opts.mode, machine, rep,
                                          *opts.pool, filter, blocks, reserve_div)
                   : read_region_sequential(region, catalog, opts.mode, machine, rep,
                                            filter, blocks, reserve_div);

  CORAL_OBS_COUNT(opts.sink, "ingest.ras_binary.blocks_total", blocks.total);
  CORAL_OBS_COUNT(opts.sink, "ingest.ras_binary.blocks_decoded", blocks.decoded);
  CORAL_OBS_COUNT(opts.sink, "ingest.ras_binary.blocks_skipped", blocks.skipped);

  span.counts(rep.records_seen(), rep.records_ok());
  rep.report_malformed(opts.sink, "ingest.ras_binary");
  return log;
}

}  // namespace

void write_binary(std::ostream& out, const RasLog& log) {
  write_v2(out, log, nullptr);
}

void write_binary(std::ostream& out, const RasLog& log, const WriteOptions& opts) {
  if (opts.version == kRasVersion) {
    write_v2(out, log, opts.pool);
  } else if (opts.version == kRasVersion3) {
    write_v3(out, log, opts);
  } else {
    throw InvalidArgument("unsupported binary RAS log version " +
                          std::to_string(opts.version));
  }
}

RasLog read_binary(std::istream& in, const Catalog& catalog, const ReadOptions& opts) {
  // Buffer the whole input once; frames are then indexed and decoded in
  // place, with no per-block payload copies. A string-backed stream already
  // holds a contiguous buffer — decode straight from its view instead of
  // copying tens of MB. Otherwise a seekable stream reveals its size up
  // front, so the buffer can be read in one pass into default-initialized
  // memory (std::string would zero-fill it first); anything else goes
  // through the chunked slurp.
  if (auto* sb = dynamic_cast<std::stringbuf*>(in.rdbuf())) {
    const auto pos = in.tellg();
    if (pos != std::istream::pos_type(-1)) {
      const std::string_view view = sb->view();
      const auto off = static_cast<std::size_t>(pos);
      if (off <= view.size()) {
        in.seekg(0, std::ios::end);
        return read_view(view.substr(off), catalog, opts);
      }
    }
  }
  const auto pos = in.tellg();
  if (pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) && end > pos) {
      const auto size = static_cast<std::size_t>(end - pos);
      const std::unique_ptr<char[]> mem(new char[size]);
      in.read(mem.get(), static_cast<std::streamsize>(size));
      if (static_cast<std::size_t>(in.gcount()) == size) {
        return read_view(std::string_view(mem.get(), size), catalog, opts);
      }
    }
  }
  const std::string buffer = slurp(in);
  return read_view(buffer, catalog, opts);
}

RasLog read_binary_file(const std::string& path, const Catalog& catalog,
                        const ReadOptions& opts) {
#ifdef CORAL_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw Error("cannot open binary RAS log: " + path);
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw Error("cannot stat binary RAS log: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return read_view(std::string_view{}, catalog, opts);
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped != MAP_FAILED) {
    struct Unmap {
      void* p;
      std::size_t n;
      ~Unmap() { ::munmap(p, n); }
    } guard{mapped, size};
    return read_view(std::string_view(static_cast<const char*>(mapped), size), catalog,
                     opts);
  }
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open binary RAS log: " + path);
  return read_binary(in, catalog, opts);
}

}  // namespace coral::ras
