#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "coral/common/ingest.hpp"

namespace coral::bin {

/// CRC-32 (IEEE 802.3 polynomial, reflected), the zlib/gzip checksum.
///
/// Two paths, one value. The portable one is table-driven slicing-by-16:
/// sixteen bytes per round through sixteen 256-entry tables. On x86-64
/// hosts whose CPU has PCLMULQDQ (and SSE4.1), inputs of 64 bytes or more
/// instead fold their whole 16-byte blocks with carry-less multiplies —
/// four 128-bit accumulators, each advanced 64 bytes per round, then folded
/// into one and Barrett-reduced to 32 bits — and only the last size % 16
/// bytes go through the table. The choice is made once, at static
/// initialization, from __builtin_cpu_supports; other hosts, and inputs
/// under 64 bytes, always take the table.
std::uint32_t crc32(const void* data, std::size_t size);

/// Per-block framing for the v2 binary log formats.
///
/// Each block is `magic "CBLK" | u32 payload_size | u32 crc32(payload) |
/// payload` (all little-endian, written on little-endian hosts only — same
/// assumption the v1 record dumps already made). The frame makes corruption
/// *local*: a strict reader still throws on the first damaged byte, but a
/// lenient reader drops the damaged block and scans forward for the next
/// "CBLK" marker, so a burst of flipped bits or a mid-file truncation costs
/// one block of records instead of the whole log.
inline constexpr char kBlockMagic[4] = {'C', 'B', 'L', 'K'};
/// Upper bound on a plausible payload; larger sizes are treated as frame
/// corruption rather than honoured (a flipped size byte must not trigger a
/// gigabyte allocation).
inline constexpr std::uint32_t kMaxBlockPayload = 1u << 24;
/// Bytes of frame overhead preceding each payload (magic + size + crc).
inline constexpr std::size_t kBlockHeaderBytes =
    sizeof kBlockMagic + 2 * sizeof(std::uint32_t);

/// Append one framed block (header + crc + payload) to a byte buffer —
/// the in-memory counterpart of BlockWriter::flush(), so parallel writers
/// can frame blocks on worker threads and concatenate the results into the
/// exact byte sequence the serial writer produces.
void append_frame(std::string& out, std::string_view payload);

/// Accumulates payload bytes and writes them as framed blocks. Callers
/// decide block granularity by calling flush(); destruction flushes any
/// remaining bytes.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out) : out_(out) {}
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;
  ~BlockWriter() { flush(); }

  void append(const void* data, std::size_t size);
  template <typename T>
  void put(T value) {
    append(&value, sizeof value);
  }
  void put_string(const std::string& s);

  std::size_t pending() const { return buf_.size(); }
  /// Write the buffered payload as one framed block (no-op when empty).
  void flush();

 private:
  std::ostream& out_;
  std::string buf_;
};

/// One block located by index_frames(): header at `offset` into the scanned
/// region, payload of `size` bytes at `offset + kBlockHeaderBytes`. The
/// stored checksum is carried so CRC verification can run later (and in
/// parallel) over the payload in place.
struct FrameRef {
  std::uint64_t offset = 0;
  std::uint32_t size = 0;
  std::uint32_t crc = 0;
};

/// Walk `region` as a sequence of framed blocks without touching payload
/// bytes (headers only — no CRC pass, no copies). Returns true when the
/// region is tiled exactly by well-formed frames, appending one FrameRef per
/// block; returns false at the first framing anomaly (bad magic, implausible
/// size, truncation), leaving `out` holding the frames located so far.
/// Callers that need damage recovery or exact damage messages fall back to
/// FrameAssembler (through BlockReader), which is the authority on both.
bool index_frames(std::string_view region, std::vector<FrameRef>& out);

/// The one implementation of frame parsing, damage accounting and resync,
/// for byte streams that arrive in pieces (a socket, a tailed file, an
/// istream read in chunks): push() appends raw bytes, next() yields each
/// complete intact payload as soon as its last byte is in, and finish()
/// signals end-of-stream so the final truncation accounting can run.
///
/// Damage semantics: a damaged stretch — however many resync steps it takes
/// to find the next "CBLK" marker — is one sample in `report` (strict mode
/// throws ParseError with the byte offset instead), and byte offsets count
/// from the first byte ever pushed. The payload sequence and IngestReport
/// depend only on the bytes, never on how they were split across push()es;
/// BlockReader, the session and the wire ingest path all lean on that for
/// their accounting parity with each other.
///
/// Cost: amortized O(1) per byte. next() advances a consume offset instead
/// of erasing the buffer's front, and push() compacts the consumed prefix
/// once before appending, so the buffer never holds more than the unconsumed
/// backlog plus the chunk being pushed.
class FrameAssembler {
 public:
  FrameAssembler(ParseMode mode, IngestReport* report, const char* what)
      : mode_(mode), report_(report), what_(what) {}

  /// Append raw stream bytes (any chunking; frame boundaries need not align).
  void push(std::string_view bytes);

  /// Fetch the next complete intact payload. Returns false when the buffered
  /// bytes do not (yet) contain one — call again after more push()es, or
  /// after finish() to drain the tail.
  bool next(std::string& payload);

  /// Byte offset of the start of the block most recently returned.
  std::uint64_t block_offset() const { return block_offset_; }

  /// Declare end-of-stream: leftover bytes that can no longer become a
  /// complete frame are accounted as damage (a truncated header or payload,
  /// or trailing garbage). next() may still yield payloads buffered before
  /// the call.
  void finish() { eos_ = true; }

  /// Bytes buffered but not yet consumed as frames (live backlog gauge).
  std::size_t buffered() const { return pending_.size() - head_; }

 private:
  std::string_view unread() const { return std::string_view(pending_).substr(head_); }
  void drop(std::size_t n);
  void note_damage(std::uint64_t offset, const char* detail);
  /// Skip to the next possible "CBLK" marker. Returns false when the buffer
  /// was exhausted without one (wait for more bytes / end of tail).
  bool resync();

  ParseMode mode_;
  IngestReport* report_;
  const char* what_;
  std::string pending_;
  std::size_t head_ = 0;            ///< pending_[0, head_) is already consumed
  std::uint64_t pending_base_ = 0;  ///< absolute offset of pending_[head_]
  std::uint64_t block_offset_ = 0;
  bool eos_ = false;
  /// True while inside a damaged stretch: follow-on damage is not re-counted
  /// until a good frame closes the stretch.
  bool in_damage_ = false;
};

/// Reads framed blocks back from an istream: a FrameAssembler fed with
/// 64 KiB reads, finished at end of input. Strict mode throws ParseError
/// (with the byte offset) on any damaged frame; lenient mode records the
/// damage in `report` and resynchronizes at the next block marker.
class BlockReader {
 public:
  BlockReader(std::istream& in, ParseMode mode, IngestReport* report,
              const char* what)
      : in_(in), frames_(mode, report, what) {}

  /// Fetch the next intact block payload. Returns false at end of input
  /// (clean EOF in strict mode; in lenient mode also after trailing
  /// garbage, which is counted as one dropped frame).
  bool next(std::string& payload);

  /// Byte offset of the start of the block most recently returned.
  std::uint64_t block_offset() const { return frames_.block_offset(); }

 private:
  std::istream& in_;
  FrameAssembler frames_;
  std::string chunk_;  ///< read buffer, reused across reads
  bool eof_ = false;
};

/// A bounds-checked little-endian cursor over one block payload — a view,
/// so it reads equally from a FrameAssembler's copied payload or from a mapped
/// file region in place. get<T> failures surface the absolute byte offset of
/// the failing field.
class PayloadCursor {
 public:
  PayloadCursor(std::string_view payload, std::uint64_t base_offset,
                const char* what)
      : data_(payload), base_(base_offset), what_(what) {}

  template <typename T>
  T get() {
    T value{};
    read(&value, sizeof value);
    return value;
  }
  void read(void* dst, std::size_t n);
  std::string get_string(std::size_t n);
  /// Zero-copy view of the next n bytes, advancing the cursor. Throws like
  /// read() when fewer than n remain; the view aliases the payload.
  std::string_view take(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  /// Absolute input offset of the next unread byte.
  std::uint64_t offset() const { return base_ + pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  std::uint64_t base_;
  const char* what_;
};

}  // namespace coral::bin
