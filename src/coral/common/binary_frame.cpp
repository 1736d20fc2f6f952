#include "coral/common/binary_frame.hpp"

#include <cstring>
#include <istream>
#include <ostream>

#include "coral/common/error.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define CORAL_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace coral::bin {

namespace {

// Slicing-by-16 tables: entries[0] is the classic byte-at-a-time table, and
// entries[k][b] is the CRC of byte b followed by k zero bytes, so one round
// folds sixteen input bytes with sixteen independent lookups (twice the
// ILP of slicing-by-8 — the round's lookups have no chain through `c`
// except at the fold, and checksumming is a fixed tax on every read).
struct Crc32Table {
  std::uint32_t entries[16][256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entries[0][i] = c;
    }
    for (int k = 1; k < 16; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
  }
};

const Crc32Table& crc_table() {
  static const Crc32Table table;
  return table;
}

constexpr std::size_t kHeaderBytes = kBlockHeaderBytes;

/// Advance the CRC register `c` (kept inverted, as crc32() holds it) over
/// `size` bytes with the slicing-by-16 tables.
std::uint32_t crc32_sliced(std::uint32_t c, const unsigned char* p, std::size_t size) {
  const auto& t = crc_table().entries;
  // Same little-endian-host assumption the frame layout already makes.
  while (size >= 16) {
    std::uint32_t w0;
    std::uint32_t w1;
    std::uint32_t w2;
    std::uint32_t w3;
    std::memcpy(&w0, p, sizeof w0);
    std::memcpy(&w1, p + 4, sizeof w1);
    std::memcpy(&w2, p + 8, sizeof w2);
    std::memcpy(&w3, p + 12, sizeof w3);
    w0 ^= c;
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^ t[13][(w0 >> 16) & 0xFFu] ^
        t[12][w0 >> 24] ^ t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
        t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^ t[7][w2 & 0xFFu] ^
        t[6][(w2 >> 8) & 0xFFu] ^ t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^ t[1][(w3 >> 16) & 0xFFu] ^
        t[0][w3 >> 24];
    p += 16;
    size -= 16;
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef CORAL_CRC32_CLMUL

#define CORAL_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/// Carry `acc` forward by the distance `k` encodes and add `next`.
CORAL_CLMUL_TARGET inline __m128i clmul_fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding for the reflected CRC-32 (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009 — the scheme zlib's and the Linux kernel's x86 CRC-32 use).
// The constants are bit-reflected remainders x^k mod P(x) for the fold
// distances: 512 +/- 32 bits (four-way fold), 128 +/- 32 bits (single
// fold), 64 bits (128 -> 64 reduction), then the Barrett pair
// mu = floor(x^64 / P) and P itself.
//
// Advances the register `c` over `size` bytes; size must be a multiple of
// 16 and at least 64.
CORAL_CLMUL_TARGET std::uint32_t crc32_clmul(std::uint32_t c, const unsigned char* p,
                                             std::size_t size) {
  alignas(16) static const std::uint64_t k1k2[2] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const std::uint64_t k3k4[2] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const std::uint64_t k5k0[2] = {0x0163cd6124, 0x0000000000};
  alignas(16) static const std::uint64_t poly[2] = {0x01db710641, 0x01f7011641};
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  const auto constant = [](const std::uint64_t* pair) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(pair));
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  size -= 64;

  // Four independent accumulators, each carried 64 bytes per round.
  __m128i k = constant(k1k2);
  while (size >= 64) {
    x1 = clmul_fold(x1, k, load(p));
    x2 = clmul_fold(x2, k, load(p + 16));
    x3 = clmul_fold(x3, k, load(p + 32));
    x4 = clmul_fold(x4, k, load(p + 48));
    p += 64;
    size -= 64;
  }

  // Fold the four into one, then any remaining whole 16-byte blocks.
  k = constant(k3k4);
  x1 = clmul_fold(x1, k, x2);
  x1 = clmul_fold(x1, k, x3);
  x1 = clmul_fold(x1, k, x4);
  while (size >= 16) {
    x1 = clmul_fold(x1, k, load(p));
    p += 16;
    size -= 16;
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x00), x2);

  // Barrett reduction to 32 bits.
  k = constant(poly);
  x2 = _mm_and_si128(x1, mask32);
  x2 = _mm_clmulepi64_si128(x2, k, 0x10);
  x2 = _mm_and_si128(x2, mask32);
  x2 = _mm_clmulepi64_si128(x2, k, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool cpu_has_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

// Dispatched once, during static initialization. A crc32() call from another
// translation unit's static initializer that happens to run first sees the
// zero-initialized `false` and takes the table path: same value, slower.
const bool kUseClmul = cpu_has_clmul();

#undef CORAL_CLMUL_TARGET

#endif  // CORAL_CRC32_CLMUL

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
#ifdef CORAL_CRC32_CLMUL
  if (kUseClmul && size >= 64) {
    const std::size_t folded = size & ~std::size_t{15};
    c = crc32_clmul(c, p, folded);
    p += folded;
    size -= folded;
  }
#endif
  return crc32_sliced(c, p, size) ^ 0xFFFFFFFFu;
}

bool index_frames(std::string_view region, std::vector<FrameRef>& out) {
  std::size_t pos = 0;
  while (pos < region.size()) {
    if (region.size() - pos < kHeaderBytes) return false;  // truncated header
    if (std::memcmp(region.data() + pos, kBlockMagic, sizeof kBlockMagic) != 0) return false;
    std::uint32_t size = 0;
    std::uint32_t crc = 0;
    std::memcpy(&size, region.data() + pos + sizeof kBlockMagic, sizeof size);
    std::memcpy(&crc, region.data() + pos + sizeof kBlockMagic + sizeof size, sizeof crc);
    if (size == 0 || size > kMaxBlockPayload) return false;
    if (region.size() - pos - kHeaderBytes < size) return false;  // truncated payload
    out.push_back({pos, size, crc});
    pos += kHeaderBytes + size;
  }
  return true;
}

void append_frame(std::string& out, std::string_view payload) {
  if (payload.empty()) return;
  out.append(kBlockMagic, sizeof kBlockMagic);
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&size), sizeof size);
  out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  out.append(payload.data(), payload.size());
}

void BlockWriter::append(const void* data, std::size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void BlockWriter::put_string(const std::string& s) {
  put(static_cast<std::uint16_t>(s.size()));
  append(s.data(), s.size());
}

void BlockWriter::flush() {
  if (buf_.empty()) return;
  out_.write(kBlockMagic, sizeof kBlockMagic);
  const auto size = static_cast<std::uint32_t>(buf_.size());
  const std::uint32_t crc = crc32(buf_.data(), buf_.size());
  out_.write(reinterpret_cast<const char*>(&size), sizeof size);
  out_.write(reinterpret_cast<const char*>(&crc), sizeof crc);
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void FrameAssembler::push(std::string_view bytes) {
  // Compact once per push, not once per frame: next() only advances head_,
  // so the buffer holds at most the unconsumed backlog plus this chunk.
  if (head_ != 0) {
    pending_.erase(0, head_);
    head_ = 0;
  }
  pending_.append(bytes.data(), bytes.size());
}

void FrameAssembler::drop(std::size_t n) {
  head_ += n;
  pending_base_ += n;
  if (head_ == pending_.size()) {  // fully consumed: reset for free
    pending_.clear();
    head_ = 0;
  }
}

void FrameAssembler::note_damage(std::uint64_t offset, const char* detail) {
  if (in_damage_) return;  // one sample per damaged stretch
  in_damage_ = true;
  if (mode_ == ParseMode::Strict) {
    throw ParseError(std::string(what_) + ": " + detail + " at byte offset " +
                     std::to_string(offset));
  }
  if (report_ != nullptr) {
    report_->add_malformed(IngestReason::BinaryFrame, offset, "", detail);
  }
}

bool FrameAssembler::resync() {
  const std::string_view buf = unread();
  const std::size_t at = buf.find(std::string_view(kBlockMagic, sizeof kBlockMagic), 1);
  if (at != std::string_view::npos) {
    drop(at);
    return true;
  }
  // No marker in the buffer: keep a partial-marker tail in case the "CBLK"
  // straddles the next push; at end-of-stream the tail is trailing garbage
  // (already covered by the open damage stretch).
  const std::size_t keep =
      buf.size() < sizeof kBlockMagic - 1 ? buf.size() : sizeof kBlockMagic - 1;
  drop(buf.size() - keep);
  if (eos_) drop(buffered());
  return false;
}

bool FrameAssembler::next(std::string& payload) {
  for (;;) {
    const std::string_view buf = unread();
    if (buf.empty()) return false;  // clean: everything consumed
    const std::uint64_t start = pending_base_;
    if (buf.size() < kHeaderBytes) {
      if (!eos_) return false;  // header may complete on the next push
      note_damage(start, "truncated block header");
      drop(buf.size());
      return false;
    }
    if (std::memcmp(buf.data(), kBlockMagic, sizeof kBlockMagic) != 0) {
      note_damage(start, "bad block magic");
      if (!resync()) return false;
      continue;
    }
    std::uint32_t size = 0;
    std::uint32_t crc = 0;
    std::memcpy(&size, buf.data() + sizeof kBlockMagic, sizeof size);
    std::memcpy(&crc, buf.data() + sizeof kBlockMagic + sizeof size, sizeof crc);
    if (size == 0 || size > kMaxBlockPayload) {
      note_damage(start, "implausible block size");
      if (!resync()) return false;
      continue;
    }
    if (buf.size() < kHeaderBytes + size) {
      if (!eos_) return false;  // payload still in flight
      // The truncated tail cannot hold a complete block (it is shorter than
      // this one), but may still contain a marker for a shorter final block.
      note_damage(start, "truncated block payload");
      if (!resync()) return false;
      continue;
    }
    if (crc32(buf.data() + kHeaderBytes, size) != crc) {
      note_damage(start, "block CRC mismatch");
      if (!resync()) return false;
      continue;
    }
    payload.assign(buf.data() + kHeaderBytes, size);
    block_offset_ = start;
    drop(kHeaderBytes + size);
    in_damage_ = false;
    return true;
  }
}

bool BlockReader::next(std::string& payload) {
  constexpr std::size_t kChunk = 64 * 1024;
  while (!frames_.next(payload)) {
    if (eof_) return false;
    chunk_.resize(kChunk);
    in_.read(chunk_.data(), static_cast<std::streamsize>(kChunk));
    frames_.push(std::string_view(chunk_.data(), static_cast<std::size_t>(in_.gcount())));
    if (!in_.good()) {
      eof_ = true;
      frames_.finish();
    }
  }
  return true;
}

void PayloadCursor::read(void* dst, std::size_t n) {
  if (n > remaining()) {
    throw ParseError(std::string(what_) + ": truncated field at byte offset " +
                     std::to_string(offset()));
  }
  std::memcpy(dst, data_.data() + pos_, n);
  pos_ += n;
}

std::string_view PayloadCursor::take(std::size_t n) {
  if (n > remaining()) {
    throw ParseError(std::string(what_) + ": truncated field at byte offset " +
                     std::to_string(offset()));
  }
  const std::string_view v = data_.substr(pos_, n);
  pos_ += n;
  return v;
}

std::string PayloadCursor::get_string(std::size_t n) {
  if (n > remaining()) {
    throw ParseError(std::string(what_) + ": truncated string at byte offset " +
                     std::to_string(offset()));
  }
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

}  // namespace coral::bin
