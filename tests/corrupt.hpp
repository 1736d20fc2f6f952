#pragma once

// Deterministic corruption harness for the hardened-ingest tests: every
// mutation is driven by a caller-seeded coral::Rng, so a failing corpus case
// reproduces from its seed alone. The mutators work on raw serialized bytes
// (CSV text or framed binary), exactly like damage in the wild: truncation
// at an arbitrary byte, flipped bits, mangled fields, duplicated rows and
// interleaved garbage.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/rng.hpp"

namespace coral::testing {

/// Cut the tail off: keep a uniform fraction in [min_keep, 1) of the bytes.
inline std::string truncate_bytes(const std::string& data, Rng& rng,
                                  double min_keep = 0.5) {
  if (data.empty()) return data;
  const auto keep = static_cast<std::size_t>(
      rng.uniform(min_keep, 1.0) * static_cast<double>(data.size()));
  return data.substr(0, std::max<std::size_t>(keep, 1));
}

/// Flip `flips` random bits anywhere in the buffer.
inline std::string flip_bits(const std::string& data, Rng& rng, int flips) {
  std::string out = data;
  for (int i = 0; i < flips && !out.empty(); ++i) {
    const std::size_t at = rng.uniform_index(out.size());
    out[at] = static_cast<char>(out[at] ^ (1 << rng.uniform_index(8)));
  }
  return out;
}

// -- Framed-binary mutators: operate on whole CBLK frames so a test can aim
// -- damage at one block kind (v3 compressed bodies, zone maps) instead of
// -- spraying bits and hoping one lands in the structure under test.

/// Byte offsets of every intact "CBLK" frame header after the 8-byte file
/// header (naive scan; mirrors how the lenient reader resynchronizes).
inline std::vector<std::size_t> frame_offsets(const std::string& data) {
  std::vector<std::size_t> at;
  std::size_t p = 8;
  while (p + bin::kBlockHeaderBytes <= data.size()) {
    if (std::memcmp(data.data() + p, bin::kBlockMagic, sizeof bin::kBlockMagic) != 0) {
      ++p;
      continue;
    }
    std::uint32_t size = 0;
    std::memcpy(&size, data.data() + p + sizeof bin::kBlockMagic, sizeof size);
    if (p + bin::kBlockHeaderBytes + size > data.size()) break;
    at.push_back(p);
    p += bin::kBlockHeaderBytes + size;
  }
  return at;
}

/// Offsets of frames whose payload starts with `tag` ('C' columnar blocks,
/// 'S' segment footers, ...).
inline std::vector<std::size_t> frames_with_tag(const std::string& data, char tag) {
  std::vector<std::size_t> out;
  for (const std::size_t p : frame_offsets(data)) {
    if (data[p + bin::kBlockHeaderBytes] == tag) out.push_back(p);
  }
  return out;
}

/// Flip `flips` bits inside the payload of one random `tag` frame. The CRC
/// is left stale, so the framing layer must drop exactly that block.
inline std::string flip_block_payload(const std::string& data, Rng& rng, char tag,
                                      int flips = 1) {
  const auto frames = frames_with_tag(data, tag);
  if (frames.empty()) return data;
  std::string out = data;
  const std::size_t p = frames[rng.uniform_index(frames.size())];
  std::uint32_t size = 0;
  std::memcpy(&size, out.data() + p + sizeof bin::kBlockMagic, sizeof size);
  for (int i = 0; i < flips && size > 0; ++i) {
    const std::size_t at = p + bin::kBlockHeaderBytes + rng.uniform_index(size);
    out[at] = static_cast<char>(out[at] ^ (1 << rng.uniform_index(8)));
  }
  return out;
}

/// Corrupt the 32-byte zone map of one random v3 'C' block and REPAIR the
/// frame CRC, so the lie survives framing and reaches the zone-skip logic:
/// a pushdown read may now wrongly skip (or wrongly decode) that block, and
/// the invariant under test is that accounting stays exact anyway.
inline std::string lie_in_zone_map(const std::string& data, Rng& rng) {
  const auto frames = frames_with_tag(data, 'C');
  if (frames.empty()) return data;
  std::string out = data;
  const std::size_t p = frames[rng.uniform_index(frames.size())];
  std::uint32_t size = 0;
  std::memcpy(&size, out.data() + p + sizeof bin::kBlockMagic, sizeof size);
  // Payload: tag | u32 count | 32-byte zone map | ...
  const std::size_t zone_at = p + bin::kBlockHeaderBytes + 1 + sizeof(std::uint32_t);
  constexpr std::size_t kZoneBytes = 32;
  if (zone_at + kZoneBytes > p + bin::kBlockHeaderBytes + size) return data;
  for (int i = 0; i < 4; ++i) {
    const std::size_t at = zone_at + rng.uniform_index(kZoneBytes);
    out[at] = static_cast<char>(out[at] ^ (1 << rng.uniform_index(8)));
  }
  const std::uint32_t crc = bin::crc32(out.data() + p + bin::kBlockHeaderBytes, size);
  std::memcpy(out.data() + p + sizeof bin::kBlockMagic + sizeof size, &crc, sizeof crc);
  return out;
}

/// Rewrite the declared record count of one random `tag` record block ('R'
/// in v2, 'C' in v3: a u32 right after the tag) and REPAIR the frame CRC,
/// so the lie reaches the decoders. The new count is far too large, a block
/// or so too large, zero, or one off. A pooled reader sizes its output from
/// these counts, so the lie may cost it a fallback to the sequential read
/// but never a write past its slice.
inline std::string lie_in_block_count(const std::string& data, Rng& rng, char tag) {
  const auto frames = frames_with_tag(data, tag);
  if (frames.empty()) return data;
  std::string out = data;
  const std::size_t p = frames[rng.uniform_index(frames.size())];
  std::uint32_t size = 0;
  std::memcpy(&size, out.data() + p + sizeof bin::kBlockMagic, sizeof size);
  const std::size_t count_at = p + bin::kBlockHeaderBytes + 1;
  std::uint32_t n = 0;
  if (size < 1 + sizeof n) return data;
  std::memcpy(&n, out.data() + count_at, sizeof n);
  switch (rng.uniform_index(5)) {
    case 0: n = 0xFFFFFFFFu - static_cast<std::uint32_t>(rng.uniform_index(1000)); break;
    case 1: n += 1 + static_cast<std::uint32_t>(rng.uniform_index(100)); break;
    case 2: n = 0; break;
    case 3: n += 1; break;
    default: n -= 1; break;
  }
  std::memcpy(out.data() + count_at, &n, sizeof n);
  const std::uint32_t crc = bin::crc32(out.data() + p + bin::kBlockHeaderBytes, size);
  std::memcpy(out.data() + p + sizeof bin::kBlockMagic + sizeof size, &crc, sizeof crc);
  return out;
}

// -- CSV-specific mutators: operate on physical lines so the damage modes
// -- are recognizable (and countable) at the record layer.

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// Index of a random data line (line 0, the header, is never touched).
inline std::size_t pick_data_line(const std::vector<std::string>& lines, Rng& rng) {
  return 1 + rng.uniform_index(lines.size() - 1);
}

/// Mangle one field of `count` random data rows: the field's bytes are
/// replaced with text that parses as a string but not as the field's type.
inline std::string mangle_csv_fields(const std::string& csv, Rng& rng, int count) {
  std::vector<std::string> lines = split_lines(csv);
  if (lines.size() < 2) return csv;
  for (int i = 0; i < count; ++i) {
    std::string& line = lines[pick_data_line(lines, rng)];
    std::vector<std::size_t> commas;
    for (std::size_t p = 0; p < line.size(); ++p) {
      if (line[p] == ',') commas.push_back(p);
    }
    if (commas.empty()) continue;
    const std::size_t f = rng.uniform_index(commas.size());
    const std::size_t begin = f == 0 ? 0 : commas[f - 1] + 1;
    const std::size_t end = f < commas.size() ? commas[f] : line.size();
    line = line.substr(0, begin) + "?garbled?" + line.substr(end);
  }
  return join_lines(lines);
}

/// Duplicate `count` random data rows in place (adjacent duplicate).
inline std::string duplicate_csv_rows(const std::string& csv, Rng& rng, int count) {
  std::vector<std::string> lines = split_lines(csv);
  if (lines.size() < 2) return csv;
  for (int i = 0; i < count; ++i) {
    const std::size_t at = pick_data_line(lines, rng);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
  }
  return join_lines(lines);
}

/// Insert `count` lines of non-CSV garbage (wrong width, binary-ish bytes).
inline std::string insert_garbage_rows(const std::string& csv, Rng& rng, int count) {
  static const char* kGarbage[] = {
      "### log rotated here ###",
      "\x01\x02\x03 binary splatter \x7f\x10",
      "kernel panic - not syncing: attempted to kill init",
      "0,1,2",
  };
  std::vector<std::string> lines = split_lines(csv);
  if (lines.size() < 2) return csv;
  for (int i = 0; i < count; ++i) {
    const std::size_t at = pick_data_line(lines, rng);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 kGarbage[rng.uniform_index(std::size(kGarbage))]);
  }
  return join_lines(lines);
}

/// Drop a closing quote into one data row ("ab" -> "ab) so the row's quote
/// parity goes odd — the classic framing corruption a lenient reader must
/// contain to one line.
inline std::string unbalance_csv_quote(const std::string& csv, Rng& rng) {
  std::vector<std::string> lines = split_lines(csv);
  if (lines.size() < 2) return csv;
  std::string& line = lines[pick_data_line(lines, rng)];
  const std::size_t at = line.empty() ? 0 : rng.uniform_index(line.size());
  line.insert(at, 1, '"');
  return join_lines(lines);
}

}  // namespace coral::testing
