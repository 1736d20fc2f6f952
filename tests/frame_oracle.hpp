#pragma once

// Test oracle: the istream block reader as it stood before BlockReader was
// rebuilt on FrameAssembler, frozen verbatim (front-erasing buffer, its own
// magic/size/CRC checks and resync) apart from the class name. The framing
// differential tests pin the live FrameAssembler and BlockReader to it, so
// the one remaining framing implementation keeps the exact payload sequence,
// damage offsets, messages and IngestReport of the one it replaced.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <string>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/ingest.hpp"

namespace coral::testing {

class LegacyBlockReader {
 public:
  LegacyBlockReader(std::istream& in, ParseMode mode, IngestReport* report,
                    const char* what)
      : in_(in), mode_(mode), report_(report), what_(what) {}

  std::uint64_t block_offset() const { return block_offset_; }

  bool next(std::string& payload) {
    constexpr std::size_t kHeaderBytes = bin::kBlockHeaderBytes;
    const char* kBlockMagic = bin::kBlockMagic;
    bool damage_noted = false;
    const auto damaged = [&](std::uint64_t offset, const char* detail) {
      if (!damage_noted) note_damage(offset, detail);
      damage_noted = true;
    };
    const auto resync = [&] {
      const std::size_t at = pending_.find(kBlockMagic, 1, sizeof bin::kBlockMagic);
      if (at != std::string::npos) {
        drop(at);
      } else {
        const std::size_t keep = pending_.size() < sizeof bin::kBlockMagic - 1
                                     ? pending_.size()
                                     : sizeof bin::kBlockMagic - 1;
        drop(pending_.size() - keep);
        fill(kHeaderBytes);
        if (pending_.size() < kHeaderBytes) drop(pending_.size());
      }
    };

    for (;;) {
      fill(kHeaderBytes);
      if (pending_.empty()) return false;
      const std::uint64_t start = pending_base_;
      if (pending_.size() < kHeaderBytes) {
        damaged(start, "truncated block header");
        drop(pending_.size());
        return false;
      }
      if (std::memcmp(pending_.data(), kBlockMagic, sizeof bin::kBlockMagic) != 0) {
        damaged(start, "bad block magic");
        resync();
        continue;
      }
      std::uint32_t size = 0;
      std::uint32_t crc = 0;
      std::memcpy(&size, pending_.data() + sizeof bin::kBlockMagic, sizeof size);
      std::memcpy(&crc, pending_.data() + sizeof bin::kBlockMagic + sizeof size,
                  sizeof crc);
      if (size == 0 || size > bin::kMaxBlockPayload) {
        damaged(start, "implausible block size");
        resync();
        continue;
      }
      fill(kHeaderBytes + size);
      if (pending_.size() < kHeaderBytes + size) {
        damaged(start, "truncated block payload");
        resync();
        if (pending_.empty()) return false;
        continue;
      }
      if (bin::crc32(pending_.data() + kHeaderBytes, size) != crc) {
        damaged(start, "block CRC mismatch");
        resync();
        continue;
      }
      payload.assign(pending_, kHeaderBytes, size);
      block_offset_ = start;
      drop(kHeaderBytes + size);
      return true;
    }
  }

 private:
  void fill(std::size_t want) {
    constexpr std::size_t kChunk = 64 * 1024;
    while (pending_.size() < want && in_.good()) {
      const std::size_t old = pending_.size();
      const std::size_t grow = std::max(want - old, kChunk);
      pending_.resize(old + grow);
      in_.read(pending_.data() + old, static_cast<std::streamsize>(grow));
      pending_.resize(old + static_cast<std::size_t>(in_.gcount()));
    }
  }

  void drop(std::size_t n) {
    pending_.erase(0, n);
    pending_base_ += n;
  }

  void note_damage(std::uint64_t offset, const char* detail) {
    if (mode_ == ParseMode::Strict) {
      throw ParseError(std::string(what_) + ": " + detail + " at byte offset " +
                       std::to_string(offset));
    }
    if (report_ != nullptr) {
      report_->add_malformed(IngestReason::BinaryFrame, offset, "", detail);
    }
  }

  std::istream& in_;
  ParseMode mode_;
  IngestReport* report_;
  const char* what_;
  std::string pending_;
  std::uint64_t pending_base_ = 0;
  std::uint64_t block_offset_ = 0;
};

}  // namespace coral::testing
