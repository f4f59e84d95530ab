#include "lustre/fid.h"

#include <cstdio>

#include "common/strings.h"

namespace sdci::lustre {

std::string Fid::ToString() const {
  // One formatted write: "[0x<seq>:0x<oid>:0x<ver>]", the form Parse reads.
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "[0x%llx:0x%llx:0x%llx]",
                              static_cast<unsigned long long>(seq),
                              static_cast<unsigned long long>(oid),
                              static_cast<unsigned long long>(ver));
  return {buf, static_cast<size_t>(n)};
}

Result<Fid> Fid::Parse(std::string_view text) {
  std::string_view s = strings::Trim(text);
  // Accept "t=[...]" / "p=[...]" prefixes from changelog dumps.
  if (s.size() >= 2 && (s[0] == 't' || s[0] == 'p') && s[1] == '=') {
    s.remove_prefix(2);
  }
  if (s.size() < 2 || s.front() != '[' || s.back() != ']') {
    return InvalidArgumentError("FID must be bracketed: " + std::string(text));
  }
  s = s.substr(1, s.size() - 2);
  const auto parts = strings::Split(s, ':');
  if (parts.size() != 3) {
    return InvalidArgumentError("FID needs seq:oid:ver: " + std::string(text));
  }
  const auto seq = strings::ParseUint64(strings::Trim(parts[0]));
  const auto oid = strings::ParseUint64(strings::Trim(parts[1]));
  const auto ver = strings::ParseUint64(strings::Trim(parts[2]));
  if (!seq || !oid || !ver || *oid > 0xFFFFFFFFull || *ver > 0xFFFFFFFFull) {
    return InvalidArgumentError("FID fields must be u64:u32:u32: " + std::string(text));
  }
  return Fid{*seq, static_cast<uint32_t>(*oid), static_cast<uint32_t>(*ver)};
}

int MdtIndexOfFid(const Fid& fid) noexcept {
  if (fid.IsRoot()) return 0;
  if (fid.seq < kFidSeqBase) return -1;
  return static_cast<int>((fid.seq - kFidSeqBase) / kFidSeqStride);
}

FidAllocator::FidAllocator(int mdt_index) noexcept
    : seq_(kFidSeqBase + static_cast<uint64_t>(mdt_index) * kFidSeqStride) {}

Fid FidAllocator::Next() noexcept {
  ++count_;
  const Fid fid{seq_, next_oid_, 0};
  if (next_oid_ == 0xFFFFFFFFu) {
    // Sequence exhausted: advance within the MDT's stride window.
    ++seq_;
    next_oid_ = 2;
  } else {
    ++next_oid_;
  }
  return fid;
}

}  // namespace sdci::lustre
