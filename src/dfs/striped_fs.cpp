#include "dfs/striped_fs.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace vmstorm::dfs {

StripedFs::StripedFs(std::size_t server_count, Bytes default_stripe_size)
    : server_count_(server_count == 0 ? 1 : server_count),
      default_stripe_size_(default_stripe_size) {
  assert(default_stripe_size_ > 0);
}

Result<FileId> StripedFs::create(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (by_name_.count(name) > 0) return already_exists(name);
  FileRecord rec;
  rec.info.name = name;
  rec.info.stripe_size = default_stripe_size_;
  const FileId id = next_file_++;
  files_.emplace(id, std::move(rec));
  by_name_[name] = id;
  return id;
}

Result<FileId> StripedFs::open(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return not_found(name);
  return it->second;
}

Status StripedFs::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return not_found(name);
  files_.erase(it->second);
  by_name_.erase(it);
  return Status::ok();
}

Result<FileInfo> StripedFs::stat(FileId file) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) return not_found("file " + std::to_string(file));
  return it->second.info;
}

std::size_t StripedFs::file_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.size();
}

Status StripedFs::write(FileId file, Bytes offset,
                        std::span<const std::byte> data) {
  if (data.empty()) return Status::ok();
  if (data.size() > ~Bytes{0} - offset) return out_of_range("write past 2^64");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) return not_found("file " + std::to_string(file));
  FileRecord& rec = it->second;
  const Bytes end = offset + data.size();
  for (const BlockPiece& p : split_blocks({offset, end}, rec.info.stripe_size)) {
    auto [sit, inserted] =
        rec.stripes.try_emplace(p.index, blob::ChunkPayload::zeros(0));
    sit->second.write(p.range.lo - p.base,
                      data.subspan(p.range.lo - offset, p.range.size()));
  }
  rec.info.size = std::max(rec.info.size, end);
  return Status::ok();
}

Status StripedFs::write_pattern(FileId file, Bytes offset, Bytes length,
                                std::uint64_t seed) {
  if (length == 0) return Status::ok();
  if (length > ~Bytes{0} - offset) return out_of_range("write past 2^64");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) return not_found("file " + std::to_string(file));
  FileRecord& rec = it->second;
  const Bytes stripe = rec.info.stripe_size;
  const Bytes end = offset + length;
  for (const BlockPiece& p : split_blocks({offset, end}, stripe)) {
    if (p.range.size() == stripe) {
      rec.stripes.insert_or_assign(
          p.index, blob::ChunkPayload::pattern(seed, stripe, p.base));
    } else {
      auto [sit, ins] =
          rec.stripes.try_emplace(p.index, blob::ChunkPayload::zeros(0));
      std::vector<std::byte> buf(p.range.size());
      blob::fill_pattern(seed, p.range.lo, buf);
      sit->second.write(p.range.lo - p.base, buf);
    }
  }
  rec.info.size = std::max(rec.info.size, end);
  return Status::ok();
}

Status StripedFs::read(FileId file, Bytes offset,
                       std::span<std::byte> out) const {
  if (out.empty()) return Status::ok();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) return not_found("file " + std::to_string(file));
  const FileRecord& rec = it->second;
  if (offset > rec.info.size || out.size() > rec.info.size - offset) {
    return out_of_range("read past EOF");
  }
  for (const BlockPiece& p :
       split_blocks({offset, offset + out.size()}, rec.info.stripe_size)) {
    auto sit = rec.stripes.find(p.index);
    auto dst = out.subspan(p.range.lo - offset, p.range.size());
    if (sit == rec.stripes.end()) {
      std::memset(dst.data(), 0, dst.size());  // hole
    } else {
      sit->second.read(p.range.lo - p.base, dst);
    }
  }
  return Status::ok();
}

Result<std::vector<StripePiece>> StripedFs::layout(FileId file, Bytes offset,
                                                   Bytes length) const {
  if (length > ~Bytes{0} - offset) return out_of_range("range past 2^64");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) return not_found("file " + std::to_string(file));
  std::vector<StripePiece> out;
  for (const BlockPiece& p :
       split_blocks({offset, offset + length}, it->second.info.stripe_size)) {
    out.push_back(StripePiece{p.index, server_of(p.index), p.range.lo,
                              p.range.lo - p.base, p.range.size()});
  }
  return out;
}

Bytes StripedFs::stored_bytes_on(ServerId s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Bytes n = 0;
  for (const auto& [id, rec] : files_) {
    for (const auto& [si, payload] : rec.stripes) {
      if (server_of(si) == s) n += payload.size();
    }
  }
  return n;
}

Bytes StripedFs::stored_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Bytes n = 0;
  for (const auto& [id, rec] : files_) {
    for (const auto& [si, payload] : rec.stripes) n += payload.size();
  }
  return n;
}

}  // namespace vmstorm::dfs
