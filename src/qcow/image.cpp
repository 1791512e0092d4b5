#include "qcow/image.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace vmstorm::qcow {

namespace {

constexpr Bytes kHeaderBytes = 64;

void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

Result<std::unique_ptr<Image>> Image::create(std::unique_ptr<ByteFile> file,
                                             Bytes virtual_size,
                                             Bytes cluster_size,
                                             ByteFile* backing) {
  if (virtual_size == 0 || cluster_size == 0 ||
      (cluster_size & (cluster_size - 1)) != 0) {
    return invalid_argument("virtual size must be > 0, cluster size a power of two");
  }
  if (backing != nullptr && backing->size() < virtual_size) {
    return invalid_argument("backing file smaller than virtual size");
  }
  auto img = std::unique_ptr<Image>(new Image());
  img->file_ = std::move(file);
  img->backing_ = backing;
  img->virtual_size_ = virtual_size;
  img->cluster_size_ = cluster_size;
  img->entries_per_l2_ = cluster_size / 8;
  const std::uint64_t l1_entries =
      block_count(img->cluster_count(), img->entries_per_l2_);
  img->l1_.assign(l1_entries, 0);
  img->l2_.resize(l1_entries);
  VMSTORM_RETURN_IF_ERROR(img->persist_header());
  // Zero-filled L1 table right after the header.
  std::vector<std::byte> zeros(l1_entries * 8, std::byte{0});
  VMSTORM_RETURN_IF_ERROR(img->file_->pwrite(kHeaderBytes, zeros));
  return img;
}

Result<std::unique_ptr<Image>> Image::open(std::unique_ptr<ByteFile> file,
                                           ByteFile* backing) {
  std::byte hdr[kHeaderBytes];
  VMSTORM_RETURN_IF_ERROR(file->pread(0, hdr));
  if (get_u32(hdr) != kQcowMagic) return corruption("bad qcow magic");
  if (get_u32(hdr + 4) != kQcowVersion) return corruption("bad qcow version");
  auto img = std::unique_ptr<Image>(new Image());
  img->file_ = std::move(file);
  img->backing_ = backing;
  img->virtual_size_ = get_u64(hdr + 8);
  const std::uint32_t cluster_bits = get_u32(hdr + 16);
  img->cluster_size_ = Bytes{1} << cluster_bits;
  img->entries_per_l2_ = img->cluster_size_ / 8;
  const std::uint32_t l1_entries = get_u32(hdr + 20);
  const std::uint64_t l1_offset = get_u64(hdr + 24);
  const std::uint64_t backing_size = get_u64(hdr + 32);
  if (backing_size == 0 && backing != nullptr) {
    return invalid_argument("image was created without a backing file");
  }
  if (backing_size != 0 &&
      (backing == nullptr || backing->size() < backing_size)) {
    return invalid_argument("missing or undersized backing file");
  }
  img->l1_.assign(l1_entries, 0);
  img->l2_.resize(l1_entries);
  std::vector<std::byte> raw(l1_entries * 8);
  VMSTORM_RETURN_IF_ERROR(img->file_->pread(l1_offset, raw));
  for (std::uint32_t i = 0; i < l1_entries; ++i) {
    img->l1_[i] = get_u64(raw.data() + i * 8);
  }
  VMSTORM_RETURN_IF_ERROR(img->load_tables());
  return img;
}

Status Image::load_tables() {
  std::vector<std::byte> raw(entries_per_l2_ * 8);
  for (std::size_t i = 0; i < l1_.size(); ++i) {
    if (l1_[i] == 0) continue;
    VMSTORM_RETURN_IF_ERROR(file_->pread(l1_[i], raw));
    l2_[i].resize(entries_per_l2_);
    for (std::uint64_t j = 0; j < entries_per_l2_; ++j) {
      l2_[i][j] = get_u64(raw.data() + j * 8);
    }
    for (std::uint64_t j = 0; j < entries_per_l2_; ++j) {
      if (l2_[i][j] != 0) ++stats_.allocated_clusters;
    }
  }
  return Status::ok();
}

Status Image::persist_header() {
  std::byte hdr[kHeaderBytes] = {};
  put_u32(hdr, kQcowMagic);
  put_u32(hdr + 4, kQcowVersion);
  put_u64(hdr + 8, virtual_size_);
  put_u32(hdr + 16, static_cast<std::uint32_t>(std::countr_zero(cluster_size_)));
  put_u32(hdr + 20, static_cast<std::uint32_t>(l1_.size()));
  put_u64(hdr + 24, kHeaderBytes);  // L1 sits right after the header
  put_u64(hdr + 32, backing_ != nullptr ? virtual_size_ : 0);
  return file_->pwrite(0, hdr);
}

Bytes Image::allocate_at_eof(Bytes bytes) {
  const Bytes at = file_->size();
  std::vector<std::byte> zeros(bytes, std::byte{0});
  Status st = file_->pwrite(at, zeros);
  assert(st.is_ok());
  (void)st;
  return at;
}

Result<Bytes> Image::cluster_host_offset(std::uint64_t index) const {
  const std::uint64_t l1i = index / entries_per_l2_;
  const std::uint64_t l2i = index % entries_per_l2_;
  if (l1i >= l1_.size()) return out_of_range("cluster index");
  if (l1_[l1i] == 0 || l2_[l1i].empty()) return Bytes{0};
  return l2_[l1i][l2i];
}

bool Image::cluster_allocated(std::uint64_t index) const {
  auto r = cluster_host_offset(index);
  return r.is_ok() && *r != 0;
}

Result<Bytes> Image::ensure_allocated(std::uint64_t index) {
  const std::uint64_t l1i = index / entries_per_l2_;
  const std::uint64_t l2i = index % entries_per_l2_;
  if (l1i >= l1_.size()) return out_of_range("cluster index");
  if (l1_[l1i] == 0) {
    const Bytes l2_at = allocate_at_eof(entries_per_l2_ * 8);
    l1_[l1i] = l2_at;
    l2_[l1i].assign(entries_per_l2_, 0);
    std::byte enc[8];
    put_u64(enc, l2_at);
    VMSTORM_RETURN_IF_ERROR(file_->pwrite(kHeaderBytes + l1i * 8, enc));
  }
  if (l2_[l1i][l2i] != 0) return l2_[l1i][l2i];

  // Copy-on-write: materialize the full cluster before first write.
  const Bytes host = allocate_at_eof(cluster_size_);
  const Bytes base = index * cluster_size_;
  const Bytes live = std::min(cluster_size_, virtual_size_ - base);
  if (backing_ != nullptr) {
    std::vector<std::byte> buf(live);
    VMSTORM_RETURN_IF_ERROR(backing_->pread(base, buf));
    VMSTORM_RETURN_IF_ERROR(file_->pwrite(host, buf));
    stats_.backing_bytes_read += live;
    ++stats_.backing_reads;
    ++stats_.cow_copies;
  }
  l2_[l1i][l2i] = host;
  ++stats_.allocated_clusters;
  std::byte enc[8];
  put_u64(enc, host);
  VMSTORM_RETURN_IF_ERROR(file_->pwrite(l1_[l1i] + l2i * 8, enc));
  return host;
}

Status Image::read(Bytes offset, std::span<std::byte> out) {
  if (offset > virtual_size_ || out.size() > virtual_size_ - offset) {
    return out_of_range("read past end");
  }
  for (const BlockPiece& p :
       split_blocks({offset, offset + out.size()}, cluster_size_)) {
    auto dst = out.subspan(p.range.lo - offset, p.range.size());
    VMSTORM_ASSIGN_OR_RETURN(host, cluster_host_offset(p.index));
    if (host != 0) {
      VMSTORM_RETURN_IF_ERROR(file_->pread(host + (p.range.lo - p.base), dst));
    } else if (backing_ != nullptr) {
      // Unallocated: pass straight through to the backing file, reading
      // only the requested subrange (qcow2 does no read prefetch).
      VMSTORM_RETURN_IF_ERROR(backing_->pread(p.range.lo, dst));
      stats_.backing_bytes_read += dst.size();
      ++stats_.backing_reads;
    } else {
      std::memset(dst.data(), 0, dst.size());
    }
  }
  return Status::ok();
}

Status Image::write(Bytes offset, std::span<const std::byte> in) {
  if (offset > virtual_size_ || in.size() > virtual_size_ - offset) {
    return out_of_range("write past end");
  }
  for (const BlockPiece& p :
       split_blocks({offset, offset + in.size()}, cluster_size_)) {
    VMSTORM_ASSIGN_OR_RETURN(host, ensure_allocated(p.index));
    VMSTORM_RETURN_IF_ERROR(
        file_->pwrite(host + (p.range.lo - p.base),
                      in.subspan(p.range.lo - offset, p.range.size())));
  }
  return Status::ok();
}

}  // namespace vmstorm::qcow
