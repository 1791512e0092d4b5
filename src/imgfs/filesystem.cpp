#include "imgfs/filesystem.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <set>

#include "common/byte_codec.hpp"
#include "common/interval.hpp"

namespace vmstorm::imgfs {

namespace {

constexpr std::uint64_t kSuperMagic = 0x494d474653303176ull;  // "IMGFS01v"
constexpr Bytes kInodeDiskBytes = 256;

}  // namespace

Status FileSystem::compute_layout() {
  const Bytes bs = opts_.block_size;
  total_blocks_ = dev_->size() / bs;
  if (total_blocks_ < 8) return invalid_argument("device too small for imgfs");
  const std::uint64_t ipb = bs / kInodeDiskBytes;
  if (ipb == 0) return invalid_argument("block size below inode size");
  inode_blocks_ = block_count(opts_.max_inodes, ipb);
  // Fixed-point iteration: bitmap covers data blocks, which depend on the
  // bitmap's own size.
  bitmap_blocks_ = 1;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t meta = 1 + bitmap_blocks_ + inode_blocks_;
    if (meta >= total_blocks_) return invalid_argument("device too small");
    const std::uint64_t data = total_blocks_ - meta;
    const std::uint64_t need = block_count(data, bs * 8);
    if (need == bitmap_blocks_) break;
    bitmap_blocks_ = need;
  }
  bitmap_start_ = 1;
  inode_start_ = bitmap_start_ + bitmap_blocks_;
  data_start_ = inode_start_ + inode_blocks_;
  if (data_start_ >= total_blocks_) return invalid_argument("device too small");
  return Status::ok();
}

Result<std::unique_ptr<FileSystem>> FileSystem::format(BlockDevice& dev,
                                                       FsOptions opts) {
  auto fs = std::unique_ptr<FileSystem>(new FileSystem(dev, opts));
  VMSTORM_RETURN_IF_ERROR(fs->compute_layout());
  fs->bitmap_.assign(fs->total_blocks_ - fs->data_start_, false);
  fs->free_blocks_ = fs->bitmap_.size();
  fs->inodes_.assign(opts.max_inodes, Inode{});
  VMSTORM_RETURN_IF_ERROR(fs->persist_superblock());
  for (std::uint64_t b = 0; b < fs->bitmap_blocks_; ++b) {
    VMSTORM_RETURN_IF_ERROR(fs->persist_bitmap_block(b));
  }
  for (InodeId i = 0; i < opts.max_inodes; ++i) {
    VMSTORM_RETURN_IF_ERROR(fs->persist_inode(i));
  }
  return fs;
}

Result<std::unique_ptr<FileSystem>> FileSystem::mount(BlockDevice& dev) {
  FsOptions probe;
  auto fs = std::unique_ptr<FileSystem>(new FileSystem(dev, probe));
  std::vector<std::byte> raw(72);  // nine u64 fields
  VMSTORM_RETURN_IF_ERROR(dev.pread(0, raw));
  ByteReader sb(raw);
  std::uint64_t magic = 0, max_inodes = 0;
  // All nine fields were read, so none of these reads can fail.
  (void)(sb.u64(&magic) && sb.u64(&fs->opts_.block_size) &&
         sb.u64(&max_inodes) && sb.u64(&fs->bitmap_start_) &&
         sb.u64(&fs->bitmap_blocks_) && sb.u64(&fs->inode_start_) &&
         sb.u64(&fs->inode_blocks_) && sb.u64(&fs->data_start_) &&
         sb.u64(&fs->total_blocks_));
  if (magic != kSuperMagic) return corruption("bad imgfs superblock magic");
  fs->opts_.max_inodes = static_cast<std::uint32_t>(max_inodes);
  if (fs->total_blocks_ * fs->opts_.block_size > dev.size()) {
    return corruption("superblock larger than device");
  }
  VMSTORM_RETURN_IF_ERROR(fs->load_all());
  return fs;
}

Status FileSystem::load_all() {
  const Bytes bs = opts_.block_size;
  // Bitmap.
  bitmap_.assign(total_blocks_ - data_start_, false);
  free_blocks_ = 0;
  std::vector<std::byte> raw(bitmap_blocks_ * bs);
  VMSTORM_RETURN_IF_ERROR(dev_->pread(bitmap_start_ * bs, raw));
  for (std::size_t i = 0; i < bitmap_.size(); ++i) {
    bitmap_[i] = (static_cast<unsigned char>(raw[i / 8]) >> (i % 8)) & 1;
    if (!bitmap_[i]) ++free_blocks_;
  }
  // Inodes.
  inodes_.assign(opts_.max_inodes, Inode{});
  std::vector<std::byte> ibuf(kInodeDiskBytes);
  for (InodeId i = 0; i < opts_.max_inodes; ++i) {
    VMSTORM_RETURN_IF_ERROR(
        dev_->pread(inode_start_ * bs + i * kInodeDiskBytes, ibuf));
    ByteReader in(ibuf);
    Inode& ino = inodes_[i];
    std::uint32_t used = 0, reserved = 0;
    std::string_view name;
    // kInodeDiskBytes bytes were read, so none of these reads can fail.
    (void)(in.u32(&used) && in.u32(&ino.extent_count) && in.u64(&ino.size) &&
           in.bytes(kMaxName + 1, &name) && in.u32(&reserved));
    for (Extent& e : ino.extents) (void)(in.u64(&e.start) && in.u64(&e.count));
    ino.used = used != 0;
    name.copy(ino.name, kMaxName);  // ino.name[kMaxName] stays '\0'
    if (ino.extent_count > kMaxExtents) return corruption("inode extent count");
  }
  return Status::ok();
}

Status FileSystem::persist_superblock() {
  ByteWriter w;
  for (const std::uint64_t v :
       {kSuperMagic, opts_.block_size, std::uint64_t{opts_.max_inodes},
        bitmap_start_, bitmap_blocks_, inode_start_, inode_blocks_,
        data_start_, total_blocks_}) {
    w.u64(v);
  }
  return dev_->pwrite(0, std::as_bytes(std::span(w.str())));
}

Status FileSystem::persist_bitmap_block(std::uint64_t bitmap_block) {
  const Bytes bs = opts_.block_size;
  std::vector<std::byte> raw(bs, std::byte{0});
  const std::size_t first_bit = bitmap_block * bs * 8;
  for (std::size_t i = 0; i < bs * 8; ++i) {
    const std::size_t bit = first_bit + i;
    if (bit >= bitmap_.size()) break;
    if (bitmap_[bit]) {
      raw[i / 8] |= std::byte{static_cast<unsigned char>(1u << (i % 8))};
    }
  }
  return dev_->pwrite((bitmap_start_ + bitmap_block) * bs, raw);
}

Status FileSystem::persist_bitmap_blocks(std::vector<std::uint64_t> blocks) {
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  for (std::uint64_t b : blocks) {
    VMSTORM_RETURN_IF_ERROR(persist_bitmap_block(b));
  }
  return Status::ok();
}

Status FileSystem::persist_inode(InodeId id) {
  const Inode& ino = inodes_[id];
  ByteWriter w;
  w.u32(ino.used ? 1 : 0);
  w.u32(ino.extent_count);
  w.u64(ino.size);
  w.bytes(std::as_bytes(std::span(ino.name)));
  w.u32(0);  // reserved: the extents start at byte 64
  for (const Extent& e : ino.extents) {
    w.u64(e.start);
    w.u64(e.count);
  }
  return dev_->pwrite(inode_start_ * opts_.block_size + id * kInodeDiskBytes,
                      std::as_bytes(std::span(w.str())));
}

Result<InodeId> FileSystem::create(const std::string& name) {
  if (name.empty() || name.size() > kMaxName) {
    return invalid_argument("file name must be 1.." +
                            std::to_string(kMaxName) + " chars");
  }
  if (lookup(name).is_ok()) return already_exists(name);
  for (InodeId i = 0; i < inodes_.size(); ++i) {
    if (!inodes_[i].used) {
      Inode& ino = inodes_[i];
      ino = Inode{};
      ino.used = true;
      std::memset(ino.name, 0, sizeof(ino.name));
      std::memcpy(ino.name, name.data(), name.size());
      VMSTORM_RETURN_IF_ERROR(persist_inode(i));
      return i;
    }
  }
  return resource_exhausted("out of inodes");
}

Result<InodeId> FileSystem::lookup(const std::string& name) const {
  for (InodeId i = 0; i < inodes_.size(); ++i) {
    if (inodes_[i].used && name == inodes_[i].name) return i;
  }
  return not_found(name);
}

Status FileSystem::remove(const std::string& name) {
  VMSTORM_ASSIGN_OR_RETURN(id, lookup(name));
  Inode& ino = inodes_[id];
  std::vector<std::uint64_t> dirty;
  for (std::uint32_t e = 0; e < ino.extent_count; ++e) {
    free_extent(ino.extents[e], &dirty);
  }
  ino = Inode{};
  VMSTORM_RETURN_IF_ERROR(persist_bitmap_blocks(std::move(dirty)));
  return persist_inode(id);
}

Result<FileStat> FileSystem::stat(InodeId inode) const {
  if (inode >= inodes_.size() || !inodes_[inode].used) {
    return not_found("inode " + std::to_string(inode));
  }
  const Inode& ino = inodes_[inode];
  return FileStat{inode, ino.name, ino.size, ino.extent_count};
}

std::vector<FileStat> FileSystem::list() const {
  std::vector<FileStat> out;
  for (InodeId i = 0; i < inodes_.size(); ++i) {
    if (inodes_[i].used) {
      out.push_back({i, inodes_[i].name, inodes_[i].size,
                     inodes_[i].extent_count});
    }
  }
  return out;
}

Result<FileSystem::Extent> FileSystem::allocate_run(std::uint64_t want) {
  if (free_blocks_ == 0) return resource_exhausted("no free blocks");
  // First fit: find the first free run, clipped to `want`.
  std::size_t i = 0;
  while (i < bitmap_.size()) {
    if (bitmap_[i]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < bitmap_.size() && !bitmap_[j] && j - i < want) ++j;
    Extent e{data_start_ + i, j - i};
    for (std::size_t b = i; b < j; ++b) bitmap_[b] = true;
    free_blocks_ -= (j - i);
    for (const BlockPiece& p : split_blocks({i, j}, opts_.block_size * 8)) {
      VMSTORM_RETURN_IF_ERROR(persist_bitmap_block(p.index));
    }
    return e;
  }
  return resource_exhausted("no free blocks");
}

void FileSystem::free_extent(const Extent& e,
                             std::vector<std::uint64_t>* dirty_bitmap_blocks) {
  const Bytes bits_per_block = opts_.block_size * 8;
  for (std::uint64_t b = e.start; b < e.start + e.count; ++b) {
    const std::size_t bit = b - data_start_;
    assert(bitmap_[bit]);
    bitmap_[bit] = false;
    ++free_blocks_;
    dirty_bitmap_blocks->push_back(bit / bits_per_block);
  }
}

Result<std::pair<Bytes, Bytes>> FileSystem::map_offset(const Inode& ino,
                                                       Bytes offset) const {
  Bytes cursor = 0;
  for (std::uint32_t e = 0; e < ino.extent_count; ++e) {
    const Bytes span = ino.extents[e].count * opts_.block_size;
    if (offset < cursor + span) {
      const Bytes within = offset - cursor;
      return std::make_pair(ino.extents[e].start * opts_.block_size + within,
                            span - within);
    }
    cursor += span;
  }
  return internal_error("offset beyond allocated extents");
}

Status FileSystem::grow_to(Inode& ino, InodeId id, Bytes new_size) {
  std::uint64_t have = 0;
  for (std::uint32_t e = 0; e < ino.extent_count; ++e) {
    have += ino.extents[e].count;
  }
  const std::uint64_t need = block_count(new_size, opts_.block_size);
  if (need <= have) {
    ino.size = new_size;
    return persist_inode(id);
  }
  const Inode before = ino;
  std::vector<Extent> runs;
  Status failed = Status::ok();
  for (std::uint64_t missing = need - have; missing > 0;) {
    auto run = allocate_run(missing);
    if (!run.is_ok()) {
      failed = run.status();
      break;
    }
    runs.push_back(*run);
    // Merge with the previous extent when contiguous.
    if (ino.extent_count > 0 &&
        ino.extents[ino.extent_count - 1].start +
                ino.extents[ino.extent_count - 1].count ==
            run->start) {
      ino.extents[ino.extent_count - 1].count += run->count;
    } else if (ino.extent_count == kMaxExtents) {
      failed = resource_exhausted("file exceeds max extents");
      break;
    } else {
      ino.extents[ino.extent_count++] = *run;
    }
    missing -= run->count;
  }
  if (!failed.is_ok()) {
    // Give every run back: the file keeps its old extents and size.
    ino = before;
    std::vector<std::uint64_t> dirty;
    for (const Extent& run : runs) free_extent(run, &dirty);
    VMSTORM_RETURN_IF_ERROR(persist_bitmap_blocks(std::move(dirty)));
    return failed;
  }
  ino.size = new_size;
  return persist_inode(id);
}

Status FileSystem::write(InodeId inode, Bytes offset,
                         std::span<const std::byte> in) {
  if (inode >= inodes_.size() || !inodes_[inode].used) {
    return not_found("inode");
  }
  Inode& ino = inodes_[inode];
  const Bytes old_size = ino.size;
  if (in.size() > ~Bytes{0} - offset) return out_of_range("write past 2^64");
  if (offset + in.size() > ino.size) {
    VMSTORM_RETURN_IF_ERROR(grow_to(ino, inode, offset + in.size()));
    // Zero-fill any gap between the old EOF and the write start.
    Bytes gap = offset > old_size ? offset - old_size : 0;
    Bytes at = old_size;
    std::vector<std::byte> zeros(std::min<Bytes>(gap, 64_KiB), std::byte{0});
    while (gap > 0) {
      VMSTORM_ASSIGN_OR_RETURN(m, map_offset(ino, at));
      const Bytes n = std::min<Bytes>({gap, m.second, zeros.size()});
      VMSTORM_RETURN_IF_ERROR(
          dev_->pwrite(m.first, std::span(zeros).first(n)));
      gap -= n;
      at += n;
    }
  }
  Bytes done = 0;
  while (done < in.size()) {
    VMSTORM_ASSIGN_OR_RETURN(m, map_offset(ino, offset + done));
    const Bytes n = std::min<Bytes>(in.size() - done, m.second);
    VMSTORM_RETURN_IF_ERROR(dev_->pwrite(m.first, in.subspan(done, n)));
    done += n;
  }
  return Status::ok();
}

Status FileSystem::read(InodeId inode, Bytes offset, std::span<std::byte> out) {
  if (inode >= inodes_.size() || !inodes_[inode].used) {
    return not_found("inode");
  }
  const Inode& ino = inodes_[inode];
  if (offset > ino.size || out.size() > ino.size - offset) {
    return out_of_range("read past EOF");
  }
  Bytes done = 0;
  while (done < out.size()) {
    VMSTORM_ASSIGN_OR_RETURN(m, map_offset(ino, offset + done));
    const Bytes n = std::min<Bytes>(out.size() - done, m.second);
    VMSTORM_RETURN_IF_ERROR(dev_->pread(m.first, out.subspan(done, n)));
    done += n;
  }
  return Status::ok();
}

Status FileSystem::truncate(InodeId inode, Bytes new_size) {
  if (inode >= inodes_.size() || !inodes_[inode].used) {
    return not_found("inode");
  }
  Inode& ino = inodes_[inode];
  if (new_size >= ino.size) {
    const Bytes old = ino.size;
    VMSTORM_RETURN_IF_ERROR(grow_to(ino, inode, new_size));
    // Zero the grown region.
    Bytes gap = new_size - old;
    Bytes at = old;
    std::vector<std::byte> zeros(std::min<Bytes>(gap, 64_KiB), std::byte{0});
    while (gap > 0) {
      VMSTORM_ASSIGN_OR_RETURN(m, map_offset(ino, at));
      const Bytes n = std::min<Bytes>({gap, m.second, zeros.size()});
      VMSTORM_RETURN_IF_ERROR(dev_->pwrite(m.first, std::span(zeros).first(n)));
      gap -= n;
      at += n;
    }
    return Status::ok();
  }
  // Shrink: free whole blocks past the new end.
  const std::uint64_t keep = block_count(new_size, opts_.block_size);
  std::uint64_t cursor = 0;
  std::vector<std::uint64_t> dirty;
  for (std::uint32_t e = 0; e < ino.extent_count; ++e) {
    Extent& ext = ino.extents[e];
    if (cursor + ext.count <= keep) {
      cursor += ext.count;
      continue;
    }
    const std::uint64_t keep_here = keep > cursor ? keep - cursor : 0;
    free_extent(Extent{ext.start + keep_here, ext.count - keep_here}, &dirty);
    for (std::uint32_t k = e + 1; k < ino.extent_count; ++k) {
      free_extent(ino.extents[k], &dirty);
    }
    if (keep_here == 0) {
      ino.extent_count = e;
    } else {
      ext.count = keep_here;
      ino.extent_count = e + 1;
    }
    break;
  }
  ino.size = new_size;
  VMSTORM_RETURN_IF_ERROR(persist_bitmap_blocks(std::move(dirty)));
  return persist_inode(inode);
}

FsStats FileSystem::stats() const {
  FsStats s;
  s.blocks_total = bitmap_.size();
  s.blocks_free = free_blocks_;
  s.inodes_total = static_cast<std::uint32_t>(inodes_.size());
  s.inodes_free = 0;
  for (const auto& ino : inodes_) {
    if (!ino.used) ++s.inodes_free;
  }
  return s;
}

}  // namespace vmstorm::imgfs
