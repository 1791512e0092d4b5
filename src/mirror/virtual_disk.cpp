#include "mirror/virtual_disk.hpp"

#include <algorithm>
#include <cstring>

namespace vmstorm::mirror {

namespace {
/// Upper bound on the staging buffer, for images with very large chunks.
constexpr Bytes kMaxStaging = 1_MiB;
}  // namespace

Result<std::unique_ptr<VirtualDisk>> VirtualDisk::open(
    blob::BlobStore& store, blob::BlobId blob, blob::Version version,
    VirtualDiskOptions opts) {
  VMSTORM_ASSIGN_OR_RETURN(info, store.info(blob));
  if (version > info.latest) return out_of_range("no such version");
  MirrorConfig cfg;
  cfg.image_size = info.size;
  cfg.chunk_size = info.chunk_size;
  cfg.prefetch_whole_chunks = opts.prefetch_whole_chunks;
  cfg.single_region_per_chunk = opts.single_region_per_chunk;

  LocalState state(cfg);
  // A restored sidecar describes the bytes of the mirror file beside it,
  // so that file must still be there, whole.
  auto existing = LocalMirrorFile::Existing::kCreate;
  if (sidecar_exists(opts.local_path)) {
    VMSTORM_ASSIGN_OR_RETURN(raw, load_sidecar(opts.local_path));
    VMSTORM_ASSIGN_OR_RETURN(restored, LocalState::deserialize(raw));
    if (restored.config().image_size != cfg.image_size ||
        restored.config().chunk_size != cfg.chunk_size) {
      return failed_precondition("sidecar metadata does not match the image");
    }
    state = std::move(restored);
    existing = LocalMirrorFile::Existing::kRequire;
  }
  VMSTORM_ASSIGN_OR_RETURN(
      file, LocalMirrorFile::open(opts.local_path, info.size, existing));
  return std::unique_ptr<VirtualDisk>(new VirtualDisk(
      store, blob, version, std::move(opts), std::move(state), std::move(file)));
}

VirtualDisk::VirtualDisk(blob::BlobStore& store, blob::BlobId blob,
                         blob::Version version, VirtualDiskOptions opts,
                         LocalState state,
                         std::unique_ptr<LocalMirrorFile> file)
    : store_(&store), opts_(std::move(opts)), state_(std::move(state)),
      file_(std::move(file)),
      staging_(std::min<Bytes>(state_.config().chunk_size, kMaxStaging)),
      target_blob_(blob), target_version_(version) {}

Status VirtualDisk::fetch(ByteRange r) {
  for (const BlockPiece& p : split_blocks(r, staging_.size())) {
    const auto buf = std::span(staging_).first(p.range.size());
    VMSTORM_RETURN_IF_ERROR(
        store_->read(target_blob_, target_version_, p.range.lo, buf));
    VMSTORM_RETURN_IF_ERROR(file_->fill(p.range.lo, buf));
  }
  state_.apply_fetch(r);
  stats_.remote_bytes_fetched += r.size();
  ++stats_.remote_fetches;
  return Status::ok();
}

Status VirtualDisk::pread(Bytes offset, std::span<std::byte> out) {
  if (offset > size() || out.size() > size() - offset) {
    return out_of_range("read past end");
  }
  if (out.empty()) return Status::ok();
  const ByteRange req{offset, offset + out.size()};
  for (const ByteRange& r : state_.plan_read(req)) {
    VMSTORM_RETURN_IF_ERROR(fetch(r));
  }
  // All requested bytes now live in the mirror: serve as a memory copy.
  std::memcpy(out.data(), file_->data().data() + offset, out.size());
  stats_.bytes_read += out.size();
  return Status::ok();
}

Status VirtualDisk::pwrite(Bytes offset, std::span<const std::byte> in) {
  if (offset > size() || in.size() > size() - offset) {
    return out_of_range("write past end");
  }
  if (in.empty()) return Status::ok();
  const ByteRange req{offset, offset + in.size()};
  // Strategy 2: fill any gap this write would create inside a chunk.
  for (const ByteRange& r : state_.plan_write(req)) {
    VMSTORM_RETURN_IF_ERROR(fetch(r));
  }
  std::memcpy(file_->data().data() + offset, in.data(), in.size());
  state_.apply_write(req);
  stats_.bytes_written += in.size();
  return Status::ok();
}

Result<blob::BlobId> VirtualDisk::clone() {
  VMSTORM_ASSIGN_OR_RETURN(id, store_->clone(target_blob_, target_version_));
  target_blob_ = id;
  target_version_ = 0;  // the clone's initial snapshot mirrors the source
  return id;
}

Result<blob::Version> VirtualDisk::commit() {
  auto dirty = state_.dirty_chunks();
  if (dirty.empty()) return target_version_;
  // Complete every dirty chunk: a published chunk is a whole chunk.
  for (const ByteRange& r : state_.plan_commit()) {
    VMSTORM_RETURN_IF_ERROR(fetch(r));
  }
  std::vector<blob::ChunkWrite> writes;
  writes.reserve(dirty.size());
  for (std::uint64_t ci : dirty) {
    const ByteRange cr = state_.chunk_range(ci);
    auto src = file_->data().subspan(cr.lo, cr.size());
    writes.push_back(blob::ChunkWrite{
        ci, blob::ChunkPayload::own({src.begin(), src.end()})});
  }
  VMSTORM_ASSIGN_OR_RETURN(
      v, store_->commit_chunks(target_blob_, target_version_, std::move(writes)));
  state_.clear_dirty();
  target_version_ = v;
  ++stats_.commits;
  return v;
}

Status VirtualDisk::close() {
  VMSTORM_RETURN_IF_ERROR(file_->sync());
  return save_sidecar(opts_.local_path, state_.serialize());
}

}  // namespace vmstorm::mirror
