#include "blob/chunk.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace vmstorm::blob {

namespace {

/// Reverses the byte order of a word (std::byteswap is C++23).
constexpr std::uint64_t byteswap64(std::uint64_t x) {
  std::uint64_t r = 0;
  for (int k = 0; k < 8; ++k) r = (r << 8) | ((x >> (k * 8)) & 0xff);
  return r;
}
static_assert(byteswap64(0x0102030405060708ull) == 0x0807060504030201ull);

}  // namespace

void fill_pattern(std::uint64_t seed, std::uint64_t offset,
                  std::span<std::byte> out) {
  const std::size_t n = out.size();
  // Ragged head, up to the next 8-byte boundary of the absolute offset.
  std::size_t i = std::min<std::size_t>(n, (8 - (offset & 7)) & 7);
  for (std::size_t j = 0; j < i; ++j) out[j] = pattern_byte(seed, offset + j);
  // Whole words: pattern_byte takes byte k of a word from bits [8k, 8k+8)
  // of its mix64, which is the word's memory order on a little-endian host.
  for (; n - i >= 8; i += 8) {
    std::uint64_t word = mix64(seed ^ ((offset + i) >> 3));
    if constexpr (std::endian::native == std::endian::big) {
      word = byteswap64(word);
    }
    std::memcpy(out.data() + i, &word, sizeof(word));
  }
  for (; i < n; ++i) out[i] = pattern_byte(seed, offset + i);
}

void ChunkPayload::read(Bytes offset, std::span<std::byte> out) const {
  if (out.empty()) return;  // memset/memcpy forbid null even for n == 0
  const Bytes avail = offset < size_ ? size_ - offset : 0;
  const Bytes n = std::min<Bytes>(avail, out.size());
  switch (kind_) {
    case Kind::kZeros:
      if (n > 0) std::memset(out.data(), 0, n);
      break;
    case Kind::kPattern:
      fill_pattern(seed_, bias_ + offset, out.first(n));
      break;
    case Kind::kBytes:
      if (n > 0) std::memcpy(out.data(), bytes_.data() + offset, n);
      break;
  }
  if (n < out.size()) std::memset(out.data() + n, 0, out.size() - n);
}

void ChunkPayload::write(Bytes offset, std::span<const std::byte> in) {
  if (in.empty()) return;
  materialize();
  const Bytes end = offset + in.size();
  if (end > size_) {
    size_ = end;
    bytes_.resize(end);
  }
  std::memcpy(bytes_.data() + offset, in.data(), in.size());
}

void ChunkPayload::materialize() {
  if (kind_ == Kind::kBytes) return;
  std::vector<std::byte> data(size_);
  read(0, data);
  bytes_ = std::move(data);
  kind_ = Kind::kBytes;
}

std::uint64_t ChunkPayload::content_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::byte* p, Bytes n) {
    for (Bytes i = 0; i < n; ++i) {
      h ^= static_cast<std::uint64_t>(p[i]);
      h *= 0x100000001b3ull;
    }
  };
  if (kind_ == Kind::kBytes) {
    mix(bytes_.data(), bytes_.size());
  } else {
    std::byte buf[4096];
    for (Bytes off = 0; off < size_; off += sizeof(buf)) {
      const Bytes n = std::min<Bytes>(sizeof(buf), size_ - off);
      read(off, std::span(buf, n));
      mix(buf, n);
    }
  }
  return h;
}

void ChunkStore::put(ChunkKey key, ChunkPayload payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = chunks_.try_emplace(key);
  if (!inserted) stored_bytes_ -= it->second.size();
  stored_bytes_ += payload.size();
  it->second = std::move(payload);
}

Status ChunkStore::read(ChunkKey key, Bytes offset,
                        std::span<std::byte> out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    return not_found("chunk key " + std::to_string(key));
  }
  it->second.read(offset, out);
  return Status::ok();
}

bool ChunkStore::contains(ChunkKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_.count(key) > 0;
}

Status ChunkStore::erase(ChunkKey key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    return not_found("chunk key " + std::to_string(key));
  }
  stored_bytes_ -= it->second.size();
  chunks_.erase(it);
  return Status::ok();
}

Result<ChunkPayload> ChunkStore::get(ChunkKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    return not_found("chunk key " + std::to_string(key));
  }
  return it->second;
}

std::vector<ChunkKey> ChunkStore::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ChunkKey> out;
  out.reserve(chunks_.size());
  // vmlint:allow(determinism) hash order neutralized by the sort below
  for (const auto& [k, p] : chunks_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ChunkStore::chunk_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_.size();
}

Bytes ChunkStore::stored_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stored_bytes_;
}

Bytes ChunkStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Bytes n = 0;
  // vmlint:allow(determinism) commutative integer sum; order cannot leak
  for (const auto& [k, p] : chunks_) n += p.resident_bytes();
  return n;
}

}  // namespace vmstorm::blob
