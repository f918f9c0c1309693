#pragma once
// Lazy query facade over a version-2 sharded spectrum index: the
// kspec::SpectrumShardSource behind KSpectrum::from_shards. Each shard's
// codes/counts sections are mapped (or, when mmap is declined/
// unavailable/fails, read into owned buffers — byte-identical results
// either way) on the first query that touches the shard's prefix range,
// under a per-shard mutex with a lock-free fast path for already-
// materialized shards. A correction pass that only ever queries a
// fraction of the key space therefore only ever pages in that fraction
// of the index.
//
// Materialization also builds the shard's prefix-bucket table in one
// linear pass over its codes, sized from the shard's own entry count
// and indexing only the key bits below the shard prefix (every code of
// a shard shares its top shard_bits), so a shard probe narrows to ~32
// codes just like a flat spectrum's. Bucket-starts sections stored by
// earlier writers are not read.
//
// The view keeps the index file open for its whole lifetime and owns
// every materialized shard; KSpectrum::from_shards holds it via
// shared_ptr, so spectra handed to correctors keep the file alive.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kspec/kspectrum.hpp"

namespace ngs::index {

/// Where one shard's payload lives in the file (offsets are
/// kSectionAlignment-aligned by construction).
struct ShardRegion {
  std::uint32_t prefix = 0;
  std::uint64_t distinct = 0;
  std::uint64_t total_instances = 0;
  std::uint64_t codes_offset = 0;
  std::uint64_t counts_offset = 0;
};

class ShardedSpectrumView : public kspec::SpectrumShardSource {
 public:
  /// `shards` ascending by prefix, each prefix < 2^shard_bits. The file
  /// is opened here (and stays open); shard payloads are not touched
  /// until queried.
  ShardedSpectrumView(std::string path, int k, int shard_bits,
                      std::vector<ShardRegion> shards, bool use_mmap);
  ~ShardedSpectrumView() override;

  /// Thread-safe lazy materialization; nullptr for an empty prefix bin.
  /// Throws IndexError(kIo) if the shard cannot be read.
  const kspec::KSpectrum* shard(std::uint32_t prefix) const override;

  /// Shards materialized so far (telemetry / laziness tests).
  std::size_t shards_materialized() const noexcept {
    return materialized_.load(std::memory_order_relaxed);
  }

  /// Cumulative distinct-entry offsets over all 2^shard_bits prefixes
  /// (the shard_starts table KSpectrum::from_shards wants).
  std::vector<std::uint64_t> shard_starts() const;

  int shard_bits() const noexcept { return shard_bits_; }
  int k() const noexcept { return k_; }

 private:
  struct Slot;
  void materialize(Slot& slot, const ShardRegion& region) const;

  std::string path_;
  int k_ = 0;
  int shard_bits_ = 0;
  bool use_mmap_ = true;
  int fd_ = -1;  // POSIX; -1 elsewhere (owned reads reopen the path)
  std::vector<ShardRegion> shards_;
  /// Indexed by prefix: the shard's row in shards_, or -1 (empty bin).
  std::vector<std::int32_t> region_of_prefix_;
  mutable std::vector<std::unique_ptr<Slot>> slots_;  // indexed by prefix
  mutable std::atomic<std::size_t> materialized_{0};
};

}  // namespace ngs::index
