#pragma once
// Tile occurrence table (Sec. 2.2-2.3): a tile is the l-concatenation of
// two adjacent kmers of a read, t = a1 ||_l a2, |t| = 2k - l <= 32. For
// every distinct tile the table records
//   Oc — its total multiplicity in R (both strands), and
//   Og — the multiplicity counting only instances in which every base has
//        quality score >= Qc (Og = Oc when quality is unavailable).
// Algorithm 1 (tile correction) bases all decisions on Og.

#include <cstdint>
#include <span>
#include <vector>

#include "seq/kmer.hpp"
#include "seq/read.hpp"
#include "util/stats.hpp"

namespace ngs::util {
class ThreadPool;
}

namespace ngs::kspec {

struct TileParams {
  int k = 12;
  int overlap = 0;          // l; tile length = 2k - l
  int quality_cutoff = 0;   // Qc; 0 disables the quality filter
  bool both_strands = true;

  int tile_length() const noexcept { return 2 * k - overlap; }

  bool operator==(const TileParams&) const = default;
};

class TileTable {
 public:
  TileTable() = default;

  /// Counts every tile instance of `reads` (and of their reverse
  /// complements when params.both_strands). Instances are extracted in
  /// read blocks on `pool` and counted with radix_sort_and_count, so the
  /// table is identical for every pool size. A read whose quality string
  /// is not exactly as long as its bases counts as having no qualities
  /// (all of its instances are high quality). nullptr pool = the shared
  /// default pool.
  static TileTable build(const seq::ReadSet& reads, const TileParams& params,
                         util::ThreadPool* pool = nullptr);

  struct Counts {
    std::uint32_t oc = 0;
    std::uint32_t og = 0;
  };

  const TileParams& params() const noexcept { return params_; }
  int tile_length() const noexcept { return params_.tile_length(); }
  std::size_t size() const noexcept { return codes_.size(); }

  /// Occurrence counts of a packed tile code (zeros if absent).
  Counts counts(seq::KmerCode tile) const noexcept;

  std::uint32_t og(seq::KmerCode tile) const noexcept {
    return counts(tile).og;
  }

  /// Batched Og lookup: out[i] = og(tiles[i]) (0 if absent), bit-identical
  /// to the single-probe path. The candidate cross-product of Algorithm 1
  /// probes dozens of tiles per decision; batching advances groups of
  /// binary-search descents in lockstep with software prefetch,
  /// overlapping their cache misses. Precondition:
  /// tiles.size() == out.size().
  void og_batch(std::span<const seq::KmerCode> tiles,
                std::span<std::uint32_t> out) const;

  /// Og's of Algorithm 1's full candidate cross-product in one call:
  /// out[i * a2.size() + j] = og of the tile whose leading kmer is a1[i]
  /// and whose trailing kmer contributes a2[j]'s low 2(k-l) bits — i.e.
  /// og(concat_kmers(a1[i], k, a2[j], k, l)). Exploits that all tiles
  /// sharing a leading kmer are contiguous in the sorted table: one
  /// interleaved range find per a1 entry plus a merge of that (short)
  /// run against the sorted a2 contributions replaces a full binary
  /// search per pair. Values are bit-identical to per-pair counts().
  /// Precondition: out.size() == a1.size() * a2.size().
  void og_cross(std::span<const seq::KmerCode> a1,
                std::span<const seq::KmerCode> a2,
                std::span<std::uint32_t> out) const;

  /// Histogram of high-quality multiplicities Og over distinct tiles —
  /// the input to Reptile's data-driven choice of Cg and Cm.
  util::Histogram og_histogram() const;

  seq::KmerCode code_at(std::size_t i) const noexcept { return codes_[i]; }
  Counts counts_at(std::size_t i) const noexcept {
    return {oc_[i], og_[i]};
  }

 private:
  void rebuild_prefix_index();

  TileParams params_;
  std::vector<seq::KmerCode> codes_;  // sorted distinct tile codes
  std::vector<std::uint32_t> oc_;
  std::vector<std::uint32_t> og_;
  // Prefix-bucket index over the top prefix_bits_ of each tile code:
  // codes with prefix p live in [bucket_starts_[p], bucket_starts_[p+1]).
  // Narrows every lookup from the full array to a ~32-entry bucket.
  std::vector<std::uint64_t> bucket_starts_;
  int prefix_bits_ = 0;
};

}  // namespace ngs::kspec
