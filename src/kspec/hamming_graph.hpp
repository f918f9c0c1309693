#pragma once
// The Hamming graph G_H over the k-spectrum (Sec. 2.3, phase 1b): vertex
// i is spectrum kmer i; an edge joins kmers within Hamming distance d.
// Stored as CSR adjacency over spectrum indices. Edges are recovered with
// the MaskedSortIndex replicas (one pass over the spectrum), which is the
// paper's space/time trade-off; the graph is then shared read-only by
// all correction threads. The per-vertex queries run in contiguous
// vertex blocks on a thread pool, and the blocks' CSR fragments are
// concatenated in spectrum order, so the graph is identical for every
// pool size.
//
// REDEEM builds the same graph for its misread neighborhoods N^dmax.

#include <cstdint>
#include <span>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "kspec/neighborhood.hpp"

namespace ngs::kspec {

class HammingGraph {
 public:
  /// Builds adjacency for all spectrum kmers within distance [1, d].
  /// `chunks` is the c of the masked-sort index (0 = auto: d + 3,
  /// clamped to k). The index build and the neighbor queries run on
  /// `pool`; nullptr = the shared default pool.
  HammingGraph(const KSpectrum& spectrum, int d, int chunks = 0,
               util::ThreadPool* pool = nullptr);

  int d() const noexcept { return d_; }
  std::size_t num_vertices() const noexcept { return offsets_.size() - 1; }
  std::uint64_t num_edges() const noexcept { return neighbors_.size() / 2; }

  /// Spectrum indices adjacent to vertex i (hd in [1, d]).
  std::span<const std::uint32_t> neighbors(std::size_t i) const noexcept {
    return {neighbors_.data() + offsets_[i],
            neighbors_.data() + offsets_[i + 1]};
  }

 private:
  int d_;
  std::vector<std::uint64_t> offsets_;    // size = |spectrum| + 1
  std::vector<std::uint32_t> neighbors_;  // concatenated adjacency
};

}  // namespace ngs::kspec
