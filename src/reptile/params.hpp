#pragma once
// Reptile parameters (Sec. 2.3, "Choosing Parameters") and their
// data-driven selection from the input reads' quality-score and tile
// multiplicity histograms — the paper's alternative to analytical
// calculations under unrealistic uniformity assumptions.

#include <cstdint>

#include "kspec/tile_table.hpp"
#include "seq/read.hpp"

namespace ngs::reptile {

struct ReptileParams {
  int k = 12;          // kmer length (~ceil(log4 |G|))
  int overlap = 0;     // l: tile = a1 ||_l a2, |t| = 2k - l
  int d = 1;           // max Hamming distance per constituent kmer

  int quality_cutoff = 0;   // Qc; 0 disables the quality filter
  int quality_max = 30;     // Qm: a correction must touch a base with q < Qm

  std::uint32_t c_good = 8;  // Cg: auto-validate tiles with Og >= Cg
  std::uint32_t c_min = 3;   // Cm: minimal trusted multiplicity
  double c_ratio = 2.0;      // Cr: required Og(t')/Og(t) for a correction

  /// Cap on the per-kmer option list when forming d-mutant tiles. In
  /// repeat-dense spectra a kmer's 2-neighborhood can hold dozens of
  /// members and the candidate-tile product explodes; keeping the
  /// highest-multiplicity neighbors preserves every plausible correction
  /// source (Algorithm 1 only ever corrects toward dominant tiles).
  std::size_t max_kmer_options = 16;

  // Ambiguous-base handling (Sec. 2.4): attempt to correct an 'N' only if
  // every window of length ambig_window containing it has at most
  // ambig_max N's. Zeros mean "default to k and d".
  int ambig_window = 0;
  int ambig_max = 0;
  char default_base = 'A';

  int tile_length() const noexcept { return 2 * k - overlap; }
  int effective_ambig_window() const noexcept {
    return ambig_window > 0 ? ambig_window : k;
  }
  int effective_ambig_max() const noexcept {
    return ambig_max > 0 ? ambig_max : d;
  }
};

/// Selects parameters from the data:
///  - k = ceil(log4(genome_length_estimate)), clamped to [10, 15];
///  - Qc at the ~17% quantile of the base-quality histogram;
///  - Cg so ~2% of distinct tiles exceed it;
///  - Cm so ~5% of distinct tiles exceed it;
///  - Cr = 2, d = 1 (paper defaults).
/// Building the tile histogram requires the tile table of the selected
/// k and Qc; when `tiles` is non-null the table is moved out to it, so a
/// ReptileCorrector built with the same parameters can adopt it instead
/// of counting the tiles again.
ReptileParams select_parameters(const seq::ReadSet& reads,
                                std::uint64_t genome_length_estimate,
                                kspec::TileTable* tiles = nullptr);

}  // namespace ngs::reptile
