#pragma once
// SAP baseline — the Spectrum Alignment Problem corrector of
// Pevzner/Tang and Chaisson et al. (Secs. 1.2, 2.2): a kmer is *solid*
// if it occurs more than M times in the reads, *weak* otherwise; a read
// is converted, with a bounded number of substitutions, so that all of
// its kmers are solid.
//
// This implements the Hamming-distance adaptation of Chaisson et al.
// 2009 that Chapter 1 describes: "in each read, if a base change can
// increase the solid kmers to a prescribed amount, then it is applied",
// greedily, with reads classified fixable/unfixable. It is the
// k-spectrum ancestor Reptile is measured against.
//
// The scan keeps one code and one solidity bit per window of the read.
// A candidate base change is scored from the window codes with that
// base swapped in (only the <= k windows covering the position can
// change), and an applied change refreshes only those windows, so each
// spectrum lookup a round makes is one probe for one candidate window.

#include <cstdint>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "seq/read.hpp"

namespace ngs::baselines {

struct SapParams {
  int k = 12;
  /// Solidity threshold M: kmers with count >= M are solid.
  std::uint32_t solid_threshold = 3;
  /// Max substitutions applied per read before giving up (unfixable).
  int max_edits = 3;
  /// Build the spectrum from both strands.
  bool both_strands = true;
};

struct SapStats {
  std::uint64_t reads_clean = 0;      // already all-solid
  std::uint64_t reads_fixed = 0;      // converted to all-solid
  std::uint64_t reads_unfixable = 0;  // left as-is after max_edits
  std::uint64_t bases_changed = 0;
};

class SapCorrector {
 public:
  SapCorrector(const seq::ReadSet& reads, SapParams params);

  /// Builds from a pre-aggregated k-spectrum (e.g. streamed through
  /// kspec::ChunkedSpectrumBuilder, so the reads never have to be held
  /// in memory). `spectrum.k()` must equal `params.k`.
  SapCorrector(kspec::KSpectrum spectrum, SapParams params);

  const SapParams& params() const noexcept { return params_; }
  const kspec::KSpectrum& spectrum() const noexcept { return spectrum_; }

  /// Per-read window arrays, reused across reads (one per worker; never
  /// shared between concurrent callers).
  struct Scratch {
    /// Window code; an ambiguous base reads as A (its bits are set, not
    /// or'ed, when a base is swapped in).
    std::vector<seq::KmerCode> codes;
    std::vector<std::uint8_t> ambiguous;  // ambiguous bases in the window
    std::vector<std::uint8_t> weak;       // 1 = weak (or ambiguous)
    std::vector<int> weak_prefix;         // prefix sums of `weak`
  };

  /// Number of weak kmers in a read (0 = clean). Windows with an
  /// ambiguous base count as weak.
  int weak_kmers(std::string_view bases) const;

  /// Greedy correction of one read: per round, the single substitution
  /// that turns the most weak windows solid, scanning positions
  /// ascending and bases A, C, G, T, a strictly greater gain winning.
  seq::Read correct(const seq::Read& read, SapStats& stats,
                    Scratch& scratch) const;
  std::vector<seq::Read> correct_all(const seq::ReadSet& reads,
                                     SapStats& stats) const;

 private:
  bool is_weak(seq::KmerCode code) const {
    return spectrum_.count(code) < params_.solid_threshold;
  }
  /// Fills the window arrays for `bases`; returns the weak-window count.
  int scan_windows(std::string_view bases, Scratch& scratch) const;

  SapParams params_;
  kspec::KSpectrum spectrum_;
};

}  // namespace ngs::baselines
