#pragma once
// Reptile (Sec. 2.3): short-read error correction via representative
// tilings. Phase 1 (construction) builds the k-spectrum, the Hamming
// graph over it, and the tile table with quality-filtered counts;
// phase 2 corrects each read independently by placing tiles, comparing
// them against their d-mutant tiles (Algorithm 1), and choosing
// alternative tile placements on inconclusive decisions (Algorithm 2,
// rules [D1]-[D3]), sweeping 5'->3' and then 3'->5' (via the reverse
// complement, which the double-stranded tables support natively).
//
// Pass-2 performance: at coverage c every erroneous tile recurs in ~c
// reads, so the expensive part of Algorithm 1 — the d-mutant candidate
// enumeration and tile resolution, which depends only on the tile code
// and the (d1, d2) budgets, never on the read — is memoized in a
// util::ShardedCache shared by all correction workers. Only the final
// per-instance quality gate (line 14) consults the read's quality
// scores, and it is applied after the memo lookup, so cached and
// uncached correction are byte-identical for any thread count.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kspec/hamming_graph.hpp"
#include "kspec/kspectrum.hpp"
#include "kspec/tile_table.hpp"
#include "reptile/params.hpp"
#include "seq/packed.hpp"
#include "seq/read.hpp"
#include "util/sharded_cache.hpp"

namespace ngs::reptile {

enum class TileDecision { kValid, kCorrected, kInsufficient };

struct CorrectionStats {
  std::uint64_t reads = 0;
  std::uint64_t tiles_valid = 0;
  std::uint64_t tiles_corrected = 0;
  std::uint64_t tiles_insufficient = 0;
  std::uint64_t bases_changed = 0;
  std::uint64_t ambiguous_converted = 0;

  void merge(const CorrectionStats& o) {
    reads += o.reads;
    tiles_valid += o.tiles_valid;
    tiles_corrected += o.tiles_corrected;
    tiles_insufficient += o.tiles_insufficient;
    bases_changed += o.bases_changed;
    ambiguous_converted += o.ambiguous_converted;
  }
};

/// Default byte budget for a shared tile-decision memo when the caller
/// does not size one explicitly (correct_all, the corrector registry).
inline constexpr std::size_t kDefaultTileCacheBytes = 32u << 20;

/// Concurrent memo of quality-independent tile decisions, shared across
/// every correction worker (lock-striped, bounded capacity; see
/// util::ShardedCache). The memoized value is a pure function of the
/// key, so eviction or a racing store only ever costs a recomputation.
using TileDecisionCache = util::ShardedCache;

/// A d-mutant tile candidate surfaced by Algorithm 1.
struct TileCandidate {
  seq::KmerCode code = 0;
  std::uint32_t og = 0;
  int hd = 0;
};

/// A kmer option with its spectrum multiplicity pre-gathered, so the
/// abundance-ranked truncation in kmer_options sorts on a cached value
/// instead of re-searching the spectrum on every comparison.
struct KmerOption {
  seq::KmerCode code = 0;
  std::uint32_t count = 0;
};

class ReptileCorrector {
 public:
  /// Reusable per-worker scratch for phase 2. One instance per thread
  /// (or per sequential run); reusing it across reads removes every
  /// per-tile heap allocation from the hot path.
  struct Scratch {
    std::vector<seq::KmerCode> opts1;       // kmer options for alpha1
    std::vector<seq::KmerCode> opts2;       // kmer options for alpha2
    std::vector<seq::KmerCode> novel;       // novel-kmer neighbor fallback
    std::vector<KmerOption> opt;            // options + pre-gathered counts
    std::vector<TileCandidate> candidates;  // d-mutant tiles present in R
    std::vector<std::uint32_t> cross_og;    // cross-product Og matrix
    std::vector<std::uint8_t> quality;      // working copy per read
    seq::PackedSeq packed;                  // 2-bit working read
    seq::PackedSeq rc_packed;               // reverse-complement sweep buffer
    std::vector<std::uint8_t> rq;
    std::vector<int> prefix;                // convert_ambiguous prefix sums
  };

  /// Phase 1: ambiguous bases satisfying the density constraint are
  /// converted to params.default_base in a working copy of the reads,
  /// from which the spectrum, Hamming graph, and tile table are built.
  ReptileCorrector(const seq::ReadSet& reads, ReptileParams params);

  /// As above, but adopts `selection_tiles` — the table
  /// select_parameters built from the same reads — as the tile table
  /// when no base was converted and its TileParams are this
  /// parameterization's; otherwise the table is built afresh. Either
  /// way the corrector is identical to the two-argument form's.
  ReptileCorrector(const seq::ReadSet& reads, ReptileParams params,
                   kspec::TileTable selection_tiles);

  const ReptileParams& params() const noexcept { return params_; }
  const kspec::KSpectrum& spectrum() const noexcept { return spectrum_; }
  const kspec::TileTable& tiles() const noexcept { return tiles_; }

  /// Phase 2 for one read; returns the corrected read and accumulates
  /// stats. Thread-safe (const, no shared mutable state beyond `cache`,
  /// which is itself concurrent and may be shared by every worker).
  /// `scratch` must not be shared between concurrent callers.
  seq::Read correct(const seq::Read& read, CorrectionStats& stats,
                    Scratch& scratch,
                    TileDecisionCache* cache = nullptr) const;

  /// Convenience overload with call-local scratch (tests, one-off use).
  seq::Read correct(const seq::Read& read, CorrectionStats& stats) const {
    Scratch scratch;
    return correct(read, stats, scratch, nullptr);
  }

  /// Corrects every read (parallel over the default thread pool), with
  /// per-worker scratch and one shared tile-decision cache.
  std::vector<seq::Read> correct_all(const seq::ReadSet& reads,
                                     CorrectionStats& stats) const;

  /// True when tile decisions for this parameterization fit the memo
  /// encoding (tile code + distance budgets in 62 bits).
  bool cacheable() const noexcept {
    return 2 * params_.tile_length() + 4 <= 62;
  }

 private:
  /// The constructors' common body. `converted` is the preconverted
  /// copy of `reads` (nullopt when no base was converted), so the
  /// conversion runs once per construction and is shared by the spectrum
  /// and the tile table.
  ReptileCorrector(const seq::ReadSet& reads,
                   const std::optional<seq::ReadSet>& converted,
                   ReptileParams params,
                   std::optional<kspec::TileTable> selection_tiles);

  struct TileOutcome {
    TileDecision decision = TileDecision::kInsufficient;
    seq::KmerCode corrected = 0;
    /// True when the correction came from the strong-tile branch (lines
    /// 10-15) and must still pass the per-instance low-quality-base gate.
    bool quality_gated = false;
  };

  /// Algorithm 1 on the tile starting at `pos` of the working read.
  TileOutcome correct_tile(seq::KmerCode tile,
                           std::span<const std::uint8_t> tile_quality,
                           int d1, int d2, Scratch& scratch,
                           TileDecisionCache* cache) const;

  /// The quality-independent part of Algorithm 1 (memoizable).
  TileOutcome correct_tile_raw(seq::KmerCode tile, int d1, int d2,
                               Scratch& scratch) const;

  /// Kmers within Hamming distance [0, d_limit] of `code` that occur in
  /// the spectrum (including `code` itself). Appends to `out`; scratch
  /// supplies the enumeration and count-gather buffers. Options beyond
  /// max_kmer_options are dropped lowest-multiplicity-first, with counts
  /// gathered once per option (graph neighbors already carry their
  /// spectrum index; novel kmers resolve through a batched probe).
  void kmer_options(seq::KmerCode code, int d_limit, Scratch& scratch,
                    std::vector<seq::KmerCode>& out) const;

  /// Algorithm 2 sweep over one orientation of the working read (2-bit
  /// packed; tile codes come from shift/mask window extraction).
  void sweep(seq::PackedSeq& bases, const std::vector<std::uint8_t>& quality,
             CorrectionStats& stats, Scratch& scratch,
             TileDecisionCache* cache) const;

  ReptileParams params_;
  kspec::KSpectrum spectrum_;
  kspec::HammingGraph graph_;
  kspec::TileTable tiles_;
};

}  // namespace ngs::reptile
