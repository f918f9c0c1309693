#include "reptile/params.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "util/stats.hpp"

namespace ngs::reptile {

ReptileParams select_parameters(const seq::ReadSet& reads,
                                std::uint64_t genome_length_estimate,
                                kspec::TileTable* tiles) {
  ReptileParams p;
  if (genome_length_estimate > 0) {
    p.k = static_cast<int>(
        std::ceil(std::log(static_cast<double>(genome_length_estimate)) /
                  std::log(4.0)));
    p.k = std::clamp(p.k, 10, 15);
  }

  // Qc: ~17% of base calls fall below the cutoff. Tallied per score
  // first; the histogram then takes one add per occurring score.
  std::array<std::uint64_t, 256> quality_counts{};
  for (const auto& r : reads.reads) {
    for (const std::uint8_t q : r.quality) ++quality_counts[q];
  }
  util::Histogram quality_hist;
  for (std::size_t q = 0; q < quality_counts.size(); ++q) {
    if (quality_counts[q] > 0) {
      quality_hist.add(static_cast<std::int64_t>(q), quality_counts[q]);
    }
  }
  if (!quality_hist.empty()) {
    p.quality_cutoff = static_cast<int>(quality_hist.quantile(0.17));
    p.quality_max = static_cast<int>(quality_hist.quantile(0.60));
  }

  // Tile multiplicity histogram with the chosen Qc drives Cg and Cm.
  kspec::TileParams tile_params;
  tile_params.k = p.k;
  tile_params.overlap = p.overlap;
  tile_params.quality_cutoff = p.quality_cutoff;
  auto table = kspec::TileTable::build(reads, tile_params);
  const auto hist = table.og_histogram();
  if (!hist.empty()) {
    p.c_good = static_cast<std::uint32_t>(
        std::max<std::int64_t>(4, hist.quantile(0.98)));
    // Cm: the 95% quantile of the multiplicity histogram, but never more
    // than a quarter of Cg — with strongly 3'-weighted quality profiles
    // the quantile can land inside the valid-tile peak, which would bar
    // legitimate low-Og (3'-heavy) tiles from ever validating. The cap
    // keeps Cm in the valley between the error and genomic peaks, which
    // is where the paper's own sweep (Fig. 2.3) finds the best Gain.
    p.c_min = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
        hist.quantile(0.95), 2,
        std::max<std::int64_t>(2, p.c_good / 4)));
  }
  if (tiles != nullptr) *tiles = std::move(table);
  return p;
}

}  // namespace ngs::reptile
