#include "kspec/tile_table.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "kspec/radix.hpp"
#include "seq/alphabet.hpp"
#include "util/batch_search.hpp"
#include "util/thread_pool.hpp"

namespace ngs::kspec {
namespace {

/// Calls emit(code, high_quality) for every tile instance of `read`: each
/// N-free window on the forward strand and, with params.both_strands, its
/// reverse complement, rolled along in the same pass. Both strands of a
/// window cover the same bases, so they share one quality verdict, kept
/// as a running count of the window's bases below Qc.
template <typename Emit>
void for_each_tile(const seq::Read& read, const TileParams& params,
                   Emit&& emit) {
  const int tl = params.tile_length();
  const std::string& bases = read.bases;
  if (bases.size() < static_cast<std::size_t>(tl)) return;
  const std::vector<std::uint8_t>& quality = read.quality;
  const bool filter =
      params.quality_cutoff > 0 && quality.size() == bases.size();
  const seq::KmerCode mask =
      tl == 32 ? ~seq::KmerCode{0} : ((seq::KmerCode{1} << (2 * tl)) - 1);
  const int rc_shift = 2 * (tl - 1);
  seq::KmerCode fwd = 0;
  seq::KmerCode rev = 0;
  int valid = 0;
  int low = 0;  // bases below Qc among the last min(valid, tl)
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::uint8_t b = seq::base_to_code(bases[i]);
    if (b == seq::kInvalidBase) {
      valid = 0;
      low = 0;
      continue;
    }
    fwd = ((fwd << 2) | b) & mask;
    rev = (rev >> 2) | (seq::KmerCode{seq::complement_code(b)} << rc_shift);
    if (filter) {
      low += quality[i] < params.quality_cutoff;
      if (valid >= tl) {
        low -= quality[i - static_cast<std::size_t>(tl)] <
               params.quality_cutoff;
      }
    }
    if (++valid >= tl) {
      emit(fwd, low == 0);
      if (params.both_strands) emit(rev, low == 0);
    }
  }
}

/// Tile instances of `reads`, high-quality ones only or all of them,
/// gathered into one vector by fixed read blocks on `pool`: a counting
/// pass sizes every block's slice, a second pass fills it in place.
std::vector<seq::KmerCode> tile_instances(const seq::ReadSet& reads,
                                          const TileParams& params,
                                          bool high_quality_only,
                                          util::ThreadPool& pool) {
  const std::size_t n = reads.reads.size();
  const std::size_t num_blocks =
      std::min(n, std::max<std::size_t>(1, pool.size() * 4));
  if (num_blocks == 0) return {};
  const std::size_t block = (n + num_blocks - 1) / num_blocks;
  const auto for_each_block_tile = [&](std::size_t b, auto&& emit) {
    const std::size_t hi = std::min(n, (b + 1) * block);
    for (std::size_t r = b * block; r < hi; ++r) {
      for_each_tile(reads.reads[r], params,
                    [&](seq::KmerCode code, bool hq) {
                      if (hq || !high_quality_only) emit(code);
                    });
    }
  };
  std::vector<std::size_t> starts(num_blocks + 1, 0);
  pool.parallel_for(0, num_blocks, [&](std::size_t b) {
    std::size_t count = 0;
    for_each_block_tile(b, [&](seq::KmerCode) { ++count; });
    starts[b + 1] = count;
  });
  for (std::size_t b = 0; b < num_blocks; ++b) starts[b + 1] += starts[b];
  std::vector<seq::KmerCode> out(starts[num_blocks]);
  pool.parallel_for(0, num_blocks, [&](std::size_t b) {
    seq::KmerCode* w = out.data() + starts[b];
    for_each_block_tile(b, [&](seq::KmerCode code) { *w++ = code; });
  });
  return out;
}

}  // namespace

TileTable TileTable::build(const seq::ReadSet& reads, const TileParams& params,
                           util::ThreadPool* pool) {
  if (params.tile_length() > seq::kMaxK || params.overlap >= params.k ||
      params.overlap < 0) {
    throw std::invalid_argument("TileTable: invalid k/overlap combination");
  }
  util::ThreadPool& p = pool != nullptr ? *pool : util::default_pool();
  RadixSortOptions radix;
  radix.pool = &p;
  const int tl = params.tile_length();

  // Og first, then Oc: each instance multiset is extracted only when its
  // turn comes and is consumed by its count, so at most one is resident.
  std::vector<seq::KmerCode> hq_codes;
  std::vector<std::uint32_t> hq_counts;
  radix_sort_and_count(tile_instances(reads, params, true, p), tl, hq_codes,
                       hq_counts, radix);
  TileTable table;
  table.params_ = params;
  radix_sort_and_count(tile_instances(reads, params, false, p), tl,
                       table.codes_, table.oc_, radix);

  // Every high-quality tile is also a tile: merge-join Og onto Oc's codes.
  table.og_.assign(table.codes_.size(), 0);
  std::size_t h = 0;
  for (std::size_t i = 0; i < table.codes_.size() && h < hq_codes.size();
       ++i) {
    if (table.codes_[i] == hq_codes[h]) table.og_[i] = hq_counts[h++];
  }
  table.rebuild_prefix_index();
  return table;
}

void TileTable::rebuild_prefix_index() {
  // Same sizing rule as KSpectrum: ~32 codes per bucket, capped so the
  // offset table stays a few MB and never exceeds the key width.
  const int key_bits = 2 * params_.tile_length();
  const int bits =
      codes_.size() < 64
          ? 0
          : std::clamp(static_cast<int>(std::bit_width(codes_.size() / 32)), 1,
                       std::min(key_bits - 1, 20));
  prefix_bits_ = bits;
  if (bits <= 0) {
    bucket_starts_.clear();
    return;
  }
  const int shift = key_bits - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  bucket_starts_.assign(buckets + 1, 0);
  for (const seq::KmerCode code : codes_) {
    ++bucket_starts_[(code >> shift) + 1];
  }
  for (std::size_t b = 1; b < bucket_starts_.size(); ++b) {
    bucket_starts_[b] += bucket_starts_[b - 1];
  }
}

TileTable::Counts TileTable::counts(seq::KmerCode tile) const noexcept {
  const seq::KmerCode* first = codes_.data();
  const seq::KmerCode* last = first + codes_.size();
  if (prefix_bits_ > 0) {
    const std::size_t b = static_cast<std::size_t>(
        tile >> (2 * params_.tile_length() - prefix_bits_));
    if (b + 1 >= bucket_starts_.size()) return {};  // key out of range
    first = codes_.data() + bucket_starts_[b];
    last = codes_.data() + bucket_starts_[b + 1];
  }
  const auto* it = std::lower_bound(first, last, tile);
  if (it == last || *it != tile) return {};
  const auto i = static_cast<std::size_t>(it - codes_.data());
  return {oc_[i], og_[i]};
}

void TileTable::og_batch(std::span<const seq::KmerCode> tiles,
                         std::span<std::uint32_t> out) const {
  const int key_bits = 2 * params_.tile_length();
  for (std::size_t g = 0; g < tiles.size(); g += util::kProbeGroup) {
    const std::size_t gn = std::min(util::kProbeGroup, tiles.size() - g);
    std::uint64_t keys[util::kProbeGroup];
    std::size_t lo[util::kProbeGroup];
    std::size_t len[util::kProbeGroup];
    std::size_t hi[util::kProbeGroup];
    for (std::size_t j = 0; j < gn; ++j) {
      const seq::KmerCode code = tiles[g + j];
      keys[j] = code;
      lo[j] = 0;
      hi[j] = codes_.size();
      if (prefix_bits_ > 0) {
        const std::size_t b =
            static_cast<std::size_t>(code >> (key_bits - prefix_bits_));
        if (b + 1 >= bucket_starts_.size()) {  // key out of range
          hi[j] = 0;
        } else {
          lo[j] = bucket_starts_[b];
          hi[j] = bucket_starts_[b + 1];
        }
      }
      len[j] = hi[j] - lo[j];
    }
    util::interleaved_lower_bound(codes_.data(), keys, lo, len, gn);
    for (std::size_t j = 0; j < gn; ++j) {
      const std::size_t r = lo[j];
      out[g + j] = (r < hi[j] && codes_[r] == keys[j]) ? og_[r] : 0;
    }
  }
}

void TileTable::og_cross(std::span<const seq::KmerCode> a1,
                         std::span<const seq::KmerCode> a2,
                         std::span<std::uint32_t> out) const {
  const std::size_t n1 = a1.size();
  const std::size_t n2 = a2.size();
  if (out.size() != n1 * n2) {
    throw std::invalid_argument("og_cross: out size != a1.size() * a2.size()");
  }
  if (n1 == 0 || n2 == 0) return;
  std::fill(out.begin(), out.end(), 0u);
  const int k = params_.k;
  const int low_bits = 2 * (k - params_.overlap);  // a2's tile contribution
  const seq::KmerCode low_mask = (seq::KmerCode{1} << low_bits) - 1;

  // Sides beyond the stack scratch (far above Reptile's option caps):
  // fall back to independent probes.
  constexpr std::size_t kMaxSide = 64;
  if (n1 > kMaxSide || n2 > kMaxSide) {
    for (std::size_t i = 0; i < n1; ++i) {
      const seq::KmerCode hi = a1[i] << low_bits;
      for (std::size_t j = 0; j < n2; ++j) {
        out[i * n2 + j] = counts(hi | (a2[j] & low_mask)).og;
      }
    }
    return;
  }

  // Sort the a2 contributions once per call. Distinct kmers can mask to
  // the same low bits when l > 0; every tie receives the hit's Og.
  struct LowKey {
    seq::KmerCode low;
    std::uint32_t j;
  };
  LowKey keys2[kMaxSide];
  for (std::size_t j = 0; j < n2; ++j) {
    keys2[j] = {a2[j] & low_mask, static_cast<std::uint32_t>(j)};
  }
  std::sort(keys2, keys2 + n2,
            [](const LowKey& x, const LowKey& y) { return x.low < y.low; });

  // Global lower bound of each a1 range start (the first tile whose code
  // is >= a1[i] << low_bits), descents interleaved so their cache misses
  // overlap. Bucket narrowing stays a global lower bound: codes before
  // the bucket are < the key, and the code at the bucket's end (if the
  // range is empty) belongs to a later bucket, hence >= the key.
  const int key_bits = 2 * params_.tile_length();
  std::size_t r0[kMaxSide];
  for (std::size_t g = 0; g < n1; g += util::kProbeGroup) {
    const std::size_t gn = std::min(util::kProbeGroup, n1 - g);
    std::uint64_t keys[util::kProbeGroup];
    std::size_t lo[util::kProbeGroup];
    std::size_t len[util::kProbeGroup];
    for (std::size_t j = 0; j < gn; ++j) {
      const seq::KmerCode key = a1[g + j] << low_bits;
      keys[j] = key;
      lo[j] = 0;
      std::size_t hi = codes_.size();
      if (prefix_bits_ > 0) {
        const std::size_t b =
            static_cast<std::size_t>(key >> (key_bits - prefix_bits_));
        if (b + 1 >= bucket_starts_.size()) {  // key out of range
          lo[j] = codes_.size();
          hi = lo[j];
        } else {
          lo[j] = bucket_starts_[b];
          hi = bucket_starts_[b + 1];
        }
      }
      len[j] = hi - lo[j];
    }
    util::interleaved_lower_bound(codes_.data(), keys, lo, len, gn);
    for (std::size_t j = 0; j < gn; ++j) r0[g + j] = lo[j];
  }

  // Walk each a1 run (short: the distinct tiles extending one kmer) and
  // merge it against the sorted a2 contributions.
  for (std::size_t i = 0; i < n1; ++i) {
    std::uint32_t* row = out.data() + i * n2;
    const seq::KmerCode prefix = a1[i];
    for (std::size_t r = r0[i];
         r < codes_.size() && (codes_[r] >> low_bits) == prefix; ++r) {
      const seq::KmerCode low = codes_[r] & low_mask;
      std::size_t t = 0;
      std::size_t hi2 = n2;
      while (t < hi2) {
        const std::size_t mid = (t + hi2) / 2;
        if (keys2[mid].low < low) {
          t = mid + 1;
        } else {
          hi2 = mid;
        }
      }
      for (; t < n2 && keys2[t].low == low; ++t) row[keys2[t].j] = og_[r];
    }
  }
}

util::Histogram TileTable::og_histogram() const {
  util::Histogram h;
  for (const std::uint32_t og : og_) {
    h.add(static_cast<std::int64_t>(og));
  }
  return h;
}

}  // namespace ngs::kspec
