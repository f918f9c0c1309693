#include "kspec/hamming_graph.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace ngs::kspec {

HammingGraph::HammingGraph(const KSpectrum& spectrum, int d, int chunks,
                           util::ThreadPool* pool)
    : d_(d) {
  const int k = spectrum.k();
  int c = chunks == 0 ? std::min(k, d + 3) : chunks;
  c = std::max(c, d + 1);
  util::ThreadPool& p = pool != nullptr ? *pool : util::default_pool();
  const MaskedSortIndex index(spectrum, c, d, &p);

  // Contiguous vertex blocks, each appending its adjacency lists in
  // spectrum order to a private fragment with its own dedup scratch.
  // offsets_[i + 1] first holds the end of i's list within its block's
  // fragment and is rebased once all fragment sizes are known.
  const std::size_t n = spectrum.size();
  offsets_.assign(n + 1, 0);
  if (n == 0) return;
  const std::size_t num_blocks =
      std::min(n, std::max<std::size_t>(1, p.size() * 8));
  const std::size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<std::vector<std::uint32_t>> fragments(num_blocks);
  p.parallel_for(0, num_blocks, [&](std::size_t b) {
    std::vector<std::uint32_t>& out = fragments[b];
    std::vector<std::uint32_t> hits;
    const std::size_t hi = std::min(n, (b + 1) * block);
    for (std::size_t i = b * block; i < hi; ++i) {
      index.for_each_neighbor(
          spectrum.code_at(i),
          [&out](seq::KmerCode, std::size_t j) {
            out.push_back(static_cast<std::uint32_t>(j));
          },
          hits);
      offsets_[i + 1] = out.size();
    }
  });

  std::vector<std::uint64_t> starts(num_blocks + 1, 0);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    starts[b + 1] = starts[b] + fragments[b].size();
  }
  neighbors_.resize(starts[num_blocks]);
  p.parallel_for(0, num_blocks, [&](std::size_t b) {
    std::copy(fragments[b].begin(), fragments[b].end(),
              neighbors_.begin() + static_cast<std::ptrdiff_t>(starts[b]));
    const std::size_t hi = std::min(n, (b + 1) * block);
    for (std::size_t i = b * block; i < hi; ++i) offsets_[i + 1] += starts[b];
  });
}

}  // namespace ngs::kspec
