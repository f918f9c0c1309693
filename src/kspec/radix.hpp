#pragma once
// Parallel radix-partitioned sorting of packed kmer codes — the
// construction engine behind KSpectrum and ChunkedSpectrumBuilder.
//
// Codes are sharded by their top `radix_bits` bits (the 5'-most bases,
// since the codec stores the first base in the most significant pair)
// into 2^radix_bits buckets with a two-pass stable counting partition,
// then each bucket is sorted independently on a util::ThreadPool by the
// LSD radix kernel below, over the key bits under the shared prefix.
// Because the buckets cover disjoint, ascending key ranges, their
// concatenation is globally sorted — the output is byte-identical to a
// single std::sort over the whole array, for every thread count and
// every radix width. Aggregation into unique (code, count) runs is also
// per-bucket and therefore parallel.
//
// This is the Jellyfish-style parallel counting decomposition
// (Marçais & Kingsford 2011) restricted to the exact, deterministic
// sorted-array representation Sec. 2.3 of the paper builds on.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "seq/kmer.hpp"

namespace ngs::util {
class AtomicFile;
class ThreadPool;
}

namespace ngs::kspec {

struct RadixSortOptions {
  /// Bucket count is 2^radix_bits. Negative = choose from input size
  /// (targeting a few thousand codes per bucket); 0 = one bucket
  /// (degenerates to a single sort).
  int radix_bits = -1;
  /// Pool for per-bucket work. nullptr = util::default_pool(). The
  /// serial entry points below never touch a pool.
  util::ThreadPool* pool = nullptr;
};

/// Sorts `codes` ascending with a stable LSD radix sort over their low
/// `key_bits` bits (clamped to 64). Every code must carry the same bits
/// above `key_bits` — a radix bucket or a spill bin shares its prefix —
/// so no comparison is needed. Each pass sorts a digit of at most 11
/// bits. `scratch` must hold at least codes.size() codes; its contents
/// are clobbered. After an odd number of passes the result is copied
/// back into `codes`. Serial; callers parallelize across spans.
void radix_sort_low_bits(std::span<seq::KmerCode> codes, int key_bits,
                         std::span<seq::KmerCode> scratch);

/// The kernel on a whole vector: sorts `codes` (sharing every bit above
/// `key_bits`) with radix_sort_low_bits through a scratch vector it frees
/// before sizing `counts`, then run-length compacts the distinct codes
/// into the front of `codes`, which is resized to the distinct count
/// (its capacity is kept). Peak: 16 bytes per code, codes plus scratch.
void sort_and_count_in_place(std::vector<seq::KmerCode>& codes, int key_bits,
                             std::vector<std::uint32_t>& counts);

/// Picks a radix width for `n` codes of a 2k-bit key: enough buckets to
/// keep per-bucket sorts cache-resident and the pool busy, capped so the
/// offset table stays small and never wider than the key itself.
int choose_radix_bits(std::size_t n, int k) noexcept;

/// Sorts `codes` ascending via the radix partition. Multiset- and
/// byte-identical to std::sort(codes.begin(), codes.end()).
void radix_sort_codes(std::vector<seq::KmerCode>& codes, int k,
                      const RadixSortOptions& options = {});

/// Sorts the instance multiset `codes` (destructively) and aggregates it
/// into strictly ascending unique `out_codes` with parallel positive
/// `out_counts` — the (R^k, multiplicity) arrays KSpectrum stores.
/// Equivalent to sort + run-length encode, but partitioned: counting,
/// sorting, and aggregation all run per-bucket on the pool.
void radix_sort_and_count(std::vector<seq::KmerCode>&& codes, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts,
                          const RadixSortOptions& options = {});

/// Serial reference path (the seed implementation: std::sort plus a
/// run-length loop), kept callable so benches and tests can diff the
/// radix kernel's output against it.
void serial_sort_and_count(std::vector<seq::KmerCode>&& codes,
                           std::vector<seq::KmerCode>& out_codes,
                           std::vector<std::uint32_t>& out_counts);

/// Disk-backed prefix partition for the out-of-core spectrum build
/// (KMC/RECKONER-style): kmer instances are routed by their top
/// `shard_bits` key bits into 2^shard_bits per-bin temp files, so each
/// bin can later be read back, sorted, and counted independently in a
/// fraction of the whole multiset's memory. Bins cover disjoint
/// ascending key ranges — exactly the invariant of the in-memory radix
/// partition above — so per-bin (code, count) runs concatenate into the
/// globally sorted spectrum with zero cross-bin merging.
///
/// Write protocol: add() buffers per bin (small bounded buffers, see
/// buffer_bytes()) and appends raw little-endian u64 codes to the bin's
/// util::AtomicFile; close_writes() flushes and commits every bin, after
/// which read_bin() serves them back. All bin files (and any uncommitted
/// temps, on a failure unwind) are removed on destruction. I/O failures
/// throw ngs::Error(kIo) sited at fault::sites::kSpillWrite/kSpillRead,
/// both drivable from the fault registry.
class SpillPartitioner {
 public:
  /// `dir` must name an existing or creatable directory; bin files are
  /// uniquely named per process and partitioner.
  SpillPartitioner(int k, int shard_bits, std::string dir,
                   std::size_t buffer_codes_per_bin = 1024);
  ~SpillPartitioner();
  SpillPartitioner(const SpillPartitioner&) = delete;
  SpillPartitioner& operator=(const SpillPartitioner&) = delete;

  int shard_bits() const noexcept { return shard_bits_; }
  std::size_t bin_count() const noexcept { return bins_.size(); }

  /// Routes every code to its bin buffer, flushing full buffers to disk.
  void add(std::span<const seq::KmerCode> codes);

  /// Flushes and commits every bin file. add() is invalid afterwards.
  void close_writes();

  /// Instances routed to `bin` so far.
  std::uint64_t bin_instances(std::size_t bin) const noexcept {
    return bins_[bin].instances;
  }
  /// Bins holding at least one instance.
  std::size_t nonempty_bins() const noexcept;
  /// Total bytes spilled to disk across all bins.
  std::uint64_t spilled_bytes() const noexcept { return spilled_bytes_; }
  /// Bytes held by the in-memory bin buffers (for budget accounting).
  std::size_t buffer_bytes() const noexcept;

  /// Reads bin `bin` back as a code multiset (in spill order). Requires
  /// close_writes(); the bin file stays on disk until destruction.
  std::vector<seq::KmerCode> read_bin(std::size_t bin) const;

 private:
  struct Bin {
    std::vector<seq::KmerCode> buffer;
    std::unique_ptr<util::AtomicFile> file;  // created on first flush
    std::string path;
    std::uint64_t instances = 0;
  };
  void flush_bin(Bin& bin);

  int k_;
  int shard_bits_;
  int shift_;
  std::string dir_;
  std::size_t buffer_codes_per_bin_;
  std::vector<Bin> bins_;
  std::uint64_t spilled_bytes_ = 0;
  bool writable_ = true;
};

}  // namespace ngs::kspec
