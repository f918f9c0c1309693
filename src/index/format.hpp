#pragma once
// On-disk layout of the persistent spectrum index (format versions 1
// and 2).
//
//   [0, 128)              IndexHeader (fixed 128 bytes)
//   [128, 128 + 32*S)     section table: S × SectionEntry
//   [aligned offsets...]  payload sections, each 64-byte aligned,
//                         zero-padded between sections
//
// Version 1 (monolithic): one codes section (sorted u64 LE), one
// parallel counts section (u32 LE), and — when a prefix-bucket lookup
// table was built — the 2^prefix_bits + 1 bucket offsets (u64 LE).
//
// Version 2 (sharded, the out-of-core build output): the spectrum is
// split into `shard_count` prefix-range shards — shard p holds exactly
// the codes whose top `shard_bits` bits equal p, so the shards cover
// disjoint ascending key ranges and their concatenation is the
// monolithic spectrum. Each shard contributes its own codes/counts
// sections, tagged with the shard's prefix in SectionEntry::shard_prefix
// and individually checksummed, so a reader can map and verify one
// shard without touching the rest. A kShardTable section (shard_count ×
// ShardEntry, ascending prefix) records each shard's entry counts. The
// header's distinct/total are the sums over shards; prefix_bits is 0.
// No bucket table is stored: a reader builds each shard's table over
// the key bits below the shard prefix when it first touches the shard.
// Files from earlier writers also carry a per-shard kBucketStarts
// section indexed by the full key's top bits; readers checksum it but
// never read it, so those files load with identical answers. Writers
// emit version 2 only when shard_count > 1 — a single-bin build falls
// back to the byte-identical version-1 layout.
//
// Every section carries an FNV-1a 64 checksum of its payload bytes;
// the header carries a checksum of the header + section table (with
// the checksum field zeroed), so any metadata corruption — including a
// tampered section checksum — is caught on load without touching the
// payload pages, and `verify` extends the check to the payloads.
//
// All integers are little-endian native; `endian_tag` rejects a file
// written on a foreign-endian host instead of serving garbage.
// Compatibility policy: the magic pins the file family, format_version
// is bumped on any layout change (readers reject unknown versions —
// there are no silent partial reads), and unknown section ids are
// ignored so minor versions can append sections without breaking old
// readers of the same format_version.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace ngs::index {

inline constexpr char kIndexMagic[8] = {'N', 'G', 'S', 'S',
                                        'I', 'D', 'X', '\0'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kFormatVersionSharded = 2;
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::size_t kSectionAlignment = 64;
/// Version-2 shard ceiling (shard_bits ≤ 8). Bounds the section table
/// so the metadata head read stays one bounded pread.
inline constexpr std::uint32_t kMaxShards = 256;
/// Section-count caps per version: v1 keeps the original 64; v2 allows
/// three sections per shard (codes, counts, and the bucket-starts
/// section earlier writers stored) plus the shard table.
inline constexpr std::uint32_t kMaxSectionsV1 = 64;
inline constexpr std::uint32_t kMaxSectionsV2 = 3 * kMaxShards + 1;

/// Payload section identifiers.
enum class SectionId : std::uint32_t {
  kCodes = 1,         // sorted distinct kmer codes, u64[distinct]
  kCounts = 2,        // parallel multiplicities, u32[distinct]
  kBucketStarts = 3,  // prefix-bucket offsets, u64[2^prefix_bits + 1]
                      // (v1; v2 files of earlier writers, unread)
  kShardTable = 4,    // v2 only: shard_count × ShardEntry, ascending
};

/// Fixed 128-byte file header. Trivially copyable; parsed via memcpy so
/// a short or misaligned mapping can never fault.
struct IndexHeader {
  char magic[8];                  // kIndexMagic
  std::uint32_t format_version;   // kFormatVersion
  std::uint32_t header_bytes;     // sizeof(IndexHeader)
  std::uint32_t k;                // kmer length of the spectrum
  std::uint32_t flags;            // bit 0: both_strands
  std::uint64_t distinct;         // spectrum entries (codes/counts length)
  std::uint64_t total_instances;  // sum of counts
  std::uint32_t prefix_bits;      // 0 = no bucket section
  std::uint32_t section_count;
  std::uint64_t input_reads;      // provenance: reads the spectrum was
  std::uint64_t input_bases;      //   built from (InputSummary persisted
  std::uint32_t max_read_length;  //   so --load-index can skip pass 1)
  std::uint32_t endian_tag;       // kEndianTag
  std::uint64_t file_bytes;       // total file size (truncation check)
  std::uint64_t header_checksum;  // fnv1a64(header w/ this field = 0 ||
                                  //         section table)
  std::uint32_t shard_count;      // v2: shards in the file; v1: 0
  std::uint32_t shard_bits;       // v2: prefix width of the split; v1: 0
  std::uint8_t reserved[32];      // zeros; room for future fields
};
static_assert(sizeof(IndexHeader) == 128);
static_assert(std::is_trivially_copyable_v<IndexHeader>);

inline constexpr std::uint32_t kFlagBothStrands = 1u << 0;

/// One section-table row (32 bytes).
struct SectionEntry {
  std::uint32_t id;            // SectionId
  std::uint32_t shard_prefix;  // v2 per-shard sections: the shard's
                               // prefix key; zero otherwise
  std::uint64_t offset;        // from file start; kSectionAlignment-aligned
  std::uint64_t bytes;         // payload length (no padding)
  std::uint64_t checksum;      // fnv1a64 over the payload bytes
};
static_assert(sizeof(SectionEntry) == 32);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/// One row of the v2 shard table (24 bytes): the shard's prefix key,
/// the width of a stored prefix-bucket table (written 0; earlier
/// writers stored a full-key table whose width readers ignore), and its
/// entry counts. Rows are ascending by prefix; Σ distinct and Σ
/// total_instances must equal the header fields.
struct ShardEntry {
  std::uint32_t prefix;
  std::uint32_t prefix_index_bits;
  std::uint64_t distinct;
  std::uint64_t total_instances;
};
static_assert(sizeof(ShardEntry) == 24);
static_assert(std::is_trivially_copyable_v<ShardEntry>);

/// FNV-1a 64-bit over a byte range; chainable via `state`.
inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t state = kFnv1aOffset) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= kFnv1aPrime;
  }
  return state;
}

/// Rounds `offset` up to the next kSectionAlignment boundary.
inline constexpr std::uint64_t align_up(std::uint64_t offset) noexcept {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

}  // namespace ngs::index
