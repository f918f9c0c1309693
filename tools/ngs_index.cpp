// ngs-index — build, inspect, and verify persistent spectrum indexes
// (the ngs::index on-disk format), decoupling pass-1 k-spectrum
// construction from correction runs the way RECKONER decouples its KMC
// database build:
//
//   ngs-index build  --in reads.fastq --out spectrum.ngsx
//                    --k 12 --both-strands 1 --threads 8
//   ngs-index info   --index spectrum.ngsx
//   ngs-index verify --index spectrum.ngsx
//
// `build` runs core::build_spectrum — the same pass 1, and the same
// choice of index format, as `ngs-correct --save-index` — streaming the
// FASTQ through the bounded-memory chunked builder (never materializing
// the read set) and writing atomically; `info`
// prints the header/provenance without touching payload pages; `verify`
// recomputes every checksum and validates the spectrum invariants,
// exiting non-zero with a distinct message per corruption mode.
//
// A saved index feeds `ngs-correct --load-index`, which mmaps it and
// skips pass 1 entirely.
//
// Exit codes: 0 success, 2 usage/config error, 3 input open/parse
// error, 4 index error (including verify failures), 1 internal error.

#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastq_stream.hpp"
#include "seq/kmer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace ngs;

namespace {

void print_usage(std::ostream& os) {
  os << "ngs-index — persistent k-spectrum index tool\n"
     << "usage: ngs-index <build|info|verify> [options]\n\n"
     << "  build  --in reads.fastq --out index.ngsx [--k N]\n"
     << "         [--both-strands 0|1] [--threads N] [--batch-size N]\n"
     << "         [--memory-budget-mb N] [--spill-dir DIR]\n"
     << "  info   --index index.ngsx [--json]\n"
     << "  verify --index index.ngsx\n";
}

const char* section_label(index::SectionId id) {
  switch (id) {
    case index::SectionId::kCodes: return "codes";
    case index::SectionId::kCounts: return "counts";
    case index::SectionId::kBucketStarts: return "bucket_starts";
    case index::SectionId::kShardTable: return "shard_table";
  }
  return "unknown";
}

void print_info(const index::IndexInfo& info, const std::string& path) {
  std::cout << "index: " << path << "\n"
            << "  format_version: " << info.format_version << "\n"
            << "  k: " << info.build.k << "\n"
            << "  both_strands: " << (info.build.both_strands ? 1 : 0) << "\n"
            << "  distinct_kmers: " << info.distinct << "\n"
            << "  total_instances: " << info.total_instances << "\n"
            << "  prefix_bits: " << info.prefix_bits << "\n"
            << "  input_reads: " << info.build.input_reads << "\n"
            << "  input_bases: " << info.build.input_bases << "\n"
            << "  max_read_length: " << info.build.max_read_length << "\n"
            << "  file_bytes: " << info.file_bytes << "\n"
            << "  checksum: 0x" << std::hex << info.checksum << std::dec
            << "\n";
  if (info.shard_count > 0) {
    const int shift = 2 * info.build.k - static_cast<int>(info.shard_bits);
    std::cout << "  shard_count: " << info.shard_count << "\n"
              << "  shard_bits: " << info.shard_bits << "\n"
              << "  bucket_key_bits: " << shift
              << " (each shard's bucket table, built at load, indexes the "
                 "key bits below its prefix)\n"
              << "  shards:\n";
    for (const auto& shard : info.shards) {
      // Per-shard section rows (bytes + checksum), matched by prefix.
      std::cout << "    prefix=" << shard.prefix << " key_range=["
                << (static_cast<std::uint64_t>(shard.prefix) << shift) << ", "
                << (static_cast<std::uint64_t>(shard.prefix + 1) << shift)
                << ") entries=" << shard.distinct
                << " instances=" << shard.total_instances
                << " bucket_bits=" << shard.bucket_bits << "\n";
      for (const auto& s : info.sections) {
        if (s.shard_prefix != shard.prefix ||
            s.id == index::SectionId::kShardTable) {
          continue;
        }
        std::cout << "      " << section_label(s.id) << ": offset="
                  << s.offset << " bytes=" << s.bytes << " checksum=0x"
                  << std::hex << s.checksum << std::dec << "\n";
      }
    }
  }
  std::cout << "  sections:\n";
  for (const auto& s : info.sections) {
    std::cout << "    " << section_label(s.id);
    if (info.shard_count > 0 &&
        s.id != index::SectionId::kShardTable) {
      std::cout << "[shard " << s.shard_prefix << "]";
    }
    std::cout << ": offset=" << s.offset << " bytes=" << s.bytes
              << " checksum=0x" << std::hex << s.checksum << std::dec
              << "\n";
  }
}

/// Machine-readable `info --json`: one JSON object with the header
/// fields, the per-shard summaries, and every section's extent and
/// checksum. Checksums are emitted as hex strings (they exceed the
/// interoperable 2^53 integer range); everything else is a number.
void print_info_json(const index::IndexInfo& info, const std::string& path) {
  const auto hex = [](std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  const auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::cout << "{\n"
            << "  \"path\": \"" << escape(path) << "\",\n"
            << "  \"format_version\": " << info.format_version << ",\n"
            << "  \"k\": " << info.build.k << ",\n"
            << "  \"both_strands\": "
            << (info.build.both_strands ? "true" : "false") << ",\n"
            << "  \"distinct_kmers\": " << info.distinct << ",\n"
            << "  \"total_instances\": " << info.total_instances << ",\n"
            << "  \"prefix_bits\": " << info.prefix_bits << ",\n"
            << "  \"input_reads\": " << info.build.input_reads << ",\n"
            << "  \"input_bases\": " << info.build.input_bases << ",\n"
            << "  \"max_read_length\": " << info.build.max_read_length
            << ",\n"
            << "  \"file_bytes\": " << info.file_bytes << ",\n"
            << "  \"checksum\": \"" << hex(info.checksum) << "\",\n"
            << "  \"shard_count\": " << info.shard_count << ",\n"
            << "  \"shard_bits\": " << info.shard_bits << ",\n"
            << "  \"shards\": [";
  for (std::size_t i = 0; i < info.shards.size(); ++i) {
    const auto& shard = info.shards[i];
    std::cout << (i == 0 ? "\n" : ",\n")
              << "    {\"prefix\": " << shard.prefix
              << ", \"entries\": " << shard.distinct
              << ", \"instances\": " << shard.total_instances
              << ", \"bucket_bits\": " << shard.bucket_bits
              << "}";
  }
  std::cout << (info.shards.empty() ? "],\n" : "\n  ],\n")
            << "  \"sections\": [";
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const auto& s = info.sections[i];
    std::cout << (i == 0 ? "\n" : ",\n")
              << "    {\"id\": \"" << section_label(s.id) << "\""
              << ", \"shard_prefix\": " << s.shard_prefix
              << ", \"offset\": " << s.offset << ", \"bytes\": " << s.bytes
              << ", \"checksum\": \"" << hex(s.checksum) << "\"}";
  }
  std::cout << (info.sections.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

int run_build(util::CliParser& cli) {
  const std::string in = cli.get("in");
  const std::string out = cli.get("out");
  if (in.empty() || out.empty()) {
    std::cerr << "ngs-index build: --in and --out are required\n"
              << cli.usage();
    return 2;
  }
  const int k = static_cast<int>(cli.get_int("k", 12));
  const bool both_strands = cli.get_int("both-strands", 1) != 0;
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  const auto batch_size =
      static_cast<std::size_t>(cli.get_int("batch-size", 4096));
  const auto budget_mb =
      static_cast<std::size_t>(cli.get_int("memory-budget-mb", 0));
  if (k < 1 || k > seq::kMaxK) {
    std::cerr << "ngs-index build: --k must be in [1, " << seq::kMaxK
              << "]\n";
    return 2;
  }

  // Pass 1 exactly as ngs-correct --save-index runs it, so both tools
  // write the same bytes from the same reads.
  core::PipelineOptions options;
  options.batch_size = batch_size;
  options.spectrum_threads = threads;
  options.memory_budget_bytes = budget_mb << 20;
  options.spill_dir = cli.get("spill-dir");
  options.save_index_path = out;
  util::Timer timer;
  const auto built = core::build_spectrum(
      [&in]() -> std::unique_ptr<std::istream> {
        return io::open_input_stream(in);
      },
      k, both_strands, options, util::default_pool());
  std::cerr << "built k=" << k << " spectrum of " << built.spectrum.size()
            << " distinct kmers (" << built.spectrum.total_instances()
            << " instances) from " << built.input.reads << " reads\n";
  if (built.index_shards > 0) {
    std::cerr << "spilled " << built.spill_bytes << " bytes into "
              << built.index_shards << " prefix shards (peak tracked memory "
              << built.peak_tracked_bytes << " bytes)\n";
  }
  std::cerr << "wrote " << out << " (checksum 0x" << std::hex
            << built.index_checksum << std::dec << ") in " << timer.seconds()
            << "s\n";
  return 0;
}

int run_info(util::CliParser& cli) {
  const std::string path = cli.get("index");
  if (path.empty()) {
    std::cerr << "ngs-index info: --index is required\n" << cli.usage();
    return 2;
  }
  const auto info = index::SpectrumIndex::read_info(path);
  if (cli.has("json")) {
    print_info_json(info, path);
  } else {
    print_info(info, path);
  }
  return 0;
}

int run_verify(util::CliParser& cli) {
  const std::string path = cli.get("index");
  if (path.empty()) {
    std::cerr << "ngs-index verify: --index is required\n" << cli.usage();
    return 2;
  }
  util::Timer timer;
  index::LoadOptions options;
  options.verify_checksums = true;
  options.validate_payload = true;
  const auto index = index::SpectrumIndex::load(path, options);
  std::cerr << "ok: " << path << " (" << index.info().distinct
            << " distinct kmers, checksum 0x" << std::hex
            << index.info().checksum << std::dec << ", "
            << (index.info().mapped ? "mmap" : "owned buffer") << ", verified in "
            << timer.seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string subcommand = argv[1];
  if (subcommand == "--help" || subcommand == "help") {
    print_usage(std::cout);
    return 0;
  }

  util::CliParser cli("ngs-index " + subcommand,
                      "persistent k-spectrum index tool");
  if (subcommand == "build") {
    cli.add_option("in", "input FASTQ", true, "");
    cli.add_option("out", "output index path", true, "");
    cli.add_option("k", "kmer length", true, "12");
    cli.add_option("both-strands",
                   "include reverse-complement strands (1) or not (0)", true,
                   "1");
    cli.add_option("threads", "spectrum build threads (0 = all cores)", true,
                   "0");
    cli.add_option("batch-size", "reads per streamed parse batch", true,
                   "4096");
    cli.add_option("memory-budget-mb",
                   "bound the build's own memory to N MiB, spilling the "
                   "spectrum to sharded disk bins (0 = unlimited)",
                   true, "0");
    cli.add_option("spill-dir",
                   "directory for spill bins under --memory-budget-mb "
                   "(default: system temp dir)",
                   true, "");
    cli.add_option("fault-spec",
                   "fault-injection spec (also read from NGS_FAULT_SPEC; "
                   "testing only)",
                   true, "");
  } else if (subcommand == "info" || subcommand == "verify") {
    cli.add_option("index", "index file to inspect", true, "");
    if (subcommand == "info") {
      cli.add_option("json",
                     "emit the header/section/shard dump as JSON on stdout",
                     false);
    }
    cli.add_option("fault-spec",
                   "fault-injection spec (also read from NGS_FAULT_SPEC; "
                   "testing only)",
                   true, "");
  } else {
    std::cerr << "ngs-index: unknown subcommand '" << subcommand << "'\n";
    print_usage(std::cerr);
    return 2;
  }
  if (!cli.parse(argc - 1, argv + 1)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }

  try {
    fault::Registry::instance().configure_from_env();
    if (!cli.get("fault-spec").empty()) {
      fault::Registry::instance().configure(cli.get("fault-spec"));
    }
  } catch (const Error& e) {
    std::cerr << "ngs-index " << subcommand << ": " << e.what() << "\n";
    return tool_exit_code(e.kind());
  }

  try {
    if (subcommand == "build") return run_build(cli);
    if (subcommand == "info") return run_info(cli);
    return run_verify(cli);
  } catch (const Error& e) {
    // IndexError derives from Error with kind kIndex, so corrupt or
    // missing indexes land on exit code 4; input open/parse on 3.
    std::cerr << "ngs-index " << subcommand << ": " << e.what() << "\n";
    return tool_exit_code(e.kind());
  } catch (const std::invalid_argument& e) {
    std::cerr << "ngs-index " << subcommand << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ngs-index " << subcommand << ": internal error: " << e.what()
              << "\n";
    return 1;
  }
}
