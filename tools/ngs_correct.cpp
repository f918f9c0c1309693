// ngs-correct — correct sequencing errors in a FASTQ with any of the
// registered methods, through the two-pass streaming correction
// pipeline (bounded read buffering for spectrum-based methods, parallel
// batch correction, order-preserving batched writes).
//
//   ngs-correct --in reads.fastq --out corrected.fastq
//               --method reptile --genome-length 100000
//               --threads 8 --batch-size 4096
//
//   ngs-correct --method list       # discover registered methods
//
// Method dispatch lives entirely in core::make_corrector; this tool
// never names an individual method.
//
// Exit codes: 0 success, 2 usage/config error, 3 input open/parse
// error, 4 index error, 1 internal error.

#include <exception>
#include <iostream>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "fault/fault.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

using namespace ngs;

int main(int argc, char** argv) {
  util::CliParser cli("ngs-correct", "short-read error correction");
  cli.add_option("in", "input FASTQ", true, "");
  cli.add_option("out", "output FASTQ", true, "corrected.fastq");
  cli.add_option("method", "correction method (use 'list' to enumerate)",
                 true, "reptile");
  cli.add_option("genome-length", "genome length estimate (bp)", true,
                 "1000000");
  cli.add_option("k", "kmer length (0 = choose from genome length)", true,
                 "0");
  cli.add_option("error-rate", "error-rate estimate for redeem/hybrid", true,
                 "0.01");
  cli.add_option("threads", "correction worker threads (0 = all cores)", true,
                 "0");
  cli.add_option("spectrum-threads",
                 "pass-1 spectrum build threads (0 = share correction pool)",
                 true, "0");
  cli.add_option("batch-size", "reads per streamed batch", true, "4096");
  cli.add_option("queue-depth",
                 "bounded read-ahead of the overlapped pipeline, in "
                 "batches (>= 1)",
                 true, "4");
  cli.add_option("tile-cache-mb",
                 "shared pass-2 tile-decision cache budget in MiB "
                 "(0 = disable memoization)",
                 true, "32");
  cli.add_option("load-index",
                 "mmap a persisted spectrum index (see ngs-index) instead "
                 "of building pass 1 (streaming methods only)",
                 true, "");
  cli.add_option("save-index",
                 "persist the pass-1 spectrum to this path for future "
                 "--load-index runs (streaming methods only)",
                 true, "");
  cli.add_option("memory-budget-mb",
                 "bound the pass-1 spectrum build's own memory to N MiB, "
                 "spilling to sharded disk bins; output is byte-identical "
                 "(0 = unlimited; streaming methods only)",
                 true, "0");
  cli.add_option("spill-dir",
                 "directory for spill bins and the transient sharded index "
                 "under --memory-budget-mb (default: system temp dir)",
                 true, "");
  cli.add_option("on-bad-record",
                 "malformed-FASTQ policy: fail (abort with a located "
                 "parse error) or skip (drop and count)",
                 true, "fail");
  cli.add_option("fault-spec",
                 "fault-injection spec, e.g. 'io.fastq.open=n2,seed=7' "
                 "(also read from NGS_FAULT_SPEC; testing only)",
                 true, "");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  const std::string method_name = cli.get("method", "reptile");
  if (method_name == "list") {
    for (const auto& info : core::registered_methods()) {
      std::cout << info.name << '\t'
                << (info.streaming ? "streaming" : "buffered") << '\t'
                << info.description << '\n';
    }
    return 0;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  if (cli.get("in").empty()) {
    std::cerr << "ngs-correct: --in is required\n" << cli.usage();
    return 2;
  }

  // Arm the fault registry before any I/O: env first, then the flag
  // (the flag augments/overrides the env spec site by site).
  try {
    fault::Registry::instance().configure_from_env();
    if (!cli.get("fault-spec").empty()) {
      fault::Registry::instance().configure(cli.get("fault-spec"));
    }
  } catch (const Error& e) {
    std::cerr << "ngs-correct: " << e.what() << "\n";
    return tool_exit_code(e.kind());
  }

  io::BadRecordPolicy bad_record_policy = io::BadRecordPolicy::kFail;
  const std::string on_bad_record = cli.get("on-bad-record", "fail");
  if (on_bad_record == "skip") {
    bad_record_policy = io::BadRecordPolicy::kSkip;
  } else if (on_bad_record != "fail") {
    std::cerr << "ngs-correct: --on-bad-record must be 'fail' or 'skip', got '"
              << on_bad_record << "'\n";
    return 2;
  }

  const long queue_depth = cli.get_int("queue-depth", 4);
  if (queue_depth < 1) {
    std::cerr << "ngs-correct: --queue-depth must be >= 1, got "
              << queue_depth << "\n";
    return 2;
  }

  core::CorrectorConfig config;
  config.genome_length =
      static_cast<std::uint64_t>(cli.get_int("genome-length", 1000000));
  config.k = static_cast<int>(cli.get_int("k", 0));
  config.error_rate = cli.get_double("error-rate", 0.01);
  config.tile_cache_mb =
      static_cast<std::size_t>(cli.get_int("tile-cache-mb", 32));

  std::unique_ptr<core::Corrector> corrector;
  try {
    corrector = core::make_corrector(method_name, config);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n" << cli.usage();
    return 2;
  }

  core::PipelineOptions options;
  options.threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  options.spectrum_threads =
      static_cast<std::size_t>(cli.get_int("spectrum-threads", 0));
  options.batch_size =
      static_cast<std::size_t>(cli.get_int("batch-size", 4096));
  options.queue_depth = static_cast<std::size_t>(queue_depth);
  options.load_index_path = cli.get("load-index");
  options.save_index_path = cli.get("save-index");
  options.memory_budget_bytes =
      static_cast<std::size_t>(cli.get_int("memory-budget-mb", 0)) << 20;
  options.spill_dir = cli.get("spill-dir");
  options.on_bad_record = bad_record_policy;
  core::CorrectionPipeline pipeline(std::move(corrector), options);

  util::Timer timer;
  core::PipelineResult result;
  try {
    result = pipeline.run_file(cli.get("in"), cli.get("out"));
  } catch (const Error& e) {
    std::cerr << "ngs-correct: " << e.what() << "\n";
    return tool_exit_code(e.kind());
  } catch (const std::invalid_argument& e) {
    std::cerr << "ngs-correct: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ngs-correct: internal error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "method=" << method_name
            << (result.streamed ? " (streamed spectrum)" : " (buffered)")
            << ": " << result.report.summary() << "\n";
  // Index provenance, formatted like the tile-cache extras below: one
  // stderr line keyed off the standardized report extras.
  if (result.report.extra("pass1_skipped") +
          result.report.extra("index_saved") >
      0) {
    std::cerr << "index: " << result.report.note_or("index_path")
              << " (checksum " << result.report.note_or("index_checksum")
              << ", pass 1 "
              << (result.pass1_skipped ? "skipped — spectrum mmap-loaded"
                                       : "built and saved")
              << ")\n";
  }
  const std::uint64_t cache_hits = result.report.extra("tile_cache_hits");
  const std::uint64_t cache_misses = result.report.extra("tile_cache_misses");
  if (cache_hits + cache_misses > 0) {
    std::cerr << "tile cache: "
              << 100.0 * static_cast<double>(cache_hits) /
                     static_cast<double>(cache_hits + cache_misses)
              << "% hit rate, pass 2 "
              << result.report.extra("pass2_reads_per_sec") << " reads/s\n";
  }
  if (result.spectrum_spilled) {
    std::cerr << "spill: pass 1 stayed under "
              << cli.get_int("memory-budget-mb", 0) << " MiB (peak tracked "
              << result.spectrum_peak_tracked_bytes << " bytes), "
              << result.spectrum_spilled_bytes << " bytes spilled";
    if (result.spectrum_shards > 0) {
      std::cerr << ", pass 2 queried " << result.spectrum_shards
                << " index shards";
    }
    std::cerr << "\n";
  }
  if (result.pass2_overlap.workers > 0) {
    const auto& s2 = result.pass2_overlap;
    std::cerr << "overlap: queue depth "
              << result.report.extra("queue_depth") << ", pass 2 "
              << result.report.extra("pass2_worker_util_pct")
              << "% worker utilization (reader stall "
              << result.report.extra("pass2_reader_stall_ms")
              << " ms, writer stall "
              << result.report.extra("pass2_writer_stall_ms")
              << " ms, queue peak " << s2.queue_peak << "/"
              << result.report.extra("queue_depth") << ", reorder peak "
              << s2.reorder_peak << ")\n";
  }
  // Degradation report: anything the run survived rather than failed.
  if (result.reads_skipped + result.reads_failed + result.io_retries > 0) {
    std::cerr << "degraded: " << result.reads_skipped
              << " malformed records skipped, " << result.reads_failed
              << " reads passed through uncorrected, " << result.io_retries
              << " transient I/O retries\n";
  }
  if (fault::Registry::instance().enabled()) {
    std::cerr << "fault injection: " << fault::Registry::instance().summary()
              << "\n";
  }
  std::cerr << "wrote " << cli.get("out") << " in " << timer.seconds()
            << "s (" << result.batches << " batches, peak "
            << result.peak_buffered_reads << " buffered reads, peak rss "
            << util::to_gib(result.peak_rss_bytes) << " GiB)\n";
  return 0;
}
