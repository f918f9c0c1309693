// ngs-correct-client — client for the ngs-correctd streaming correction
// daemon. Three modes:
//
//   correct (default): stream a FASTQ through the daemon and write the
//     corrected FASTQ — byte-identical to running ngs-correct offline
//     with the same method and parameters.
//
//       ngs-correct-client --socket /tmp/ngs.sock --in reads.fastq
//                          --out corrected.fastq --method sap
//
//   stats:  print the daemon's counter dump ("key=value" lines).
//   reload: ask the daemon to re-verify and hot-swap its indexes.
//
// The correct mode keeps a window of batches in flight, retries batches
// the daemon shed under load (typed BUSY) with backoff, and restores
// input order before writing — the output file is written atomically
// (temp + rename), like ngs-correct's.
//
// Exit codes: 0 success, 2 usage/config error, 3 input/daemon I/O or
// protocol error, 4 index error (e.g. failed reload), 1 internal error.

#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "service/client.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

using namespace ngs;

int main(int argc, char** argv) {
  util::CliParser cli("ngs-correct-client",
                      "client for the ngs-correctd correction daemon");
  cli.add_option("socket", "daemon socket path", true, "");
  cli.add_option("mode", "correct, stats, or reload", true, "correct");
  cli.add_option("in", "input FASTQ (correct mode)", true, "");
  cli.add_option("out", "output FASTQ (correct mode)", true,
                 "corrected.fastq");
  cli.add_option("method", "correction method served by the daemon", true,
                 "reptile");
  cli.add_option("genome-length", "genome length estimate (bp)", true,
                 "1000000");
  cli.add_option("k", "kmer length (0 = choose from genome length)", true,
                 "0");
  cli.add_option("error-rate", "error-rate estimate for redeem/hybrid", true,
                 "0.01");
  cli.add_option("batch-size", "reads per request batch", true, "1024");
  cli.add_option("window",
                 "request batches kept in flight (clamped to the daemon's "
                 "per-client limit)",
                 true, "4");
  cli.add_option("busy-retry-limit",
                 "BUSY resends tolerated per batch before giving up", true,
                 "64");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  if (cli.get("socket").empty()) {
    std::cerr << "ngs-correct-client: --socket is required\n" << cli.usage();
    return 2;
  }
  const std::string mode = cli.get("mode", "correct");
  if (mode != "correct" && mode != "stats" && mode != "reload") {
    std::cerr << "ngs-correct-client: --mode must be correct, stats, or "
                 "reload, got '"
              << mode << "'\n";
    return 2;
  }
  if (mode == "correct" && cli.get("in").empty()) {
    std::cerr << "ngs-correct-client: --in is required in correct mode\n"
              << cli.usage();
    return 2;
  }

  try {
    service::Client client(cli.get("socket"));
    client.connect();

    if (mode == "stats") {
      std::cout << client.stats();
      return 0;
    }
    if (mode == "reload") {
      const std::uint64_t epoch = client.reload();
      std::cout << "reloaded: epoch " << epoch << "\n";
      return 0;
    }

    service::HelloRequest hello;
    hello.method = cli.get("method", "reptile");
    hello.k = static_cast<std::int32_t>(cli.get_int("k", 0));
    hello.genome_length =
        static_cast<std::uint64_t>(cli.get_int("genome-length", 1000000));
    hello.error_rate = cli.get_double("error-rate", 0.01);
    const service::HelloOk limits = client.hello(hello);

    service::StreamOptions stream;
    stream.batch_size =
        static_cast<std::size_t>(cli.get_int("batch-size", 1024));
    stream.window = static_cast<std::size_t>(cli.get_int("window", 4));
    stream.busy_retry_limit =
        static_cast<std::size_t>(cli.get_int("busy-retry-limit", 64));
    if (limits.max_batch_reads > 0 &&
        stream.batch_size > limits.max_batch_reads) {
      stream.batch_size = limits.max_batch_reads;
    }

    // Same atomic-output protocol as ngs-correct: a failed run never
    // leaves a truncated corrected FASTQ behind.
    util::AtomicFile out_file(cli.get("out"));
    util::Timer timer;
    service::StreamResult result;
    {
      std::ofstream os(out_file.temp_path());
      if (!os) {
        throw Error(ErrorKind::kIo, "",
                    "cannot open for writing: " + out_file.temp_path());
      }
      io::FastqStreamReader reader(cli.get("in"));
      result = service::correct_stream(
          client, limits, stream,
          [&](std::vector<seq::Read>& reads) {
            reads.clear();
            return reader.read_batch(reads, stream.batch_size) > 0;
          },
          [&](std::vector<seq::Read>&& corrected) {
            io::write_fastq(os, corrected);
          });
      os.flush();
      if (!os) {
        throw Error(ErrorKind::kIo, "",
                    "write failed: " + out_file.temp_path());
      }
    }
    out_file.commit();

    std::cerr << "method=" << hello.method << " via daemon (epoch "
              << limits.epoch_id << ", k=" << limits.resolved_k << "): "
              << result.reads << " reads, " << result.reads_changed
              << " changed, " << result.bases_changed << " bases\n";
    if (result.busy_retries > 0) {
      std::cerr << "backpressure: " << result.busy_retries
                << " batches shed and retried\n";
    }
    std::cerr << "wrote " << cli.get("out") << " in " << timer.seconds()
              << "s (" << result.batches << " batches, window "
              << stream.window << ")\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "ngs-correct-client: " << e.what() << "\n";
    return tool_exit_code(e.kind());
  } catch (const std::invalid_argument& e) {
    std::cerr << "ngs-correct-client: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ngs-correct-client: internal error: " << e.what() << "\n";
    return 1;
  }
}
