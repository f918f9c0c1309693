// ngs-simulate — generate a synthetic genome and an Illumina-like run,
// writing genome FASTA, reads FASTQ, and a truth TSV (read id, position,
// strand, error-free bases) for downstream evaluation.
//
//   ngs-simulate --genome-length 100000 --coverage 60 --error-rate 0.01
//                --reads out.fastq --genome genome.fasta --truth truth.tsv

#include <fstream>
#include <iostream>

#include "io/fastx.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/cli.hpp"

using namespace ngs;

int main(int argc, char** argv) {
  util::CliParser cli("ngs-simulate",
                      "simulate a genome and an Illumina-like read set");
  cli.add_option("genome-length", "genome length in bp", true, "100000");
  cli.add_option("repeat-length", "repeat unit length (0 = no repeats)",
                 true, "0");
  cli.add_option("repeat-copies", "repeat copy count", true, "0");
  cli.add_option("read-length", "read length in bp", true, "36");
  cli.add_option("coverage", "genome coverage", true, "60");
  cli.add_option("error-rate", "average substitution error rate", true,
                 "0.01");
  cli.add_option("ambiguous-rate", "per-base N injection rate", true, "0");
  cli.add_option("seed", "RNG seed", true, "42");
  cli.add_option("reads", "output FASTQ path", true, "reads.fastq");
  cli.add_option("genome", "output genome FASTA path", true, "genome.fasta");
  cli.add_option("truth", "output truth TSV path (empty = skip)", true, "");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }

  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 42)));
  sim::GenomeSpec gspec;
  gspec.length = static_cast<std::size_t>(cli.get_int("genome-length", 100000));
  const auto rep_len = static_cast<std::size_t>(cli.get_int("repeat-length", 0));
  const auto rep_n = static_cast<std::size_t>(cli.get_int("repeat-copies", 0));
  if (rep_len > 0 && rep_n > 0) {
    gspec.repeats = {{rep_len, rep_n, 0.0}};
  }
  const auto genome = sim::simulate_genome(gspec, rng);

  const auto read_length =
      static_cast<std::size_t>(cli.get_int("read-length", 36));
  const auto model =
      sim::ErrorModel::illumina(read_length, cli.get_double("error-rate", 0.01));
  sim::ReadSimConfig cfg;
  cfg.read_length = read_length;
  cfg.coverage = cli.get_double("coverage", 60.0);
  cfg.ambiguous_rate = cli.get_double("ambiguous-rate", 0.0);
  const auto run = sim::simulate_reads(genome.sequence, model, cfg, rng);

  seq::ReadSet genome_set;
  genome_set.reads.push_back({"genome", genome.sequence, {}});
  io::write_fasta_file(cli.get("genome"), genome_set);
  io::write_fastq_file(cli.get("reads"), run.reads);

  if (!cli.get("truth").empty()) {
    std::ofstream truth(cli.get("truth"));
    truth << "read\tposition\tstrand\ttrue_bases\n";
    for (std::size_t i = 0; i < run.reads.size(); ++i) {
      const auto& t = run.reads.truth[i];
      truth << run.reads.reads[i].id << '\t' << t.genome_pos << '\t'
            << (t.reverse_strand ? '-' : '+') << '\t' << t.true_bases
            << '\n';
    }
  }

  std::cerr << "wrote " << run.reads.size() << " reads ("
            << run.substitution_errors << " erroneous bases, "
            << (genome.repeat_fraction * 100) << "% repeat span)\n";
  return 0;
}
