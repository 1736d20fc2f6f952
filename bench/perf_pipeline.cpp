// End-to-end co-analysis benchmark on the full-scale Intrepid scenario:
// binary ingest -> filter -> match -> full methodology report, timed as one
// unit — the headline figure for the columnar hot path. Ingest reads from an
// in-memory image of the binary v2 logs, so the numbers measure decode and
// analysis, not disk.
#include <benchmark/benchmark.h>

#include <sstream>

#include "coral/common/parallel.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::intrepid_scenario(42));
  return result;
}

const std::string& ras_bytes() {
  static const std::string bytes = [] {
    std::ostringstream out;
    ras::write_binary(out, data().ras);
    return out.str();
  }();
  return bytes;
}

const std::string& job_bytes() {
  static const std::string bytes = [] {
    std::ostringstream out;
    joblog::write_binary(out, data().jobs);
    return out.str();
  }();
  return bytes;
}

// --- Characterization-stage microbenchmarks -----------------------------
// The four stages downstream of matching, timed on the shared columnar
// inputs the pipeline passes them (CharColumns built once, like
// complete_coanalysis does), plus the column build itself. All run
// single-threaded so the numbers track the kernels, not the pool.

const filter::FilterPipelineResult& filtered() {
  static const filter::FilterPipelineResult result =
      filter::run_filter_pipeline(data().ras, {});
  return result;
}

const core::MatchResult& matches() {
  static const core::MatchResult result =
      core::match_interruptions(filtered(), data().jobs, {});
  return result;
}

const core::IdentificationResult& identification() {
  static const core::IdentificationResult result =
      core::identify_interruption_related(filtered(), matches(), data().jobs, {});
  return result;
}

const core::CharColumns& char_columns() {
  static const core::CharColumns result =
      core::build_char_columns(filtered(), matches(), data().jobs);
  return result;
}

const core::ClassificationResult& classification() {
  static const core::ClassificationResult result = core::classify_causes(
      filtered(), matches(), identification(), data().jobs, char_columns());
  return result;
}

void BM_CharColumns(benchmark::State& state) {
  (void)matches();
  for (auto _ : state) {
    const core::CharColumns cols =
        core::build_char_columns(filtered(), matches(), data().jobs);
    benchmark::DoNotOptimize(cols.chain_job.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().jobs.size()));
}
BENCHMARK(BM_CharColumns)->Unit(benchmark::kMillisecond);

void BM_Classification(benchmark::State& state) {
  (void)identification();
  (void)char_columns();
  for (auto _ : state) {
    const core::ClassificationResult result = core::classify_causes(
        filtered(), matches(), identification(), data().jobs, char_columns());
    benchmark::DoNotOptimize(result.by_code.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(identification().verdicts.size()));
}
BENCHMARK(BM_Classification)->Unit(benchmark::kMillisecond);

void BM_JobFilter(benchmark::State& state) {
  (void)classification();
  for (auto _ : state) {
    const core::JobFilterResult result = core::job_related_filter(
        filtered(), matches(), classification(), data().jobs, char_columns());
    benchmark::DoNotOptimize(result.kept.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(filtered().groups.size()));
}
BENCHMARK(BM_JobFilter)->Unit(benchmark::kMillisecond);

void BM_Propagation(benchmark::State& state) {
  (void)char_columns();
  for (auto _ : state) {
    const core::PropagationResult result =
        core::analyze_propagation(filtered(), matches(), data().jobs, char_columns());
    benchmark::DoNotOptimize(result.propagating_groups.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(matches().interruptions.size()));
}
BENCHMARK(BM_Propagation)->Unit(benchmark::kMillisecond);

void BM_Vulnerability(benchmark::State& state) {
  (void)classification();
  for (auto _ : state) {
    const core::VulnerabilityResult result = core::analyze_vulnerability(
        filtered(), matches(), classification(), data().jobs, char_columns());
    benchmark::DoNotOptimize(result.grid.total.total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().jobs.size()));
}
BENCHMARK(BM_Vulnerability)->Unit(benchmark::kMillisecond);

void BM_EndToEndCoAnalysis(benchmark::State& state) {
  (void)ras_bytes();
  (void)job_bytes();
  par::ThreadPool pool;
  const Context ctx = Context{}.with_pool(&pool);
  std::size_t interruptions = 0;
  for (auto _ : state) {
    std::istringstream ras_in(ras_bytes());
    const ras::RasLog ras =
        ras::read_binary(ras_in, ras::default_catalog(), {.pool = &pool});
    std::istringstream job_in(job_bytes());
    const joblog::JobLog jobs = joblog::read_binary(job_in);
    const core::CoAnalysisResult result = core::run_coanalysis(ras, jobs, {}, ctx);
    interruptions = result.interruption_count();
    benchmark::DoNotOptimize(result.matches.interruptions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
  state.counters["interruptions"] = static_cast<double>(interruptions);
}
BENCHMARK(BM_EndToEndCoAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace
