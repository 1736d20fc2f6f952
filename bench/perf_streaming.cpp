// Throughput and peak RSS of the co-analysis on a full-scale (~2M-record)
// Intrepid log pair: a "batch" mode that times the filter + match passes
// alone, and a "full" mode that runs the entire co-analysis (filter, match
// and characterization stages) under obs so the per-stage breakdown lands
// in the trajectory file.
//
// Self-main rather than google-benchmark: each mode's peak RSS is measured
// in a forked child (copy-on-write shares the generated logs) so the modes
// cannot pollute each other's high-water mark, and wall-clock throughput is
// best-of-R in the parent. Emits one JSON object on stdout.
//
//   $ ./perf_streaming [seed] [reps]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "coral/common/parallel.hpp"
#include "coral/context.hpp"
#include "coral/obs/obs.hpp"
#include "coral/core/matching.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

struct ModeResult {
  std::string name;
  double seconds = 0;
  long peak_rss_kb = 0;
  std::size_t interruptions = 0;
  std::string obs_json = "{}";  ///< obs snapshot (spans/counters/histograms)
                                ///< from the last RSS rep
};

template <typename Fn>
double best_seconds(Fn&& fn, int reps) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// Peak RSS (KiB) of one run of `fn`, in a forked child. The logs are shared
// copy-on-write, so the child's ru_maxrss is the shared baseline plus what
// the mode itself allocates — a like-for-like comparison across modes.
template <typename Fn>
long forked_peak_rss_kb(Fn&& fn) {
  const pid_t pid = fork();
  if (pid == 0) {
    fn();
    _exit(0);
  }
  if (pid < 0) return -1;
  int status = 0;
  struct rusage ru{};
  if (wait4(pid, &status, 0, &ru) < 0) return -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 3;

  std::fprintf(stderr, "generating full Intrepid scenario (seed %llu)...\n",
               static_cast<unsigned long long>(seed));
  const synth::SynthResult data = synth::generate(synth::intrepid_scenario(seed));
  const std::size_t records = data.ras.size() + 2 * data.jobs.size();

  // CORAL_THREADS or the hardware. Only used to report the size below: the
  // full mode constructs its own pool *inside* the measured function, so
  // the forked RSS child owns live worker threads (a pool created before
  // fork() would leave the child waiting on workers that only exist in the
  // parent).
  const std::size_t pool_threads =
      par::ThreadPool(par::configured_thread_count()).thread_count();

  std::vector<ModeResult> modes;

  {
    ModeResult m;
    m.name = "batch";
    // The timed reps run with a null collector (the zero-overhead
    // configuration being measured); a separate instrumented rep feeds the
    // obs snapshot into BENCH_streaming.json.
    const auto run = [&data, &m](obs::Collector* obs) {
      filter::FilterPipelineConfig fc;
      fc.obs = obs;
      const auto filtered = filter::run_filter_pipeline(data.ras, fc);
      core::MatchConfig mc;
      mc.obs = obs;
      const auto matches = core::match_interruptions(filtered, data.jobs, mc);
      m.interruptions = matches.interruptions.size();
    };
    m.seconds = best_seconds([&run] { run(nullptr); }, reps);
    m.peak_rss_kb = forked_peak_rss_kb([&run] { run(nullptr); });
    obs::Collector collector;
    run(&collector);
    m.obs_json = obs::snapshot_json(collector.snapshot());
    modes.push_back(m);
  }

  {
    // Whole-pipeline mode: filter and match plus every downstream
    // characterization stage (identification, columns, classification, job
    // filter, propagation, vulnerability). Its obs snapshot is what puts the
    // per-stage characterization breakdown into the trajectory file —
    // BM_FullCoAnalysis gates the total, this records the split.
    ModeResult m;
    m.name = "full";
    const auto run = [&data, &m](obs::Collector* obs) {
      par::ThreadPool pool(par::configured_thread_count());
      if (obs != nullptr) pool.set_obs(obs);
      Context ctx = Context().with_pool(&pool);
      if (obs != nullptr) ctx.with_obs(obs);
      const core::CoAnalysisResult result =
          core::run_coanalysis(data.ras, data.jobs, {}, ctx);
      m.interruptions = result.matches.interruptions.size();
    };
    m.seconds = best_seconds([&run] { run(nullptr); }, reps);
    m.peak_rss_kb = forked_peak_rss_kb([&run] { run(nullptr); });
    obs::Collector collector;
    run(&collector);
    m.obs_json = obs::snapshot_json(collector.snapshot());
    modes.push_back(m);
  }

  std::printf("{\n");
  std::printf("  \"records\": %zu,\n", records);
  std::printf("  \"ras_records\": %zu,\n", data.ras.size());
  std::printf("  \"fatal_records\": %zu,\n", data.ras.summary().fatal_records);
  std::printf("  \"jobs\": %zu,\n", data.jobs.size());
  std::printf("  \"pool_threads\": %zu,\n", pool_threads);
  std::printf("  \"modes\": [\n");
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    std::printf("    {\"name\": \"%s\", \"seconds\": %.6f, \"records_per_sec\": %.0f, "
                "\"peak_rss_kb\": %ld, \"interruptions\": %zu}%s\n",
                m.name.c_str(), m.seconds, static_cast<double>(records) / m.seconds,
                m.peak_rss_kb, m.interruptions, i + 1 < modes.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");

  // Machine-readable obs snapshots (spans + counters + histograms) for CI
  // trend tracking; one object per mode, from a dedicated instrumented rep.
  {
    std::ofstream out("BENCH_streaming.json");
    out << "{\n  \"bench\": \"perf_streaming\",\n  \"records\": " << records
        << ",\n  \"modes\": [\n";
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const ModeResult& m = modes[i];
      out << "    {\"name\": \"" << m.name << "\", \"seconds\": " << m.seconds
          << ", \"obs\": " << m.obs_json << "}"
          << (i + 1 < modes.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "obs snapshots written to BENCH_streaming.json\n");
  }

  // Both modes must find the same interruptions.
  for (const ModeResult& m : modes) {
    if (m.interruptions != modes[0].interruptions) {
      std::fprintf(stderr, "MISMATCH: %s found %zu interruptions vs batch %zu\n",
                   m.name.c_str(), m.interruptions, modes[0].interruptions);
      return 1;
    }
  }
  return 0;
}
