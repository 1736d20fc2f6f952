// Machines x scenarios matrix over the pluggable MachineModel layer: every
// registered machine (bgp, bgq) runs every calibrated scenario pack (plus
// the unmodified base calibration) through the co-analysis.
//
// Self-main rather than google-benchmark: the matrix is the product, not a
// flat bench list, and the same binary doubles as the CI smoke runner.
//
//   $ ./perf_scenarios [--smoke] [seed] [days] [reps]
//
// Default mode measures each cell (best-of-`reps` wall clock, generation
// excluded) and emits one JSON object on stdout. --smoke runs one fast
// config per cell (short horizon, single rep), checks the result is sane,
// and prints a pass/fail line per cell — this is the tier-1-budget scenario
// smoke stage wired into scripts/ci.sh.
//
// Every cell overrides the pack's own horizon (multi_year_drift declares
// 730 days) with the matrix horizon, so cells are comparable and the smoke
// stage stays fast; the drift knob still acts, just over a shorter window.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "coral/core/pipeline.hpp"
#include "coral/machine/model.hpp"
#include "coral/synth/packs.hpp"

namespace {

using namespace coral;

struct Cell {
  std::string machine;
  std::string scenario;
  double seconds = 0;
  std::size_t ras_records = 0;
  std::size_t jobs = 0;
  std::size_t groups = 0;
  std::size_t interruptions = 0;
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

// A smoke cell must look like a real co-analysis, not just not-crash: the
// generator produced a log pair, filtering compressed it into groups, and
// the result is dimensioned for the machine that produced it.
bool sane(const Cell& cell, const core::CoAnalysisResult& r,
          const machine::MachineModel& machine) {
  if (cell.ras_records == 0 || cell.jobs == 0 || cell.groups == 0) return false;
  if (&r.machine() != &machine) return false;
  return r.fatal_events_per_midplane.size() ==
         static_cast<std::size_t>(machine.midplane_count());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  const auto seed = static_cast<std::uint64_t>(pos.size() > 0 ? std::atoll(pos[0]) : 42);
  const int days = pos.size() > 1 ? std::atoi(pos[1]) : (smoke ? 7 : 14);
  const int reps = smoke ? 1 : (pos.size() > 2 ? std::atoi(pos[2]) : 3);

  std::vector<std::string> scenarios = {"base"};
  for (const auto& pack : synth::scenario_packs()) scenarios.emplace_back(pack.name);

  std::vector<Cell> cells;
  bool ok = true;
  for (const machine::MachineModel* machine : machine::all_models()) {
    for (const std::string& scenario : scenarios) {
      synth::ScenarioConfig config =
          scenario == "base" ? synth::base_scenario(*machine, seed, days)
                             : synth::pack_scenario(*machine, scenario, seed, days);
      config.days = days;  // comparable cells; see header comment
      const synth::SynthResult data = synth::generate(config);
      Cell cell;
      cell.machine = std::string(machine->name());
      cell.scenario = scenario;
      cell.ras_records = data.ras.size();
      cell.jobs = data.jobs.size();
      core::CoAnalysisResult result;
      cell.seconds =
          best_seconds([&] { result = core::run_coanalysis(data.ras, data.jobs); }, reps);
      cell.groups = result.filtered.groups.size();
      cell.interruptions = result.matches.interruptions.size();
      if (smoke) {
        const bool pass = sane(cell, result, *machine);
        ok = ok && pass;
        std::printf("[%s] %s/%s: ras=%zu jobs=%zu groups=%zu intr=%zu (%.0f ms)\n",
                    pass ? "ok" : "FAIL", cell.machine.c_str(), cell.scenario.c_str(),
                    cell.ras_records, cell.jobs, cell.groups, cell.interruptions,
                    cell.seconds * 1e3);
      }
      cells.push_back(std::move(cell));
    }
  }

  if (smoke) {
    std::printf("%zu scenario-matrix cells %s\n", cells.size(),
                ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }

  std::printf("{\n  \"seed\": %llu,\n  \"days\": %d,\n  \"cells\": [\n",
              static_cast<unsigned long long>(seed), days);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::printf("    {\"machine\": \"%s\", \"scenario\": \"%s\", "
                "\"seconds\": %.6f, \"ras_records\": %zu, \"jobs\": %zu, "
                "\"groups\": %zu, \"interruptions\": %zu}%s\n",
                c.machine.c_str(), c.scenario.c_str(), c.seconds,
                c.ras_records, c.jobs, c.groups, c.interruptions,
                i + 1 < cells.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
