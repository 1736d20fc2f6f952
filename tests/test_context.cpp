// coral::Context: explicit catalog / pool / sink / seed handles replacing
// the old process-global state. Covers heterogeneous catalog lookup, a
// three-errcode toy catalog driving the generator + analysis end to end,
// two concurrent analyses over distinct catalogs, stage instrumentation,
// the seed policy, and the deprecated CoAnalysisConfig::pool compatibility
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>

#include "coral/context.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/obs/obs.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral {
namespace {

using core::Cause;
using core::ErrcodeVerdict;

// ---- toy machine: three FATAL errcodes, no background codes --------------

ras::Catalog toy_catalog() {
  using bgp::LocationKind;
  using ras::Component;
  using ras::FaultNature;
  using ras::JobImpact;
  using ras::Severity;
  std::vector<ras::ErrcodeInfo> entries;
  // Midplane-granularity locations: repeated hits on one midplane are the
  // rule-2 (same-location) signature the classifier keys on.
  entries.push_back({"toy_sys_fatal", "TOY_0001", Component::Kernel, "toy",
                     Severity::Fatal, FaultNature::SystemFailure, JobImpact::Interrupting,
                     /*propagates=*/false, /*persistent=*/false, /*idle_bias=*/false,
                     LocationKind::Midplane, 3.0, "toy system failure"});
  entries.push_back({"toy_app_fatal", "TOY_0002", Component::Kernel, "toy",
                     Severity::Fatal, FaultNature::ApplicationError, JobImpact::Interrupting,
                     false, false, false, LocationKind::ComputeCard, 2.0,
                     "toy application error"});
  entries.push_back({"toy_benign_fatal", "TOY_0003", Component::Mmcs, "toy",
                     Severity::Fatal, FaultNature::SystemFailure, JobImpact::Benign,
                     false, false, false, LocationKind::Midplane, 1.0,
                     "toy benign fatal"});
  return ras::Catalog(std::move(entries));
}

synth::ScenarioConfig toy_scenario(std::uint64_t seed) {
  synth::ScenarioConfig config = synth::small_scenario(seed, 30);
  config.noise.enabled = false;  // the toy catalog has no non-fatal codes
  // Boost the rates so 30 days yield enough observations of every code for
  // the identification and classification rules to reach verdicts.
  config.faults.interrupting_rate_per_day = 2.0;
  config.faults.benign_rate_per_day = 2.5;
  config.faults.persistent_rate_per_day = 0.0;
  config.faults.idle_rate_per_day = 0.0;
  config.workload.buggy_app_prob = 0.05;
  // Short campaigns: a popular app's routine submissions being killed twice
  // in quick succession by independent system faults would mimic the Fig.-2
  // resubmission pattern.
  config.workload.multi_submit_prob = 0.25;
  config.workload.extra_submits_mean = 2.0;
  // With a single interrupting system code, a resubmitted job re-killed by
  // the *next* system fault reproduces the follows-the-executable pattern
  // by construction (on Intrepid, 72 system codes make a same-code re-kill
  // vanishingly rare). Toy users simply do not resubmit after system
  // failures, so that signature stays exclusive to the buggy app.
  config.resubmit.prob_after_system = 0.0;
  return config;
}

const synth::SynthResult& intrepid_data() {
  static const synth::SynthResult result = synth::generate(synth::small_scenario(51, 21));
  return result;
}

// Field-wise comparison of two analysis runs (byte-identity contract).
void expect_same(const core::CoAnalysisResult& a, const core::CoAnalysisResult& b) {
  ASSERT_EQ(a.filtered.groups.size(), b.filtered.groups.size());
  for (std::size_t i = 0; i < a.filtered.groups.size(); ++i) {
    EXPECT_EQ(a.filtered.groups[i].rep, b.filtered.groups[i].rep) << "group " << i;
    EXPECT_EQ(a.filtered.groups[i].members, b.filtered.groups[i].members) << "group " << i;
  }
  ASSERT_EQ(a.matches.interruptions.size(), b.matches.interruptions.size());
  for (std::size_t i = 0; i < a.matches.interruptions.size(); ++i) {
    EXPECT_EQ(a.matches.interruptions[i].group, b.matches.interruptions[i].group);
    EXPECT_EQ(a.matches.interruptions[i].job, b.matches.interruptions[i].job);
    EXPECT_EQ(a.matches.interruptions[i].time, b.matches.interruptions[i].time);
  }
  EXPECT_EQ(a.identification.verdicts, b.identification.verdicts);
  EXPECT_EQ(a.classification.system_type_count(), b.classification.system_type_count());
  EXPECT_EQ(a.classification.application_type_count(),
            b.classification.application_type_count());
  EXPECT_EQ(a.job_filter.kept, b.job_filter.kept);
  EXPECT_EQ(a.system_interruptions, b.system_interruptions);
  EXPECT_EQ(a.application_interruptions, b.application_interruptions);
}

// ---- Catalog::find ------------------------------------------------------

TEST(CatalogFind, HeterogeneousLookupFindsEveryEntry) {
  const ras::Catalog& catalog = ras::default_catalog();
  for (const ras::ErrcodeInfo& info : catalog.all()) {
    const std::string_view sv = info.name;  // no std::string construction
    const auto id = catalog.find(sv);
    ASSERT_TRUE(id.has_value()) << info.name;
    EXPECT_EQ(catalog.info(*id).name, info.name);
  }
  EXPECT_FALSE(catalog.find("no_such_errcode").has_value());
  EXPECT_FALSE(catalog.find(std::string_view{}).has_value());
}

TEST(CatalogFind, CustomCatalogLookup) {
  const ras::Catalog toy = toy_catalog();
  EXPECT_EQ(toy.size(), 3u);
  EXPECT_EQ(toy.fatal_count(), 3);
  EXPECT_TRUE(toy.nonfatal_ids().empty());
  const auto id = toy.find(std::string_view("toy_app_fatal"));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(toy.info(*id).nature, ras::FaultNature::ApplicationError);
  EXPECT_FALSE(toy.find(ras::codes::kBulkPowerFatal).has_value());
}

// ---- toy catalog end to end ---------------------------------------------

TEST(ContextToyCatalog, GeneratorAndAnalysisRediscoverGroundTruth) {
  const ras::Catalog toy = toy_catalog();
  const Context ctx(toy);
  const synth::SynthResult data = synth::generate(toy_scenario(11), ctx);

  ASSERT_GT(data.ras.size(), 0u);
  EXPECT_EQ(&data.ras.catalog(), &toy);
  for (const ras::RasEvent& ev : data.ras) {
    ASSERT_GE(ev.errcode, 0);
    ASSERT_LT(ev.errcode, 3);
    EXPECT_EQ(ev.severity, ras::Severity::Fatal);  // no non-fatal codes exist
  }
  ASSERT_GT(data.truth.interruptions.size(), 0u);

  // One system code means every coincidental re-kill of a campaign app is
  // a same-code re-kill (Intrepid's 72 system codes dilute that); the
  // follows-the-executable guard has to be correspondingly stiffer. The
  // buggy app clears it by an order of magnitude.
  core::CoAnalysisConfig analysis;
  analysis.classification.min_follow_evidence = 8;
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs, analysis, ctx);
  ASSERT_GT(r.interruption_count(), 0u);

  const auto sys = *toy.find("toy_sys_fatal");
  const auto app = *toy.find("toy_app_fatal");
  const auto benign = *toy.find("toy_benign_fatal");

  // Identification (§IV-A) rediscovers the impact labels from the logs.
  ASSERT_TRUE(r.identification.verdicts.count(sys));
  EXPECT_EQ(r.identification.verdicts.at(sys), ErrcodeVerdict::InterruptionRelated);
  ASSERT_TRUE(r.identification.verdicts.count(app));
  EXPECT_EQ(r.identification.verdicts.at(app), ErrcodeVerdict::InterruptionRelated);
  ASSERT_TRUE(r.identification.verdicts.count(benign));
  EXPECT_EQ(r.identification.verdicts.at(benign), ErrcodeVerdict::NonFatalToJobs);

  // Classification (§IV-B) rediscovers the cause labels.
  ASSERT_TRUE(r.classification.by_code.count(sys));
  EXPECT_EQ(r.classification.cause_of(sys), Cause::SystemFailure);
  ASSERT_TRUE(r.classification.by_code.count(app));
  EXPECT_EQ(r.classification.cause_of(app), Cause::ApplicationError);
}

// ---- concurrent multi-catalog analyses ----------------------------------

TEST(ContextConcurrency, TwoCatalogsOnSeparateThreadsMatchSequentialRuns) {
  const ras::Catalog toy = toy_catalog();

  // Sequential reference runs.
  const synth::SynthResult seq_intrepid = synth::generate(synth::small_scenario(51, 21));
  const auto seq_intrepid_r =
      core::run_coanalysis(seq_intrepid.ras, seq_intrepid.jobs);
  const synth::SynthResult seq_toy = synth::generate(toy_scenario(11), Context(toy));
  const auto seq_toy_r = core::run_coanalysis(seq_toy.ras, seq_toy.jobs);

  // The same generation + analysis, concurrently, each thread on its own
  // context (distinct catalog, own pool).
  core::CoAnalysisResult conc_intrepid_r, conc_toy_r;
  std::size_t conc_intrepid_ras = 0, conc_toy_ras = 0;
  std::thread intrepid_thread([&] {
    par::ThreadPool pool(2);
    const Context ctx = Context().with_pool(&pool);
    const synth::SynthResult data = synth::generate(synth::small_scenario(51, 21), ctx);
    conc_intrepid_ras = data.ras.size();
    conc_intrepid_r = core::run_coanalysis(data.ras, data.jobs, {}, ctx);
  });
  std::thread toy_thread([&] {
    par::ThreadPool pool(2);
    const Context ctx = Context(toy).with_pool(&pool);
    const synth::SynthResult data = synth::generate(toy_scenario(11), ctx);
    conc_toy_ras = data.ras.size();
    conc_toy_r = core::run_coanalysis(data.ras, data.jobs, {}, ctx);
  });
  intrepid_thread.join();
  toy_thread.join();

  EXPECT_EQ(conc_intrepid_ras, seq_intrepid.ras.size());
  EXPECT_EQ(conc_toy_ras, seq_toy.ras.size());
  expect_same(seq_intrepid_r, conc_intrepid_r);
  expect_same(seq_toy_r, conc_toy_r);
}

// ---- instrumentation ----------------------------------------------------

TEST(ContextInstrumentation, SinkRecordsStagesWithoutChangingResults) {
  const synth::SynthResult& data = intrepid_data();
  const auto plain = core::run_coanalysis(data.ras, data.jobs, {});

  obs::Collector collector;
  const auto instrumented =
      core::run_coanalysis(data.ras, data.jobs, {}, Context().with_obs(&collector));
  expect_same(plain, instrumented);

  const obs::Snapshot snap = collector.snapshot();
  const auto stage = [&snap](std::string_view name) -> const obs::SpanRecord* {
    const auto it = std::find_if(snap.spans.begin(), snap.spans.end(),
                                 [name](const obs::SpanRecord& s) { return s.name == name; });
    return it == snap.spans.end() ? nullptr : &*it;
  };
  // The filter and match stages, then the characterization back half.
  for (const char* name : {"filter.batch", "matching", "identification", "char.columns",
                           "classification", "job_filter", "propagation",
                           "vulnerability"}) {
    EXPECT_NE(stage(name), nullptr) << name;
  }
  const obs::SpanRecord* filter = stage("filter.batch");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->in, data.ras.size());
  EXPECT_EQ(filter->out, instrumented.filtered.groups.size());
  const obs::SpanRecord* matching = stage("matching");
  ASSERT_NE(matching, nullptr);
  EXPECT_EQ(matching->in, instrumented.filtered.groups.size());
  EXPECT_EQ(matching->out, instrumented.matches.interruptions.size());

  const std::string json = obs::snapshot_json(snap);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"name\": \"filter.batch\""), std::string::npos);
  EXPECT_GE(snap.total_ms("filter.batch"), 0.0);
}

// ---- seed policy --------------------------------------------------------

TEST(ContextSeed, DefaultSeedReproducesPlainGeneration) {
  const auto base = synth::generate(synth::small_scenario(51, 7));
  const auto via_ctx = synth::generate(synth::small_scenario(51, 7), Context());
  ASSERT_EQ(base.ras.size(), via_ctx.ras.size());
  for (std::size_t i = 0; i < base.ras.size(); ++i) {
    ASSERT_EQ(base.ras[i].event_time, via_ctx.ras[i].event_time);
    ASSERT_EQ(base.ras[i].errcode, via_ctx.ras[i].errcode);
    ASSERT_EQ(base.ras[i].serial, via_ctx.ras[i].serial);
  }
}

TEST(ContextSeed, SeedOffsetDecorrelatesGeneration) {
  const auto base = synth::generate(synth::small_scenario(51, 7));
  const auto shifted = synth::generate(synth::small_scenario(51, 7), Context().with_seed(99));
  bool differs = base.ras.size() != shifted.ras.size();
  for (std::size_t i = 0; !differs && i < base.ras.size(); ++i) {
    differs = base.ras[i].event_time != shifted.ras[i].event_time ||
              base.ras[i].serial != shifted.ras[i].serial;
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(Context().with_seed(99).derive_seed(51), 51u ^ 99u);
  EXPECT_EQ(Context().derive_seed(51), 51u);
}

// ---- pool via Context ----------------------------------------------------

TEST(ContextPool, ContextPoolMatchesSerial) {
  const synth::SynthResult& data = intrepid_data();
  const auto serial = core::run_coanalysis(data.ras, data.jobs);

  par::ThreadPool pool(2);
  const auto via_ctx =
      core::run_coanalysis(data.ras, data.jobs, {}, Context().with_pool(&pool));
  expect_same(serial, via_ctx);
}

}  // namespace
}  // namespace coral
