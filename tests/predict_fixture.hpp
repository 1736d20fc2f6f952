#pragma once

// Labeled ground-truth corpus for the prediction subsystem: a hand-built
// event stream whose precursor -> FATAL chains (and their counts) are known
// by construction, so the expected rule set can be written down instead of
// re-derived from the miner under test. Shared by the miner unit tests and
// the predictor end-to-end tests in test_predict.cpp.
//
// The timeline uses six fatal codes A..F (the catalog's first six fatal
// ids) in 3-hour slots, so with the fixture's 1-hour mining window every
// chain instance is isolated from its neighbors:
//
//   slots  0..7   A @ mp3   then B @ mp3  10 min later   (the midplane rule)
//   slots  8..9   A @ mp3   then D @ mp3  30 min later   (below min_support)
//   slots  0..5   C @ mp10  then D @ mp50 20 min later, offset +90 min
//                                                        (the machine rule)
//   slots 10..19  F @ mp20; in the first 4, D @ mp60 40 min later
//                                                        (fails confidence)
//   slots 20..24  E @ mp70 alone                          (pure noise)
//
// Occurrence counts: A=10, B=8, C=6, D=12, E=5, F=10. The only pairs that
// clear support >= 3 AND their scope's confidence floor are:
//   A -> B  same-midplane  support 8 / 10  (0.80 >= 0.35 midplane floor)
//   C -> D  machine-wide   support 6 / 6   (1.00 >= 0.70 machine floor)
// A -> D has support 2 (< 3); F -> D has machine confidence 0.40 (< 0.70,
// and never same-midplane, so the lower midplane floor never applies).

#include <algorithm>
#include <vector>

#include "coral/bgp/location.hpp"
#include "coral/core/characterization.hpp"
#include "coral/core/identification.hpp"
#include "coral/predict/miner.hpp"
#include "coral/predict/rules.hpp"
#include "coral/ras/catalog.hpp"
#include "coral/ras/log.hpp"

namespace coral::testing {

/// The six fixture codes, resolved against a catalog.
struct ChainCodes {
  ras::ErrcodeId a, b, c, d, e, f;
};

inline ChainCodes chain_codes(const ras::Catalog& cat = ras::default_catalog()) {
  const auto ids = cat.fatal_ids();
  return {ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]};
}

/// Mining thresholds the expected rule set is computed for.
inline predict::MinerConfig chain_miner_config() {
  predict::MinerConfig config;
  config.window = kUsecPerHour;
  config.min_support = 3;
  config.min_confidence = 0.7;
  config.min_confidence_mid = 0.35;
  return config;
}

namespace detail {

struct ChainEvent {
  TimePoint time;
  ras::ErrcodeId code;
  int midplane;
};

inline std::vector<ChainEvent> chain_events(const ras::Catalog& cat) {
  const ChainCodes codes = chain_codes(cat);
  const TimePoint base = TimePoint::from_calendar(2009, 1, 5);
  const auto slot = [&](int k) { return base + static_cast<Usec>(k) * 3 * kUsecPerHour; };
  std::vector<ChainEvent> ev;
  for (int k = 0; k < 8; ++k) {
    ev.push_back({slot(k), codes.a, 3});
    ev.push_back({slot(k) + 10 * kUsecPerMin, codes.b, 3});
  }
  for (int k = 8; k < 10; ++k) {
    ev.push_back({slot(k), codes.a, 3});
    ev.push_back({slot(k) + 30 * kUsecPerMin, codes.d, 3});
  }
  for (int k = 0; k < 6; ++k) {
    ev.push_back({slot(k) + 90 * kUsecPerMin, codes.c, 10});
    ev.push_back({slot(k) + 110 * kUsecPerMin, codes.d, 50});
  }
  for (int k = 10; k < 20; ++k) {
    ev.push_back({slot(k), codes.f, 20});
    if (k < 14) ev.push_back({slot(k) + 40 * kUsecPerMin, codes.d, 60});
  }
  for (int k = 20; k < 25; ++k) ev.push_back({slot(k), codes.e, 70});
  std::sort(ev.begin(), ev.end(),
            [](const ChainEvent& x, const ChainEvent& y) { return x.time < y.time; });
  return ev;
}

}  // namespace detail

/// The corpus as hand-built filtered-group columns (what the miner walks).
inline core::CharColumns chain_columns(const ras::Catalog& cat = ras::default_catalog()) {
  core::CharColumns cols;
  for (const auto& ev : detail::chain_events(cat)) {
    cols.group_time.push_back(ev.time);
    cols.group_code.push_back(ev.code);
    cols.group_loc.push_back(bgp::Location::midplane(ev.midplane).packed());
  }
  return cols;
}

/// The corpus as a finalized RAS log (for predictor replay / session feeds).
inline ras::RasLog chain_ras_log(const ras::Catalog& cat = ras::default_catalog()) {
  ras::RasEventArray events;
  std::uint32_t serial = 0;
  for (const auto& ev : detail::chain_events(cat)) {
    ras::RasEvent e;
    e.event_time = ev.time;
    e.location = bgp::Location::midplane(ev.midplane);
    e.errcode = ev.code;
    e.severity = ras::Severity::Fatal;
    e.serial = serial++;
    events.push_back(e);
  }
  return ras::RasLog(std::move(events), cat);
}

/// Identification verdicts labeling the two chain targets (B, D) as
/// interruption-related — what restrict_targets keys on.
inline core::IdentificationResult chain_identification(
    const ras::Catalog& cat = ras::default_catalog()) {
  const ChainCodes codes = chain_codes(cat);
  core::IdentificationResult id;
  id.verdicts[codes.b] = core::ErrcodeVerdict::InterruptionRelated;
  id.verdicts[codes.d] = core::ErrcodeVerdict::InterruptionRelated;
  id.verdicts[codes.e] = core::ErrcodeVerdict::NonFatalToJobs;
  return id;
}

/// The rule set the miner must recover from the corpus, in the miner's
/// deterministic (precursor, target) order.
inline predict::RuleTable chain_expected_rules(
    const ras::Catalog& cat = ras::default_catalog()) {
  const ChainCodes codes = chain_codes(cat);
  predict::RuleTable table;
  table.rules.push_back({codes.a, codes.b, predict::RuleScope::Midplane, kUsecPerHour,
                         /*support=*/8, /*precursor_count=*/10});
  table.rules.push_back({codes.c, codes.d, predict::RuleScope::Machine, kUsecPerHour,
                         /*support=*/6, /*precursor_count=*/6});
  return table;
}

/// Predictor truth for chain_ras_log under chain_expected_rules: every A
/// fires the midplane rule (10 alarms at mp3), every C the machine rule
/// (6 alarms); 8 of the A-alarms are hit by B, all 6 C-alarms by D.
struct ChainPredictorTruth {
  std::size_t issued = 16;
  std::size_t hits = 14;
  std::size_t suppressed = 0;
  std::size_t midplane_alarms = 10;  ///< at midplane 3
};

}  // namespace coral::testing
