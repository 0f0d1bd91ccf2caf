// Runs the library's own churn soak (run_churn_soak) with the settings of
// the soak_churn_observed workload and prints its verdict as one JSON
// object, under the outcome names perfbench_workload uses. The benchmark's
// tests compare the two, so the benchmark's step-by-step soak is known to
// be the library's soak. Its seed is the library default, the one the
// workload pins.
//
//   perfbench_soak_reference

#include <cstdio>

#include "harness/soak.hpp"

int main() {
  telea::ChurnSoakConfig cfg;
  cfg.health = true;
  cfg.timeline = true;
  const telea::ChurnSoakResult r = telea::run_churn_soak(cfg);
  std::printf(
      "{\"commands\":%u,\"delivered\":%u,\"gave_up\":%u,\"no_code\":%u,"
      "\"unresolved\":%u,\"retries\":%llu,\"escalations\":%llu,"
      "\"tx_per_command\":%.17g,\"invariant_violations\":%llu,"
      "\"command_spans\":%zu,\"span_reconcile_failures\":%zu,"
      "\"timeline_samples\":%llu}\n",
      r.commands, r.acked, r.gave_up, r.no_code, r.unresolved,
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.escalations), r.tx_per_command,
      static_cast<unsigned long long>(r.invariant_violations),
      r.command_spans, r.span_reconcile_failures,
      static_cast<unsigned long long>(r.timeline_samples));
  return 0;
}
