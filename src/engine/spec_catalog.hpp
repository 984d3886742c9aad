// The one shared spec-catalog listing: every CLI's --list-* flag and
// unknown-spec error path prints the churn / protocol / observer / metric
// catalogs through these helpers instead of hand-rolling its own block, so
// the catalogs cannot drift between tools (churnet_sweep, churnet_repro)
// or between a listing flag and the error message that cites it.
#pragma once

#include <iosfwd>

namespace churnet {

class ScenarioRegistry;
struct SweepSpec;

/// "  spelling  description" rows for every churn regime, followed by the
/// composite-spec usage line ("BASE+spec", where spec may also be a
/// protocol segment).
void print_churn_catalog(std::ostream& os);

/// Protocol catalog rows plus the composition usage line
/// ("push(3)+lossy(0.9)+sources(2)").
void print_protocol_catalog(std::ostream& os);

/// Observer catalog rows plus the composition usage line
/// ("expansion(8)+spectral+isolated").
void print_observer_catalog(std::ostream& os);

/// The sweep metric catalog, with the default set on the header line.
void print_metric_catalog(std::ostream& os);

/// The scenario registry, one "  name  description" row per scenario.
void print_scenario_catalog(std::ostream& os,
                            const ScenarioRegistry& registry);

/// All of the above, section-headed — the full catalog a CLI prints from
/// --list-specs or an unknown-spec error path.
void print_spec_catalogs(std::ostream& os);

/// Unless every scenario name in `spec` resolves in `registry`, prints
/// "<context>: <diagnostic>" and the catalogs to stderr and exits 2 (a
/// usage error, like a malformed flag). CLIs call it before any job
/// starts, so "PDGR+massfail(2,1)" never reaches the aborting resolve.
void require_resolvable_scenarios(const SweepSpec& spec,
                                  const ScenarioRegistry& registry,
                                  const char* context);

}  // namespace churnet
