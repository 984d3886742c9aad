#include "engine/spec_catalog.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn_spec.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "observe/observer_spec.hpp"
#include "protocols/protocol_spec.hpp"

namespace churnet {
namespace {

void print_rows(std::ostream& os,
                const std::vector<std::pair<std::string, std::string>>& rows) {
  std::size_t width = 0;
  for (const auto& [spelling, description] : rows) {
    width = std::max(width, spelling.size());
  }
  for (const auto& [spelling, description] : rows) {
    os << "  " << spelling << std::string(width - spelling.size() + 2, ' ')
       << description << '\n';
  }
}

}  // namespace

void print_churn_catalog(std::ostream& os) {
  os << "churn regimes (churn axis of a composite scenario name):\n";
  print_rows(os, ChurnSpec::catalog());
  os << "  attach to a scenario as BASE+spec, e.g. PDGR+pareto(2.5); "
        "protocol segments may follow (PDGR+pareto(2.5)+push(3))\n";
}

void print_protocol_catalog(std::ostream& os) {
  os << "dissemination protocols (protocol axis):\n";
  print_rows(os, ProtocolSpec::catalog());
  os << "  compose as base+modifier(s), e.g. push(3)+lossy(0.9)+sources(2)\n";
}

void print_observer_catalog(std::ostream& os) {
  os << "metric observers (observation axis):\n";
  print_rows(os, ObserverSpec::catalog());
  os << "  compose with '+', e.g. expansion(8)+spectral+isolated; each "
        "observer appends its metric columns to every cell\n";
}

void print_metric_catalog(std::ostream& os) {
  os << "sweep metrics (default: ";
  bool first = true;
  for (const std::string& name : SweepSpec::default_metrics()) {
    os << (first ? "" : ",") << name;
    first = false;
  }
  os << "):\n";
  for (const std::string& name : SweepSpec::known_metrics()) {
    os << "  " << name << '\n';
  }
}

void print_scenario_catalog(std::ostream& os,
                            const ScenarioRegistry& registry) {
  os << "scenarios:\n";
  std::vector<std::pair<std::string, std::string>> rows;
  for (const Scenario& scenario : registry.scenarios()) {
    rows.emplace_back(scenario.name(), scenario.description());
  }
  print_rows(os, rows);
  os << "  plus any BASE+spec composite (see the churn and protocol "
        "catalogs)\n";
}

void print_spec_catalogs(std::ostream& os) {
  print_scenario_catalog(os, ScenarioRegistry::extended());
  os << '\n';
  print_churn_catalog(os);
  os << '\n';
  print_protocol_catalog(os);
  os << '\n';
  print_observer_catalog(os);
  os << '\n';
  print_metric_catalog(os);
}

void require_resolvable_scenarios(const SweepSpec& spec,
                                  const ScenarioRegistry& registry,
                                  const char* context) {
  const std::optional<std::string> error = spec.scenario_error(registry);
  if (!error.has_value()) return;
  std::cerr << context << ": " << *error << "\n\n";
  print_spec_catalogs(std::cerr);
  std::exit(2);
}

}  // namespace churnet
