// Tests for common/table.hpp, common/cli.hpp and the CLIs' scenario check
// (engine/spec_catalog.hpp).
#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "engine/scenario.hpp"
#include "engine/spec_catalog.hpp"
#include "engine/sweep_runner.hpp"

namespace churnet {
namespace {

TEST(Formatting, FixedAndScientific) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
  EXPECT_EQ(fmt_sci(12345.678, 2), "1.23e+04");
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
}

TEST(Table, RenderAlignsColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.render();
  // Header, rule, two rows.
  int lines = 0;
  for (const char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, RowCount) {
  Table table({"a"});
  EXPECT_EQ(table.row_count(), 0u);
  table.add_row({"1"});
  table.add_row({"2"});
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  std::ostringstream out;
  table.write_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, PrintMatchesRender) {
  Table table({"h"});
  table.add_row({"v"});
  std::ostringstream out;
  table.print(out);
  EXPECT_EQ(out.str(), table.render());
}

class CliTest : public ::testing::Test {
 protected:
  Cli make_cli() {
    Cli cli("test program");
    cli.add_int("n", 100, "network size");
    cli.add_double("rate", 0.5, "a rate");
    cli.add_string("mode", "fast", "a mode");
    cli.add_flag("verbose", "chatty output");
    return cli;
  }
};

TEST_F(CliTest, DefaultsWhenNoArguments) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.5);
  EXPECT_EQ(cli.get_string("mode"), "fast");
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST_F(CliTest, SpaceSeparatedValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n", "42", "--rate", "1.25"};
  EXPECT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.25);
}

TEST_F(CliTest, EqualsSeparatedValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n=7", "--mode=slow"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), 7);
  EXPECT_EQ(cli.get_string("mode"), "slow");
}

TEST_F(CliTest, FlagsToggle) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose"};
  EXPECT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST_F(CliTest, HelpReturnsFalse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST_F(CliTest, NegativeNumbersParse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n", "-5"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), -5);
}

TEST_F(CliTest, RejectsValuesThatDoNotParseCompletely) {
  for (const char* bad : {"abc", "4x", "", "1.5", "99999999999999999999"}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", "--n", bad};
    EXPECT_EXIT(cli.parse(3, argv), ::testing::ExitedWithCode(2),
                "expects an integer")
        << bad;
  }
  for (const char* bad : {"fast", "0.5.1", "--1", ""}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", "--rate", bad};
    EXPECT_EXIT(cli.parse(3, argv), ::testing::ExitedWithCode(2),
                "expects a number")
        << bad;
  }
}

TEST_F(CliTest, AcceptsWholeNumbersOfEveryForm) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n=+12", "--rate", "-2.5e-1"};
  EXPECT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("n"), 12);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), -0.25);
}

TEST_F(CliTest, CountRejectsNegativeValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n", "-1"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EXIT((void)cli.get_count("n"), ::testing::ExitedWithCode(2),
              "must be a count >= 0, got -1");
  Cli ok = make_cli();
  const char* argv_ok[] = {"prog", "--n", "4"};
  ASSERT_TRUE(ok.parse(3, argv_ok));
  EXPECT_EQ(ok.get_count("n"), 4u);
}

TEST_F(CliTest, Uint64RejectsNegativeValuesAndKeepsWideOnes) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n", "-1"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EXIT((void)cli.get_uint64("n"), ::testing::ExitedWithCode(2),
              "must be >= 0, got -1");
  Cli wide = make_cli();
  const char* argv_wide[] = {"prog", "--n", "5000000000"};
  ASSERT_TRUE(wide.parse(3, argv_wide));
  EXPECT_EQ(wide.get_uint64("n"), 5000000000u);  // beyond get_count's range
  Cli zero = make_cli();
  const char* argv_zero[] = {"prog", "--n=0"};
  ASSERT_TRUE(zero.parse(2, argv_zero));
  EXPECT_EQ(zero.get_uint64("n"), 0u);
}

// churnet_sweep and churnet_repro check every scenario name with
// require_resolvable_scenarios before any job starts: a bad churn argument
// is a usage error (exit 2 with the diagnostic), not an abort (134) from
// inside ScenarioRegistry::resolve.
TEST(ScenarioCheck, BadChurnArgumentsExitTwoBeforeAnyJob) {
  const struct {
    const char* scenario;
    const char* reason;
  } cases[] = {
      {"PDGR+massfail(2,1)", "massfail fraction must be in \\(0,1\\)"},
      {"PDGR+pareto(1)", "pareto tail index must be > 1"},
      {"PDGR+weibull(0)", "weibull shape must be > 0"},
      {"SDG+maxdeg(2)", "maxdeg budget must be in \\[0,1\\]"},
      {"PDGR+flashcrowd(2,1)", "no stationary population"},
      {"PDGR+zipf(2)", "unknown churn regime 'zipf'"},
      {"SDGR+pareto(2.5)", "streaming models take only"},
      {"NOPE+pareto(2.5)", "unknown scenario 'NOPE'"},
  };
  for (const auto& c : cases) {
    SweepSpec spec;
    spec.scenarios = {"PDGR", c.scenario};
    EXPECT_EXIT(require_resolvable_scenarios(
                    spec, ScenarioRegistry::extended(), "invalid sweep spec"),
                ::testing::ExitedWithCode(2),
                std::string("invalid sweep spec: .*") + c.reason)
        << c.scenario;
  }
  SweepSpec good;
  good.scenarios = {"PDGR", "SDGR+maxdeg(1)", "PDGR+flashcrowd(0.25,1)",
                    "PDGR+pareto(2.5)+push(3)"};
  EXPECT_FALSE(good.scenario_error(ScenarioRegistry::extended()).has_value());
  require_resolvable_scenarios(good, ScenarioRegistry::extended(), "ok");
}

}  // namespace
}  // namespace churnet
