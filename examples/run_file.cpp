// Generic litmus front end: load a .litmus file, enumerate all outcomes
// under the operational RAR semantics, decide the exists/forbidden clause,
// and check data-race freedom.
//
//   ./run_file [--bound N] [--por MODE] [--dot]
//              [--telemetry PATH] [--trace-out PATH] [--progress[=ms]]
//              file.litmus
//
// A search cut short by the state budget decides nothing: its verdict is
// printed as unknown, never as unreachable or race free.
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/telemetry_cli.hpp"
#include "rc11/rc11.hpp"

using namespace rc11;

namespace {

constexpr const char* kExitCodes =
    "exit codes: 0 decided, no forbidden outcome reachable; 1 bad input;\n"
    "  2 a forbidden outcome is reachable; 3 a verdict is unknown (state\n"
    "  budget hit) and no forbidden outcome was found\n";

constexpr const char* kUnknown = "unknown (state budget hit)";

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.option("bound", "4", "loop unfolding bound");
  cli.option("por", "none",
             "partial-order reduction: none|sleep|source|source-sleep|"
             "optimal|optimal-parsimonious");
  cli.flag("dot", "dump a Graphviz rendering of one final execution");
  obs::TelemetryCli::add_options(cli);
  const bool parsed_args = cli.parse(argc, argv);
  if (parsed_args && cli.help_requested()) {
    std::cout << cli.usage("run_file") << "  <file.litmus>\n" << kExitCodes;
    return 0;
  }
  if (!parsed_args || cli.positional().empty()) {
    std::cerr << (cli.error().empty() ? "missing input file" : cli.error())
              << "\n"
              << cli.usage("run_file") << "  <file.litmus>\n"
              << kExitCodes;
    return 1;
  }

  std::ifstream in(cli.positional()[0]);
  if (!in) {
    std::cerr << "cannot open " << cli.positional()[0] << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  lang::ParsedLitmus parsed;
  try {
    parsed = lang::parse_litmus(buf.str());
  } catch (const lang::ParseError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  std::cout << "== " << parsed.name << " ==\n"
            << parsed.program.to_string() << "\n";

  mc::ExploreOptions opts;
  opts.step.loop_bound = static_cast<int>(cli.get_int("bound"));
  if (const auto por = mc::por_mode_from_name(cli.get("por"))) {
    opts.por = *por;
  } else {
    std::cerr << "unknown --por mode: " << cli.get("por") << "\n";
    return 1;
  }

  obs::TelemetryCli tcli;
  if (!tcli.init(cli)) return 1;
  opts.telemetry = tcli.telemetry();

  const mc::OutcomeResult outcomes =
      mc::enumerate_outcomes(parsed.program, opts);
  std::cout << "outcomes (" << outcomes.outcomes.size() << " distinct, "
            << outcomes.stats.to_string() << "):\n";
  for (const mc::Outcome& o : outcomes.outcomes) {
    std::cout << "  " << o.to_string(parsed.program) << "\n";
  }

  bool unknown = false;
  bool forbidden_reachable = false;
  if (parsed.mode != lang::CondMode::kNone) {
    const mc::ReachabilityResult r =
        mc::check_reachable(parsed.program, parsed.condition, opts);
    unknown = !r.reachable && r.stats.truncated;
    const char* verdict = r.reachable ? "reachable"
                          : unknown   ? kUnknown
                                      : "unreachable";
    std::cout << "\ncondition " << parsed.condition->to_string(&parsed.program)
              << ": " << verdict << "\n";
    if (r.reachable) {
      std::cout << "witness:\n" << r.witness.to_string(&parsed.program.vars());
    }
    if (parsed.mode == lang::CondMode::kForbidden && r.reachable) {
      std::cout << "FORBIDDEN OUTCOME IS REACHABLE\n";
      forbidden_reachable = true;
    }
  }

  const mc::RaceResult race = mc::check_race_free(parsed.program, opts);
  const bool race_undecided = race.race_free && race.stats.truncated;
  unknown = unknown || race_undecided;
  std::cout << "\nrace check: "
            << (!race.race_free   ? "RACY — " + race.race
                : race_undecided ? std::string(kUnknown)
                                 : "race free")
            << "\n";

  if (cli.get_flag("dot")) {
    mc::Visitor v;
    v.on_final = [&](const interp::Config& c) {
      std::cout << "\n" << c11::to_dot(c.exec, &parsed.program.vars());
      return false;
    };
    (void)mc::explore(parsed.program, opts, v);
  }
  if (!tcli.finish()) return 1;
  if (forbidden_reachable) return 2;
  return unknown ? 3 : 0;
}
