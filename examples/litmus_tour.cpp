// Runs the whole litmus catalogue (or one named test) and prints the
// allowed/forbidden table. With --show <name>, also dumps one witness
// execution (or the full outcome set) and the Graphviz rendering of a
// final execution.
//
// With --import <file|dir>, runs herd-style .litmus tests (a single file
// or every *.litmus in a directory) instead of the built-in catalogue.
//
//   ./litmus_tour [--test NAME] [--show NAME] [--source NAME]
//                 [--import PATH]
//                 [--telemetry PATH] [--trace-out PATH] [--progress[=ms]]
//                 [--por none|sleep|source-sleep]
#include <iostream>

#include "litmus/import.hpp"
#include "obs/telemetry_cli.hpp"
#include "rc11/rc11.hpp"

using namespace rc11;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.option("test", "", "run only this catalogue entry");
  cli.option("show", "", "dump outcomes + a final execution of this test");
  cli.option("source", "", "print the litmus source of this test");
  cli.option("por", "none", "partial-order reduction: none|sleep|source-sleep");
  cli.option("import", "", "run herd-style .litmus tests from this file/dir");
  obs::TelemetryCli::add_options(cli);
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage("litmus_tour");
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage("litmus_tour");
    return 0;
  }

  mc::ExploreOptions opts;
  if (const auto por = mc::por_mode_from_name(cli.get("por"))) {
    opts.por = *por;
  } else {
    std::cerr << "unknown --por mode: " << cli.get("por") << "\n";
    return 1;
  }

  obs::TelemetryCli tcli;
  if (!tcli.init(cli)) return 1;
  opts.telemetry = tcli.telemetry();

  if (const std::string name = cli.get("source"); !name.empty()) {
    std::cout << litmus::find_test(name).source << "\n";
    return 0;
  }

  if (const std::string name = cli.get("show"); !name.empty()) {
    const litmus::Test& t = litmus::find_test(name);
    const lang::ParsedLitmus parsed = lang::parse_litmus(t.source);
    std::cout << t.name << ": " << t.description << "\n"
              << "expected: " << litmus::to_string(t.expected) << " — "
              << t.rationale << "\n\n";
    const mc::OutcomeResult outcomes =
        mc::enumerate_outcomes(parsed.program, opts);
    std::cout << "outcomes:\n";
    for (const mc::Outcome& o : outcomes.outcomes) {
      std::cout << "  " << o.to_string(parsed.program) << "\n";
    }
    // Dump one final execution as text + dot.
    mc::Visitor v;
    bool dumped = false;
    v.on_final = [&](const interp::Config& c) {
      std::cout << "\none final execution:\n"
                << c11::to_text_with_derived(c.exec, &parsed.program.vars())
                << "\nGraphviz:\n"
                << c11::to_dot(c.exec, &parsed.program.vars());
      dumped = true;
      return false;
    };
    (void)mc::explore(parsed.program, opts, v);
    return dumped ? 0 : 1;
  }

  std::vector<litmus::RunResult> results;
  if (const std::string path = cli.get("import"); !path.empty()) {
    try {
      for (const litmus::ImportedTest& t : litmus::import_path(path)) {
        results.push_back(litmus::run_test(litmus::to_test(t), opts));
      }
    } catch (const litmus::ImportError& e) {
      std::cerr << "import error: " << e.what() << "\n";
      return 1;
    }
  } else if (const std::string name = cli.get("test"); !name.empty()) {
    results.push_back(litmus::run_test(litmus::find_test(name), opts));
  } else {
    results = litmus::run_all(opts);
  }
  std::cout << litmus::format_table(results);
  if (!tcli.finish()) return 1;
  bool all_pass = true;
  for (const auto& r : results) all_pass = all_pass && r.pass;

  std::cout << (all_pass ? "\nall tests match the model\n"
                         : "\nMISMATCHES FOUND\n");
  return all_pass ? 0 : 1;
}
