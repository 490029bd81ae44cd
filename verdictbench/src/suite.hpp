// The time-to-verdict benchmark's subjects and jobs.
//
// A subject is one program plus the references its verdicts are judged
// against. No reference comes from a configuration the benchmark times:
// fixed programs carry hand annotations (litmus exists/forbidden clauses,
// Peterson's theorems, outcome digests checked in beside them), and
// generated or imported programs get theirs at setup from a from-scratch
// search over interp::successors, which shares no code with the
// apply/undo spine or the engines. A job is one (subject, query, options,
// workers) tuple.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "rc11/rc11.hpp"

namespace vbench {

enum class Query : std::uint8_t { kOutcomes, kReach, kRace, kInvariant };
[[nodiscard]] const char* query_name(Query q);

/// Option sets are named by role, never by a POR mode name, so a change
/// that deletes a mode cannot break a job.
enum class Role : std::uint8_t {
  kDefaults,  ///< mc::ExploreOptions{} as the library ships it
  kPor,       ///< the same with por = mc::kDefaultPor
};
[[nodiscard]] const char* role_name(Role r);

enum class Verdict : std::uint8_t { kHolds, kViolated, kUnknown };
[[nodiscard]] const char* verdict_name(Verdict v);

/// Size and hash of an outcome set, computed by the benchmark itself so the
/// checked-in references survive changes to the library's hashing.
struct OutcomeDigest {
  std::size_t count = 0;
  std::uint64_t hash = 0;
  bool operator==(const OutcomeDigest&) const = default;
};
[[nodiscard]] OutcomeDigest digest_of(
    const std::set<rc11::mc::Outcome>& outcomes);
[[nodiscard]] std::string to_string(const OutcomeDigest& d);

struct Subject {
  std::string name;
  std::string family;
  rc11::lang::Program program;
  rc11::lang::CondPtr cond;  ///< final-state condition; null: no reach query
  int loop_bound = -1;
  std::string fingerprint;  ///< of the initial configuration
  bool small = false;       ///< cheap enough to run in every set-up's warm-up
  bool outcomes_job = true;  ///< false: reachability only (`queries=reach`)
  std::optional<OutcomeDigest> outcomes;
  std::optional<bool> reachable;
  std::optional<bool> race_free;
  /// Predicates that must hold at every reachable configuration: one runs
  /// mc::check_invariant, several run vcgen::check_invariants.
  std::vector<rc11::vcgen::NamedInvariant> invariants;
};

struct Job {
  std::size_t id = 0;
  const Subject* subject = nullptr;
  Query query = Query::kOutcomes;
  Role role = Role::kDefaults;
  std::size_t workers = 1;
  std::size_t max_states = 0;
};

struct JobResult {
  double ms = 0;  ///< the query call alone
  Verdict verdict = Verdict::kUnknown;
  bool budget_hit = false;  ///< stats.truncated left the query undecided
  bool wrong = false;       ///< decided, and differs from the reference
  std::string error;        ///< what an exception said
  rc11::mc::ExploreStats stats;
  std::size_t witness_len = 0;
  std::vector<rc11::mc::WorkerStats> workers;

  [[nodiscard]] bool failed() const {
    return budget_hit || wrong || !error.empty();
  }
};

/// Runs one job through the public query it names; only that call is
/// timed. `mode`, when set, replaces the role's POR mode (the traced run's
/// mode ablation).
[[nodiscard]] JobResult run_job(
    const Job& job, rc11::obs::Telemetry* telemetry = nullptr,
    std::optional<rc11::mc::PorMode> mode = std::nullopt);

struct Suite {
  std::vector<std::unique_ptr<Subject>> subjects;
  std::vector<Job> jobs;
  std::vector<double> parse_us;  ///< one per parse, import or generate call
};

/// Workers of the traced run's parallel runs: 4, never more than the host
/// has.
[[nodiscard]] std::size_t parallel_workers();

/// Builds a workload's subjects, references and jobs. The seed picks the
/// generated programs and their conditions; the fixed programs are read
/// from `program_dir`. Throws std::runtime_error on bad input.
[[nodiscard]] Suite build_suite(const std::string& workload,
                                std::uint64_t seed,
                                const std::string& program_dir);

/// Prints the from-scratch reference of every fixed program in the
/// annotation syntax the program files use (how the checked-in ones were
/// made).
void print_references(const std::string& program_dir);

}  // namespace vbench
