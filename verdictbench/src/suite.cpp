#include "suite.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "litmus/import.hpp"

namespace vbench {

using namespace rc11;

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Explicit state budget of every job, far above what any job needs: a
/// job that hits it counts as undecided, never as "unreachable" or "race
/// free".
constexpr std::size_t kMaxStates = 2'000'000;

/// Peterson's busy-wait bounds: its seen set grows from ~0.8 MB (bound 10)
/// to several MB (bound 30), past the private caches.
constexpr int kPetersonBounds[] = {10, 20, 30};
/// Bound of the derived workload's seven-invariant Peterson job.
constexpr int kPetersonSuiteBound = 6;

/// Generated programs per family. Draws are stratified by the state count
/// the from-scratch search finds: the band below is cut into kDrawBins
/// log-spaced bins and each bin takes the same number of draws. Every
/// draw then decides within its budget under both option sets, and a
/// seed changes which programs run but hardly how their sizes spread. The
/// band keeps every draw's time between the median and the p90 of the
/// fixed jobs around it, so neither quantile lands on a drawn program and
/// moves with the seed.
constexpr std::size_t kDraws = 8;
constexpr std::size_t kConflictDraws = 4;
constexpr std::size_t kRacyDraws = 6;
constexpr std::size_t kScDraws = 6;
constexpr std::size_t kDrawBins = 4;
constexpr double kDrawMinStates = 40;
constexpr double kDrawMaxStates = 150;
constexpr int kMaxDrawAttempts = 2000;

/// Race-free shapes whose race query the derived workload times (mixed5's
/// takes ~9 s under the defaults, too long for a pass).
constexpr const char* kDerivedRaceShapes[] = {"conflict4"};

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t hash_name(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<fs::path> litmus_files(const fs::path& dir) {
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("missing program directory " + dir.string());
  }
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".litmus") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  if (out.empty()) throw std::runtime_error("no programs in " + dir.string());
  return out;
}

/// The `# bench: key=value ...` lines of a program file.
std::map<std::string, std::string> annotations(const std::string& text) {
  static const std::string kTag = "# bench:";
  std::map<std::string, std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(kTag, 0) != 0) continue;
    std::istringstream words(line.substr(kTag.size()));
    std::string word;
    while (words >> word) {
      const std::size_t eq = word.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("malformed annotation '" + word + "'");
      }
      out[word.substr(0, eq)] = word.substr(eq + 1);
    }
  }
  return out;
}

OutcomeDigest parse_digest(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("malformed outcome digest '" + text + "'");
  }
  OutcomeDigest d;
  d.count = std::stoull(text.substr(0, colon));
  d.hash = std::stoull(text.substr(colon + 1), nullptr, 16);
  return d;
}

// --- The from-scratch oracle --------------------------------------------------

struct OracleResult {
  std::set<mc::Outcome> outcomes;
  bool race = false;
  std::size_t states = 0;
  bool complete = true;  ///< false when the state cap stopped the search
};

/// Depth-first search over interp::successors with its own fingerprint
/// set: every successor is a full Config copy with from-scratch derived
/// relations, so it shares nothing with the spine or the engines. With
/// `races`, every new event is checked against the others through
/// compute_derived + race_with.
OracleResult oracle(const lang::Program& program, int loop_bound,
                    std::size_t state_cap, bool races) {
  interp::StepOptions opts;
  opts.loop_bound = loop_bound;
  OracleResult r;
  std::set<util::Fingerprint> seen;
  std::vector<interp::Config> stack;
  stack.push_back(interp::initial_config(program));
  seen.insert(stack.back().fingerprint());
  while (!stack.empty()) {
    if (seen.size() > state_cap) {
      r.complete = false;
      break;
    }
    const interp::Config c = std::move(stack.back());
    stack.pop_back();
    if (c.terminated()) {
      r.outcomes.insert(mc::outcome_of(c, program));
      continue;
    }
    for (interp::ConfigStep& step : interp::successors(c, opts)) {
      if (races && !r.race && !step.silent) {
        const c11::DerivedRelations d = c11::compute_derived(step.next.exec);
        r.race = c11::race_with(step.next.exec, d, step.event).has_value();
      }
      if (seen.insert(step.next.fingerprint()).second) {
        stack.push_back(std::move(step.next));
      }
    }
  }
  r.states = seen.size();
  return r;
}

bool compare(lang::Value a, lang::BinOp op, lang::Value b) {
  switch (op) {
    case lang::BinOp::kEq:
      return a == b;
    case lang::BinOp::kNe:
      return a != b;
    case lang::BinOp::kLt:
      return a < b;
    case lang::BinOp::kLe:
      return a <= b;
    case lang::BinOp::kGt:
      return a > b;
    case lang::BinOp::kGe:
      return a >= b;
    default:
      throw std::runtime_error("unsupported comparison in a condition");
  }
}

/// A litmus condition evaluated on an outcome (the same reading as
/// interp::eval_cond on the final configuration).
bool holds_on(const lang::Cond& c, const mc::Outcome& o) {
  switch (c.kind) {
    case lang::CondKind::kTrue:
      return true;
    case lang::CondKind::kRegCmp:
      return compare(o.regs.at(c.thread - 1).at(c.reg), c.op, c.value);
    case lang::CondKind::kVarCmp:
      return compare(o.final_vars.at(c.var), c.op, c.value);
    case lang::CondKind::kNot:
      return !holds_on(*c.lhs, o);
    case lang::CondKind::kAnd:
      return holds_on(*c.lhs, o) && holds_on(*c.rhs, o);
    case lang::CondKind::kOr:
      return holds_on(*c.lhs, o) || holds_on(*c.rhs, o);
  }
  return false;
}

bool reachable_in(const lang::CondPtr& cond,
                  const std::set<mc::Outcome>& outcomes) {
  return std::any_of(outcomes.begin(), outcomes.end(),
                     [&](const mc::Outcome& o) { return holds_on(*cond, o); });
}

/// A condition pinning one outcome's values of every atom that differs
/// between outcomes — or, half the time, the same with one atom changed to
/// a value no outcome combines with the rest, which is unreachable and
/// makes the search exhaustive.
lang::CondPtr synthesize_condition(const std::set<mc::Outcome>& outcomes,
                                   std::mt19937_64& rng) {
  struct Atom {
    bool reg = false;
    std::size_t thread = 0;
    std::size_t index = 0;  ///< register or variable
  };
  const std::vector<mc::Outcome> all(outcomes.begin(), outcomes.end());
  const auto value = [](const mc::Outcome& o, const Atom& a) {
    return a.reg ? o.regs[a.thread][a.index] : o.final_vars[a.index];
  };
  std::vector<Atom> atoms;
  const mc::Outcome& first = all.front();
  for (std::size_t t = 0; t < first.regs.size(); ++t) {
    for (std::size_t r = 0; r < first.regs[t].size(); ++r) {
      atoms.push_back({true, t, r});
    }
  }
  for (std::size_t x = 0; x < first.final_vars.size(); ++x) {
    atoms.push_back({false, 0, x});
  }
  std::erase_if(atoms, [&](const Atom& a) {
    return std::all_of(all.begin(), all.end(), [&](const mc::Outcome& o) {
      return value(o, a) == value(first, a);
    });
  });
  if (atoms.empty()) return lang::cond_true();

  const mc::Outcome& pick = all[rng() % all.size()];
  std::vector<lang::Value> values;
  for (const Atom& a : atoms) values.push_back(value(pick, a));
  if (rng() % 2 == 1) {
    const auto matched = [&](const std::vector<lang::Value>& vs) {
      return std::any_of(all.begin(), all.end(), [&](const mc::Outcome& o) {
        for (std::size_t i = 0; i < atoms.size(); ++i) {
          if (value(o, atoms[i]) != vs[i]) return false;
        }
        return true;
      });
    };
    bool changed = false;
    for (std::size_t i = 0; i < atoms.size() && !changed; ++i) {
      for (const mc::Outcome& o : all) {
        std::vector<lang::Value> candidate = values;
        candidate[i] = value(o, atoms[i]);
        if (candidate[i] != values[i] && !matched(candidate)) {
          values = std::move(candidate);
          changed = true;
          break;
        }
      }
    }
  }
  lang::CondPtr cond;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const Atom& a = atoms[i];
    lang::CondPtr atom =
        a.reg ? lang::cond_reg(static_cast<lang::ThreadId>(a.thread + 1),
                               static_cast<lang::RegId>(a.index),
                               lang::BinOp::kEq, values[i])
              : lang::cond_var(static_cast<lang::VarId>(a.index),
                               lang::BinOp::kEq, values[i]);
    cond = cond ? lang::cond_and(cond, atom) : atom;
  }
  return cond;
}

lang::GeneratorOptions draw_shape(int vars) {
  lang::GeneratorOptions g;
  g.threads = 3;
  g.vars = vars;
  g.stmts_per_thread = 3;
  return g;
}

// --- Suite assembly ------------------------------------------------------------

class Builder {
 public:
  Builder(std::uint64_t seed, fs::path dir) : seed_(seed), dir_(std::move(dir)) {}

  Suite take() {
    for (const Job& j : suite_.jobs) {
      const Subject& s = *j.subject;
      const bool has_reference =
          j.query == Query::kOutcomes ? s.outcomes.has_value()
          : j.query == Query::kReach  ? s.reachable.has_value()
          : j.query == Query::kRace   ? s.race_free.has_value()
                                      : !s.invariants.empty();
      if (!has_reference) {
        throw std::runtime_error(std::string("no reference for the ") +
                                 query_name(j.query) + " query on " + s.name);
      }
    }
    return std::move(suite_);
  }

  /// Every program of `dir_/sub` in the internal litmus format, with the
  /// references annotated in the file.
  std::vector<Subject*> fixed(const std::string& sub) {
    std::vector<Subject*> out;
    for (const fs::path& path : litmus_files(dir_ / sub)) {
      const std::string text = read_file(path);
      const auto t0 = Clock::now();
      lang::ParsedLitmus parsed = lang::parse_litmus(text);
      suite_.parse_us.push_back(us_since(t0));
      const auto notes = annotations(text);
      const auto note = [&](const char* key) {
        const auto it = notes.find(key);
        return it == notes.end() ? std::optional<std::string>{} : it->second;
      };
      Subject& s = add(parsed.name, sub, std::move(parsed.program),
                       parsed.mode == lang::CondMode::kNone
                           ? nullptr
                           : parsed.condition,
                       note("loop_bound") ? std::stoi(*note("loop_bound")) : -1);
      if (s.cond) s.reachable = parsed.mode == lang::CondMode::kExists;
      // Small programs carry no digest: the oracle computes it at set-up.
      s.outcomes = note("outcomes")
                       ? parse_digest(*note("outcomes"))
                       : digest_of(oracle(s.program, s.loop_bound, kMaxStates, false)
                                       .outcomes);
      if (note("race_free")) s.race_free = *note("race_free") == "1";
      s.outcomes_job = note("queries") != "reach";
      out.push_back(&s);
    }
    return out;
  }

  /// Herd-format corpus copies from `dir_/sub`: exists/~exists give the
  /// reachability reference, the oracle the outcome set (the programs are
  /// tiny).
  std::vector<Subject*> corpus(const std::string& sub) {
    std::vector<Subject*> out;
    for (const fs::path& path : litmus_files(dir_ / sub)) {
      const auto t0 = Clock::now();
      const litmus::ImportedTest test = litmus::import_file(path.string());
      lang::ParsedLitmus parsed = lang::parse_litmus(test.source);
      suite_.parse_us.push_back(us_since(t0));
      Subject& s = add("corpus/" + test.name, sub,
                       std::move(parsed.program), parsed.condition, -1);
      s.reachable = test.expected == litmus::Expectation::kAllowed;
      s.outcomes = digest_of(oracle(s.program, -1, kMaxStates, false).outcomes);
      s.small = true;
      out.push_back(&s);
    }
    return out;
  }

  /// `count` generated programs of one shape, stratified by size, each
  /// with a synthesized condition; `racy` keeps only draws with a data race.
  std::vector<Subject*> draws(const std::string& family,
                              lang::GeneratorOptions shape, std::size_t count,
                              bool racy) {
    std::mt19937_64 rng(mix(seed_, hash_name(family)));
    const std::size_t bins = std::min(kDrawBins, count);
    std::vector<std::size_t> room(bins, count / bins);
    room.back() += count % bins;
    std::vector<Subject*> out;
    for (int attempt = 0; out.size() < count; ++attempt) {
      if (attempt == kMaxDrawAttempts) {
        throw std::runtime_error("too few " + family + " draws in the size bins");
      }
      shape.seed = static_cast<std::uint32_t>(rng());
      const auto t0 = Clock::now();
      lang::Program p = lang::generate_program(shape);
      suite_.parse_us.push_back(us_since(t0));
      const OracleResult o =
          oracle(p, -1, static_cast<std::size_t>(kDrawMaxStates), shape.allow_nonatomic);
      const double states = static_cast<double>(o.states);
      if (!o.complete || states < kDrawMinStates || o.race != racy) continue;
      const auto bin = std::min(
          bins - 1, static_cast<std::size_t>(
                        static_cast<double>(bins) * std::log(states / kDrawMinStates) /
                        std::log(kDrawMaxStates / kDrawMinStates)));
      if (room[bin] == 0) continue;
      --room[bin];
      lang::CondPtr cond = synthesize_condition(o.outcomes, rng);
      Subject& s = add(family + "-" + std::to_string(shape.seed), family,
                       std::move(p), cond, -1);
      s.outcomes = digest_of(o.outcomes);
      s.reachable = reachable_in(cond, o.outcomes);
      s.race_free = !o.race;
      s.small = true;
      out.push_back(&s);
    }
    return out;
  }

  Subject& peterson(int bound, bool seven_invariants) {
    vcgen::PetersonHandles h;
    lang::Program p = vcgen::make_peterson(&h);
    Subject& s = add((seven_invariants ? "peterson-inv7-b" : "peterson-b") +
                         std::to_string(bound),
                     "peterson", std::move(p), nullptr, bound);
    // Theorem 5.8 and the invariants of Section 5.2 hold at every bound.
    if (seven_invariants) {
      s.invariants = vcgen::peterson_invariants(h);
    } else {
      s.invariants.push_back({"mutual_exclusion", vcgen::mutual_exclusion()});
    }
    return s;
  }

  void job(const Subject& s, Query q, Role role, std::size_t workers) {
    suite_.jobs.push_back(
        Job{suite_.jobs.size(), &s, q, role, workers, kMaxStates});
  }

  /// The subject's invariant query, or its outcomes plus reachability when
  /// it has a condition.
  void verdict_jobs(const Subject& s, Role role, std::size_t workers) {
    if (!s.invariants.empty()) {
      job(s, Query::kInvariant, role, workers);
      return;
    }
    if (s.outcomes_job) job(s, Query::kOutcomes, role, workers);
    if (s.cond) job(s, Query::kReach, role, workers);
  }

 private:
  Subject& add(std::string name, std::string family, lang::Program program,
               lang::CondPtr cond, int loop_bound) {
    auto s = std::make_unique<Subject>();
    s->name = std::move(name);
    s->family = std::move(family);
    s->program = std::move(program);
    s->cond = std::move(cond);
    s->loop_bound = loop_bound;
    s->fingerprint = interp::initial_config(s->program).fingerprint().to_string();
    suite_.subjects.push_back(std::move(s));
    return *suite_.subjects.back();
  }

  std::uint64_t seed_;
  fs::path dir_;
  Suite suite_;
};

/// Subjects of the plain and por workloads.
std::vector<Subject*> spine_subjects(Builder& b) {
  std::vector<Subject*> out = b.fixed("shapes");
  for (Subject* s : b.fixed("rmw")) {
    s->small = true;
    out.push_back(s);
  }
  for (Subject* s : b.corpus("corpus-rar")) out.push_back(s);
  for (Subject* s : b.fixed("catalog")) {
    s->small = true;
    out.push_back(s);
  }
  for (Subject* s : b.draws("draw", draw_shape(2), kDraws, false)) {
    out.push_back(s);
  }
  for (Subject* s : b.draws("draw1", draw_shape(1), kConflictDraws, false)) {
    out.push_back(s);
  }
  for (const int bound : kPetersonBounds) out.push_back(&b.peterson(bound, false));
  return out;
}

void derived_jobs(Builder& b) {
  std::vector<Subject*> race;
  for (Subject* s : b.fixed("shapes")) {
    if (std::find(std::begin(kDerivedRaceShapes), std::end(kDerivedRaceShapes),
                  s->name) != std::end(kDerivedRaceShapes)) {
      race.push_back(s);
    }
  }
  for (Subject* s : b.fixed("rmw")) {
    s->small = true;
    race.push_back(s);
  }
  lang::GeneratorOptions racy = draw_shape(2);
  racy.allow_nonatomic = true;
  for (Subject* s : b.draws("na-draw", racy, kRacyDraws, true)) race.push_back(s);

  std::vector<Subject*> sc = b.fixed("sc");
  // SC accesses only: an SC fence makes every pair of accesses dependent,
  // and a drawn program with one can take a second under source-set DPOR.
  // The corpus copies carry the fences.
  lang::GeneratorOptions sc_shape = draw_shape(2);
  sc_shape.allow_sc = true;
  for (Subject* s : b.draws("sc-draw", sc_shape, kScDraws, false)) sc.push_back(s);
  for (Subject* s : b.corpus("corpus-sc")) sc.push_back(s);
  const Subject& suite = b.peterson(kPetersonSuiteBound, true);

  for (const Role role : {Role::kDefaults, Role::kPor}) {
    for (const Subject* s : race) b.job(*s, Query::kRace, role, 1);
    for (const Subject* s : sc) b.verdict_jobs(*s, role, 1);
    b.verdict_jobs(suite, role, 1);
  }
}

}  // namespace

const char* query_name(Query q) {
  switch (q) {
    case Query::kOutcomes:
      return "outcomes";
    case Query::kReach:
      return "reach";
    case Query::kRace:
      return "race";
    case Query::kInvariant:
      return "invariant";
  }
  return "?";
}

const char* role_name(Role r) {
  return r == Role::kDefaults ? "defaults" : "default-por";
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kHolds:
      return "holds";
    case Verdict::kViolated:
      return "violated";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "?";
}

OutcomeDigest digest_of(const std::set<mc::Outcome>& outcomes) {
  OutcomeDigest d;
  d.count = outcomes.size();
  std::uint64_t h = 0x5eedull;
  for (const mc::Outcome& o : outcomes) {
    for (const auto& regs : o.regs) {
      h = mix(h, regs.size());
      for (const lang::Value v : regs) h = mix(h, static_cast<std::uint64_t>(v));
    }
    h = mix(h, o.final_vars.size());
    for (const lang::Value v : o.final_vars) {
      h = mix(h, static_cast<std::uint64_t>(v));
    }
  }
  d.hash = h;
  return d;
}

std::string to_string(const OutcomeDigest& d) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", d.count,
                static_cast<unsigned long long>(d.hash));
  return buf;
}

JobResult run_job(const Job& job, obs::Telemetry* telemetry,
                  std::optional<mc::PorMode> mode) {
  const Subject& s = *job.subject;
  mc::ExploreOptions options;
  if (job.role == Role::kPor) options.por = mc::kDefaultPor;
  if (mode) options.por = *mode;
  options.step.loop_bound = s.loop_bound;
  options.max_states = job.max_states;
  options.telemetry = telemetry;
  const mc::ParallelOptions parallel{options, job.workers};
  const bool par = job.workers > 1;
  mc::ParallelRunInfo info;

  JobResult r;
  // `decided` is whether the query reached a verdict; `holds` what it is.
  const auto settle = [&](bool decided, bool holds, std::optional<bool> ref) {
    r.budget_hit = !decided;
    r.verdict = !decided ? Verdict::kUnknown
                : holds  ? Verdict::kHolds
                         : Verdict::kViolated;
    r.wrong = decided && ref.has_value() && holds != *ref;
  };
  try {
    switch (job.query) {
      case Query::kOutcomes: {
        const auto t0 = Clock::now();
        const mc::OutcomeResult res =
            par ? mc::enumerate_outcomes_parallel(s.program, parallel, &info)
                : mc::enumerate_outcomes(s.program, options);
        r.ms = us_since(t0) / 1e3;
        r.stats = res.stats;
        // The verdict is the outcome set itself: it holds when complete and
        // equal to the reference.
        settle(!res.stats.truncated, digest_of(res.outcomes) == s.outcomes,
               true);
        break;
      }
      case Query::kReach: {
        const auto t0 = Clock::now();
        const mc::ReachabilityResult res =
            par ? mc::check_reachable_parallel(s.program, s.cond, parallel, &info)
                : mc::check_reachable(s.program, s.cond, options);
        r.ms = us_since(t0) / 1e3;
        r.stats = res.stats;
        r.witness_len = res.witness.size();
        settle(res.reachable || !res.stats.truncated, res.reachable,
               s.reachable);
        break;
      }
      case Query::kRace: {
        const auto t0 = Clock::now();
        const mc::RaceResult res =
            par ? mc::check_race_free_parallel(s.program, parallel, &info)
                : mc::check_race_free(s.program, options);
        r.ms = us_since(t0) / 1e3;
        r.stats = res.stats;
        r.witness_len = res.trace.size();
        settle(!res.race_free || !res.stats.truncated, res.race_free,
               s.race_free);
        break;
      }
      case Query::kInvariant: {
        bool holds = true;
        const auto t0 = Clock::now();
        if (s.invariants.size() > 1) {
          if (par) throw std::runtime_error("no parallel invariant suite");
          const vcgen::InvariantSuiteResult res =
              vcgen::check_invariants(s.program, s.invariants, options);
          r.ms = us_since(t0) / 1e3;
          r.stats = res.stats;
          r.witness_len = res.counterexample.size();
          holds = res.all_hold;
        } else {
          const mc::ConfigPredicate& p = s.invariants.front().predicate;
          const mc::InvariantResult res =
              par ? mc::check_invariant_parallel(s.program, p, parallel, &info)
                  : mc::check_invariant(s.program, p, options);
          r.ms = us_since(t0) / 1e3;
          r.stats = res.stats;
          r.witness_len = res.counterexample.size();
          holds = res.holds;
        }
        settle(!holds || !r.stats.truncated, holds, true);
        break;
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.workers = std::move(info.workers);
  return r;
}

std::size_t parallel_workers() {
  const unsigned host = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(host, 1, 4);
}

Suite build_suite(const std::string& workload, std::uint64_t seed,
                  const std::string& program_dir) {
  Builder b(seed, program_dir);
  if (workload == "plain" || workload == "por") {
    const Role role = workload == "plain" ? Role::kDefaults : Role::kPor;
    for (const Subject* s : spine_subjects(b)) b.verdict_jobs(*s, role, 1);
  } else if (workload == "derived") {
    derived_jobs(b);
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  return b.take();
}

void print_references(const std::string& program_dir) {
  for (const char* sub : {"shapes", "sc", "rmw"}) {
    for (const fs::path& path : litmus_files(fs::path(program_dir) / sub)) {
      const std::string text = read_file(path);
      const lang::ParsedLitmus parsed = lang::parse_litmus(text);
      const auto notes = annotations(text);
      const int bound =
          notes.count("loop_bound") ? std::stoi(notes.at("loop_bound")) : -1;
      const auto t0 = Clock::now();
      const OracleResult o = oracle(parsed.program, bound, 50'000'000, false);
      std::printf("%s: # bench: outcomes=%s  (%zu states, %.1f s%s",
                  path.filename().c_str(), to_string(digest_of(o.outcomes)).c_str(),
                  o.states, us_since(t0) / 1e6, o.complete ? "" : ", INCOMPLETE");
      if (parsed.mode != lang::CondMode::kNone) {
        std::printf(", condition %s", reachable_in(parsed.condition, o.outcomes)
                                          ? "reachable"
                                          : "unreachable");
      }
      std::printf(")\n");
      std::fflush(stdout);
    }
  }
}

}  // namespace vbench
