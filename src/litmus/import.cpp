#include "litmus/import.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "util/fmt.hpp"

namespace rc11::litmus {

namespace {

// --- Tokenizer ---------------------------------------------------------------

enum class TokKind : std::uint8_t { kIdent, kInt, kSymbol, kEof };

struct Tok {
  TokKind kind = TokKind::kEof;
  std::string text;
  std::int64_t value = 0;  ///< kInt: the literal's value
  int line = 0;
};

class Lexer {
 public:
  Lexer(const std::string& text, const std::string& origin)
      : text_(text), origin_(origin) {
    cur_ = scan();
  }

  const Tok& peek() const { return cur_; }
  Tok next() {
    Tok t = cur_;
    cur_ = scan();
    return t;
  }
  int line() const { return cur_.line; }

  [[noreturn]] void fail(int line, const std::string& msg) const {
    throw ImportError(util::cat(origin_, ":", line, ": ", msg));
  }
  [[noreturn]] void fail(const std::string& msg) const { fail(cur_.line, msg); }

 private:
  bool at_end() const { return pos_ >= text_.size(); }
  char ch(std::size_t off = 0) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }
  void advance() {
    if (text_[pos_] == '\n') ++line_;
    ++pos_;
  }

  void skip_trivia() {
    for (;;) {
      while (!at_end() && std::isspace(static_cast<unsigned char>(ch()))) {
        advance();
      }
      if (ch() == '/' && ch(1) == '/') {
        while (!at_end() && ch() != '\n') advance();
        continue;
      }
      if (ch() == '(' && ch(1) == '*') {
        const int start = line_;
        advance();
        advance();
        while (!(ch() == '*' && ch(1) == ')')) {
          if (at_end()) fail(start, "unterminated (* comment");
          advance();
        }
        advance();
        advance();
        continue;
      }
      return;
    }
  }

  Tok scan() {
    skip_trivia();
    Tok t;
    t.line = line_;
    if (at_end()) return t;
    const char c = ch();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      t.kind = TokKind::kIdent;
      while (std::isalnum(static_cast<unsigned char>(ch())) || ch() == '_') {
        t.text += ch();
        advance();
      }
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      t.kind = TokKind::kInt;
      while (std::isdigit(static_cast<unsigned char>(ch()))) {
        t.text += ch();
        advance();
      }
      // Constants become 64-bit lang::Values in the translated program.
      const char* end = t.text.data() + t.text.size();
      if (std::from_chars(t.text.data(), end, t.value).ec != std::errc()) {
        fail(t.line, util::cat("integer literal ", t.text,
                               " does not fit a 64-bit value"));
      }
      return t;
    }
    t.kind = TokKind::kSymbol;
    if ((c == '/' && ch(1) == '\\') || (c == '\\' && ch(1) == '/')) {
      t.text = {c, ch(1)};
      advance();
      advance();
      return t;
    }
    t.text = c;
    advance();
    return t;
  }

  const std::string& text_;
  std::string origin_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Tok cur_;
};

// --- Condition AST -----------------------------------------------------------

struct CondNode {
  enum class Kind : std::uint8_t { kTrue, kReg, kVar, kNot, kAnd, kOr };
  Kind kind = Kind::kTrue;
  int thread = 0;  ///< 0-based herd thread index (kReg)
  std::string name;
  long value = 0;
  std::unique_ptr<CondNode> lhs, rhs;
};

std::string cond_to_herd(const CondNode& c) {
  switch (c.kind) {
    case CondNode::Kind::kTrue:
      return "true";
    case CondNode::Kind::kReg:
      return util::cat(c.thread, ":", c.name, " = ", c.value);
    case CondNode::Kind::kVar:
      return util::cat("[", c.name, "] = ", c.value);
    case CondNode::Kind::kNot:
      return util::cat("~(", cond_to_herd(*c.lhs), ")");
    case CondNode::Kind::kAnd:
      return util::cat("(", cond_to_herd(*c.lhs), " /\\ ",
                       cond_to_herd(*c.rhs), ")");
    case CondNode::Kind::kOr:
      return util::cat("(", cond_to_herd(*c.lhs), " \\/ ",
                       cond_to_herd(*c.rhs), ")");
  }
  return "true";
}

std::string cond_to_internal(const CondNode& c) {
  switch (c.kind) {
    case CondNode::Kind::kTrue:
      return "0 == 0";  // no "true" atom in the internal grammar
    case CondNode::Kind::kReg:
      return util::cat(c.thread + 1, ":", c.name, " == ", c.value);
    case CondNode::Kind::kVar:
      return util::cat(c.name, " == ", c.value);
    case CondNode::Kind::kNot:
      return util::cat("!(", cond_to_internal(*c.lhs), ")");
    case CondNode::Kind::kAnd:
      return util::cat("(", cond_to_internal(*c.lhs), " && ",
                       cond_to_internal(*c.rhs), ")");
    case CondNode::Kind::kOr:
      return util::cat("(", cond_to_internal(*c.lhs), " || ",
                       cond_to_internal(*c.rhs), ")");
  }
  return "0 == 0";
}

// --- Parser ------------------------------------------------------------------

/// Deepest condition nesting the importer accepts. Every production
/// entered counts one level (a parenthesised group enters three: cexpr,
/// conjunction, atom), and so does every further operand of a \/ or /\
/// chain, so the bound covers both the parser's recursion and the depth of
/// the condition tree that cond_to_herd / cond_to_internal recurse over.
/// The deepest corpus condition reaches 6. Deeper input is rejected with
/// an ImportError instead of overflowing the stack.
constexpr int kMaxNesting = 256;

class Importer {
 public:
  Importer(const std::string& text, const std::string& origin)
      : lex_(text, origin) {}

  ImportedTest run() {
    parse_header();
    parse_init();
    while (peek_thread_header()) parse_thread();
    if (out_.threads.empty()) lex_.fail("expected at least one thread (P0)");
    parse_condition();
    if (lex_.peek().kind != TokKind::kEof) {
      lex_.fail(util::cat("unexpected trailing '", lex_.peek().text, "'"));
    }
    out_.source = transpile();
    return std::move(out_);
  }

 private:
  // header ::= ("C" | "RC11") NAME — the name runs to the end of the
  // header line and may contain '+'/'-' (herd convention, e.g. SB+fences).
  void parse_header() {
    const Tok arch = expect(TokKind::kIdent, "expected arch header (C NAME)");
    if (arch.text != "C" && arch.text != "RC11") {
      lex_.fail(arch.line,
                util::cat("unsupported arch '", arch.text,
                          "' (expected C or RC11)"));
    }
    if (lex_.peek().kind != TokKind::kIdent &&
        lex_.peek().kind != TokKind::kInt) {
      lex_.fail("expected test name");
    }
    const Tok first = lex_.next();
    out_.name = first.text;
    while (lex_.peek().kind != TokKind::kEof &&
           lex_.peek().line == first.line && !peek_symbol("{")) {
      out_.name += lex_.next().text;
    }
  }

  // init ::= "{" (loc "=" INT ";"?)* "}"
  void parse_init() {
    expect_symbol("{", "expected init block '{'");
    while (!peek_symbol("}")) {
      const int line = lex_.line();
      const std::string var = parse_loc("init entry");
      expect_symbol("=", "expected '=' in init entry");
      const long v = parse_int("init value");
      if (find_var(var)) lex_.fail(line, util::cat("duplicate init of '", var, "'"));
      out_.init.emplace_back(var, v);
      if (peek_symbol(";")) lex_.next();
    }
    lex_.next();  // }
  }

  bool peek_thread_header() const {
    const Tok& t = lex_.peek();
    return t.kind == TokKind::kIdent && t.text.size() >= 2 &&
           t.text[0] == 'P' &&
           std::all_of(t.text.begin() + 1, t.text.end(), [](char c) {
             return std::isdigit(static_cast<unsigned char>(c));
           });
  }

  // thread ::= P<n> params? "{" instr* "}"
  void parse_thread() {
    const Tok hdr = lex_.next();
    const int idx = std::stoi(hdr.text.substr(1));
    if (idx != static_cast<int>(out_.threads.size())) {
      lex_.fail(hdr.line,
                util::cat("thread ", hdr.text, " out of order (expected P",
                          out_.threads.size(), ")"));
    }
    if (peek_symbol("(")) skip_params();
    expect_symbol("{", "expected thread body '{'");
    std::vector<ImportInstr> body;
    while (!peek_symbol("}")) body.push_back(parse_instr(idx));
    lex_.next();  // }
    out_.threads.push_back(std::move(body));
  }

  void skip_params() {
    const int line = lex_.line();
    lex_.next();  // (
    int depth = 1;
    while (depth > 0) {
      const Tok t = lex_.next();
      if (t.kind == TokKind::kEof) {
        lex_.fail(line, "unterminated parameter list");
      }
      if (t.kind == TokKind::kSymbol && t.text == "(") ++depth;
      if (t.kind == TokKind::kSymbol && t.text == ")") --depth;
    }
  }

  ImportInstr parse_instr(int thread) {
    const int line = lex_.line();
    // Dereference / bracket store: *x = v;   [x] = v;
    if (peek_symbol("*") || peek_symbol("[")) {
      ImportInstr in;
      in.op = ImportInstr::Op::kStore;
      in.mo = ImportMo::kNA;
      in.var = parse_loc("store target");
      touch_var(in.var);
      expect_symbol("=", "expected '=' after store target");
      in.value = parse_value("stored value");
      expect_symbol(";", "expected ';'");
      return in;
    }
    const Tok head = expect(TokKind::kIdent, "expected statement");
    if (head.text == "atomic_store_explicit" || head.text == "atomic_store") {
      return finish_store(head, line);
    }
    if (head.text == "atomic_thread_fence" || head.text == "atomic_fence") {
      return finish_fence(head, line);
    }
    if (head.text == "atomic_exchange_explicit" ||
        head.text == "atomic_exchange") {
      return finish_exchange(head, line, /*reg=*/"");
    }
    // Destination register.
    if (find_var(head.text)) {
      // Plain non-atomic store "x = v;".
      ImportInstr in;
      in.op = ImportInstr::Op::kStore;
      in.mo = ImportMo::kNA;
      in.var = head.text;
      expect_symbol("=", "expected '=' after store target");
      in.value = parse_value("stored value");
      expect_symbol(";", "expected ';'");
      return in;
    }
    expect_symbol("=", util::cat("unsupported statement '", head.text, "'"));
    if (lex_.peek().kind == TokKind::kIdent) {
      const std::string callee = lex_.peek().text;
      if (callee == "atomic_load_explicit" || callee == "atomic_load") {
        lex_.next();
        return finish_load(head.text, callee, line);
      }
      if (callee == "atomic_exchange_explicit" ||
          callee == "atomic_exchange") {
        lex_.next();
        const Tok fake{TokKind::kIdent, callee, line};
        return finish_exchange(fake, line, head.text);
      }
    }
    // Plain non-atomic read "r = x;" (x shared, possibly *x / [x]).
    ImportInstr in;
    in.op = ImportInstr::Op::kLoad;
    in.mo = ImportMo::kNA;
    in.reg = head.text;
    in.var = parse_loc("load source");
    if (!find_var(in.var)) {
      lex_.fail(line, util::cat("unknown shared variable '", in.var,
                                "' in plain read (declare it in the init "
                                "block or use an atomic builtin)"));
    }
    note_reg(thread, in.reg, line);
    expect_symbol(";", "expected ';'");
    return in;
  }

  ImportInstr finish_store(const Tok& head, int line) {
    ImportInstr in;
    in.op = ImportInstr::Op::kStore;
    expect_symbol("(", "expected '('");
    in.var = parse_loc("store target");
    touch_var(in.var);
    expect_symbol(",", "expected ','");
    in.value = parse_value("stored value");
    if (head.text == "atomic_store_explicit") {
      expect_symbol(",", "expected ','");
      in.mo = parse_mo(line, {ImportMo::kRlx, ImportMo::kRel, ImportMo::kSC},
                       "store");
    } else {
      in.mo = ImportMo::kSC;
    }
    expect_symbol(")", "expected ')'");
    expect_symbol(";", "expected ';'");
    return in;
  }

  ImportInstr finish_load(const std::string& reg, const std::string& callee,
                          int line) {
    ImportInstr in;
    in.op = ImportInstr::Op::kLoad;
    in.reg = reg;
    expect_symbol("(", "expected '('");
    in.var = parse_loc("load source");
    touch_var(in.var);
    if (callee == "atomic_load_explicit") {
      expect_symbol(",", "expected ','");
      in.mo = parse_mo(line, {ImportMo::kRlx, ImportMo::kAcq, ImportMo::kSC},
                       "load");
    } else {
      in.mo = ImportMo::kSC;
    }
    expect_symbol(")", "expected ')'");
    expect_symbol(";", "expected ';'");
    note_reg(static_cast<int>(out_.threads.size()), reg, line);
    return in;
  }

  ImportInstr finish_exchange(const Tok& head, int line,
                              const std::string& reg) {
    ImportInstr in;
    in.op = ImportInstr::Op::kExchange;
    in.reg = reg;
    expect_symbol("(", "expected '('");
    in.var = parse_loc("exchange target");
    touch_var(in.var);
    expect_symbol(",", "expected ','");
    in.value = parse_value("exchanged value");
    if (head.text == "atomic_exchange_explicit") {
      expect_symbol(",", "expected ','");
      in.mo = parse_mo(line, {ImportMo::kAcqRel, ImportMo::kSC}, "exchange");
    } else {
      in.mo = ImportMo::kSC;
    }
    expect_symbol(")", "expected ')'");
    expect_symbol(";", "expected ';'");
    if (!reg.empty()) {
      note_reg(static_cast<int>(out_.threads.size()), reg, line);
    }
    return in;
  }

  ImportInstr finish_fence(const Tok& head, int line) {
    (void)head;
    ImportInstr in;
    in.op = ImportInstr::Op::kFence;
    expect_symbol("(", "expected '('");
    in.mo = parse_mo(
        line, {ImportMo::kAcq, ImportMo::kRel, ImportMo::kAcqRel, ImportMo::kSC},
        "fence");
    expect_symbol(")", "expected ')'");
    expect_symbol(";", "expected ';'");
    return in;
  }

  ImportMo parse_mo(int line, std::initializer_list<ImportMo> allowed,
                    const char* what) {
    const Tok t = expect(TokKind::kIdent, "expected memory order");
    ImportMo mo;
    if (t.text == "memory_order_relaxed") {
      mo = ImportMo::kRlx;
    } else if (t.text == "memory_order_acquire") {
      mo = ImportMo::kAcq;
    } else if (t.text == "memory_order_release") {
      mo = ImportMo::kRel;
    } else if (t.text == "memory_order_acq_rel") {
      mo = ImportMo::kAcqRel;
    } else if (t.text == "memory_order_seq_cst") {
      mo = ImportMo::kSC;
    } else {
      lex_.fail(t.line, util::cat("unknown memory order '", t.text, "'"));
    }
    if (std::find(allowed.begin(), allowed.end(), mo) == allowed.end()) {
      lex_.fail(line, util::cat("memory order ", t.text,
                                " not valid for a ", what));
    }
    (void)line;
    return mo;
  }

  // cond ::= ("exists" | "~" "exists" | "forbidden" | "forall") "(" cexpr ")"
  void parse_condition() {
    if (lex_.peek().kind == TokKind::kEof) {
      lex_.fail("expected final condition (exists/~exists/forbidden/forall)");
    }
    bool negate_inner = false;
    if (peek_symbol("~")) {
      lex_.next();
      const Tok t = expect(TokKind::kIdent, "expected 'exists' after '~'");
      if (t.text != "exists") {
        lex_.fail(t.line, "expected 'exists' after '~'");
      }
      out_.expected = Expectation::kForbidden;
    } else {
      const Tok t = expect(TokKind::kIdent, "expected final condition");
      if (t.text == "exists") {
        out_.expected = Expectation::kAllowed;
      } else if (t.text == "forbidden") {
        out_.expected = Expectation::kForbidden;
      } else if (t.text == "forall") {
        // forall(P) == ~exists(~P)
        out_.expected = Expectation::kForbidden;
        negate_inner = true;
      } else {
        lex_.fail(t.line, util::cat("unknown condition keyword '", t.text,
                                    "' (expected exists/~exists/forbidden/"
                                    "forall)"));
      }
    }
    expect_symbol("(", "expected '(' after condition keyword");
    auto cond = parse_cexpr();
    expect_symbol(")", "expected ')' closing the condition");
    if (negate_inner) {
      auto n = std::make_unique<CondNode>();
      n->kind = CondNode::Kind::kNot;
      n->lhs = std::move(cond);
      cond = std::move(n);
    }
    out_.condition_herd = cond_to_herd(*cond);
    out_.condition_internal = cond_to_internal(*cond);
  }

  /// Condition nesting held for the lifetime of a recursive production;
  /// deepen() adds one level for each further operand of a chain.
  class Nesting {
   public:
    explicit Nesting(Importer& im) : im_(im), saved_(im.depth_) { deepen(); }
    ~Nesting() { im_.depth_ = saved_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

    void deepen() {
      if (im_.depth_ == kMaxNesting) {
        im_.lex_.fail(util::cat("condition nested deeper than ", kMaxNesting,
                                " levels"));
      }
      ++im_.depth_;
    }

   private:
    Importer& im_;
    int saved_;
  };

  std::unique_ptr<CondNode> parse_cexpr() {
    Nesting nest(*this);
    auto c = parse_cand();
    while (peek_symbol("\\/")) {
      nest.deepen();
      lex_.next();
      auto n = std::make_unique<CondNode>();
      n->kind = CondNode::Kind::kOr;
      n->lhs = std::move(c);
      n->rhs = parse_cand();
      c = std::move(n);
    }
    return c;
  }

  std::unique_ptr<CondNode> parse_cand() {
    Nesting nest(*this);
    auto c = parse_catom();
    while (peek_symbol("/\\")) {
      nest.deepen();
      lex_.next();
      auto n = std::make_unique<CondNode>();
      n->kind = CondNode::Kind::kAnd;
      n->lhs = std::move(c);
      n->rhs = parse_catom();
      c = std::move(n);
    }
    return c;
  }

  std::unique_ptr<CondNode> parse_catom() {
    const Nesting nest(*this);
    auto node = std::make_unique<CondNode>();
    if (peek_symbol("~")) {
      lex_.next();
      node->kind = CondNode::Kind::kNot;
      node->lhs = parse_catom();
      return node;
    }
    if (peek_symbol("(")) {
      lex_.next();
      node = parse_cexpr();
      expect_symbol(")", "expected ')'");
      return node;
    }
    const int line = lex_.line();
    if (lex_.peek().kind == TokKind::kInt) {
      // P:reg = v
      const long t = parse_int("thread index");
      expect_symbol(":", "expected ':' in thread-register atom");
      const std::string reg =
          expect(TokKind::kIdent, "expected register name").text;
      expect_symbol("=", "expected '=' in condition atom");
      const long v = parse_int("condition value");
      if (t < 0 || t >= static_cast<long>(out_.threads.size())) {
        lex_.fail(line, util::cat("condition names thread ", t,
                                  " but only P0..P",
                                  out_.threads.size() - 1, " exist"));
      }
      if (!thread_writes_reg(static_cast<int>(t), reg)) {
        lex_.fail(line, util::cat("condition names register ", t, ":", reg,
                                  " which P", t, " never assigns"));
      }
      node->kind = CondNode::Kind::kReg;
      node->thread = static_cast<int>(t);
      node->name = reg;
      node->value = v;
      return node;
    }
    if (lex_.peek().kind == TokKind::kIdent && lex_.peek().text == "true") {
      lex_.next();
      node->kind = CondNode::Kind::kTrue;
      return node;
    }
    // [x] = v   or   x = v
    const std::string var = parse_loc("condition atom");
    if (!find_var(var)) {
      lex_.fail(line,
                util::cat("unknown shared variable '", var, "' in condition"));
    }
    expect_symbol("=", "expected '=' in condition atom");
    node->kind = CondNode::Kind::kVar;
    node->name = var;
    node->value = parse_int("condition value");
    return node;
  }

  // --- Small helpers ---------------------------------------------------------

  // loc ::= IDENT | "*" IDENT | "[" IDENT "]"
  std::string parse_loc(const char* what) {
    if (peek_symbol("*")) {
      lex_.next();
      return expect(TokKind::kIdent, util::cat("expected location in ", what))
          .text;
    }
    if (peek_symbol("[")) {
      lex_.next();
      const std::string v =
          expect(TokKind::kIdent, util::cat("expected location in ", what))
              .text;
      expect_symbol("]", "expected ']'");
      return v;
    }
    return expect(TokKind::kIdent, util::cat("expected location in ", what))
        .text;
  }

  // value ::= INT | "-" INT | IDENT (register)
  std::string parse_value(const char* what) {
    if (peek_symbol("-")) {
      lex_.next();
      const Tok t = expect(TokKind::kInt, util::cat("expected ", what));
      return "-" + t.text;
    }
    if (lex_.peek().kind == TokKind::kInt) return lex_.next().text;
    const Tok t = expect(TokKind::kIdent, util::cat("expected ", what));
    if (find_var(t.text)) {
      lex_.fail(t.line, util::cat("stored value '", t.text,
                                  "' is a shared variable; load it into a "
                                  "register first"));
    }
    return t.text;
  }

  long parse_int(const char* what) {
    bool neg = false;
    if (peek_symbol("-")) {
      lex_.next();
      neg = true;
    }
    const Tok t = expect(TokKind::kInt, util::cat("expected integer ", what));
    const long v = static_cast<long>(t.value);
    return neg ? -v : v;
  }

  bool peek_symbol(const char* s) const {
    return lex_.peek().kind == TokKind::kSymbol && lex_.peek().text == s;
  }

  Tok expect(TokKind k, const std::string& msg) {
    if (lex_.peek().kind != k) lex_.fail(msg);
    return lex_.next();
  }

  void expect_symbol(const char* s, const std::string& msg) {
    if (!peek_symbol(s)) lex_.fail(msg);
    lex_.next();
  }

  bool find_var(const std::string& name) const {
    return std::any_of(out_.init.begin(), out_.init.end(),
                       [&](const auto& kv) { return kv.first == name; });
  }

  /// Auto-declares an undeclared shared location with initial value 0
  /// (herd allows omitting zero-initialised locations from the init block).
  void touch_var(const std::string& name) {
    if (!find_var(name)) out_.init.emplace_back(name, 0);
  }

  void note_reg(int thread, const std::string& reg, int line) {
    if (find_var(reg)) {
      lex_.fail(line, util::cat("destination '", reg,
                                "' is a shared variable, not a register"));
    }
    regs_.emplace_back(thread, reg);
  }

  bool thread_writes_reg(int thread, const std::string& reg) const {
    return std::any_of(regs_.begin(), regs_.end(), [&](const auto& tr) {
      return tr.first == thread && tr.second == reg;
    });
  }

  // --- Transpilation ---------------------------------------------------------

  /// Herd names ("SB+rel-acq", "2+2W") are not identifiers in the
  /// internal grammar; the transpiled header gets a sanitized alias.
  static std::string sanitize_name(const std::string& name) {
    std::string out;
    for (char c : name) {
      out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
    }
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
      out.insert(out.begin(), 'T');
    }
    return out;
  }

  std::string transpile() const {
    std::ostringstream os;
    os << "litmus " << sanitize_name(out_.name) << "\n";
    for (const auto& [var, v] : out_.init) {
      os << "var " << var << " = " << v << "\n";
    }
    for (std::size_t t = 0; t < out_.threads.size(); ++t) {
      os << "thread " << (t + 1) << " {\n";
      for (const ImportInstr& in : out_.threads[t]) {
        os << "  " << transpile_instr(in) << "\n";
      }
      os << "}\n";
    }
    os << (out_.expected == Expectation::kAllowed ? "exists" : "forbidden")
       << "(" << out_.condition_internal << ")\n";
    return os.str();
  }

  static std::string transpile_instr(const ImportInstr& in) {
    switch (in.op) {
      case ImportInstr::Op::kStore: {
        const char* op = in.mo == ImportMo::kNA    ? " :=NA "
                         : in.mo == ImportMo::kRel ? " :=R "
                         : in.mo == ImportMo::kSC  ? " :=SC "
                                                   : " := ";
        return util::cat(in.var, op, in.value, ";");
      }
      case ImportInstr::Op::kLoad: {
        const char* suffix = in.mo == ImportMo::kNA    ? "@NA"
                             : in.mo == ImportMo::kAcq ? "@A"
                             : in.mo == ImportMo::kSC  ? "@SC"
                                                       : "";
        return util::cat(in.reg, " := ", in.var, suffix, ";");
      }
      case ImportInstr::Op::kExchange: {
        const char* suffix = in.mo == ImportMo::kSC ? "SC;" : ";";
        if (in.reg.empty()) {
          return util::cat(in.var, ".swap(", in.value, ")", suffix);
        }
        return util::cat(in.reg, " := ", in.var, ".swap(", in.value, ")",
                         suffix);
      }
      case ImportInstr::Op::kFence:
        switch (in.mo) {
          case ImportMo::kAcq:
            return "fence_acq;";
          case ImportMo::kRel:
            return "fence_rel;";
          case ImportMo::kAcqRel:
            return "fence_ar;";
          default:
            return "fence_sc;";
        }
    }
    return ";";
  }

  Lexer lex_;
  ImportedTest out_;
  std::vector<std::pair<int, std::string>> regs_;  ///< (thread, register)
  int depth_ = 0;  ///< current condition nesting, bounded by kMaxNesting
};

const char* mo_name(ImportMo mo) {
  switch (mo) {
    case ImportMo::kNA:
      return "";
    case ImportMo::kRlx:
      return "memory_order_relaxed";
    case ImportMo::kAcq:
      return "memory_order_acquire";
    case ImportMo::kRel:
      return "memory_order_release";
    case ImportMo::kAcqRel:
      return "memory_order_acq_rel";
    case ImportMo::kSC:
      return "memory_order_seq_cst";
  }
  return "";
}

std::string export_instr(const ImportInstr& in) {
  switch (in.op) {
    case ImportInstr::Op::kStore:
      if (in.mo == ImportMo::kNA) return util::cat(in.var, " = ", in.value, ";");
      return util::cat("atomic_store_explicit(", in.var, ", ", in.value, ", ",
                       mo_name(in.mo), ");");
    case ImportInstr::Op::kLoad:
      if (in.mo == ImportMo::kNA) return util::cat(in.reg, " = ", in.var, ";");
      return util::cat(in.reg, " = atomic_load_explicit(", in.var, ", ",
                       mo_name(in.mo), ");");
    case ImportInstr::Op::kExchange: {
      const std::string call = util::cat("atomic_exchange_explicit(", in.var,
                                         ", ", in.value, ", ",
                                         mo_name(in.mo), ");");
      return in.reg.empty() ? call : util::cat(in.reg, " = ", call);
    }
    case ImportInstr::Op::kFence:
      return util::cat("atomic_thread_fence(", mo_name(in.mo), ");");
  }
  return ";";
}

}  // namespace

ImportedTest import_litmus(const std::string& text, const std::string& origin) {
  return Importer(text, origin).run();
}

ImportedTest import_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ImportError(util::cat(path, ": cannot open file"));
  std::ostringstream buf;
  buf << in.rdbuf();
  return import_litmus(buf.str(), path);
}

std::vector<ImportedTest> import_path(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(path, ec)) return {import_file(path)};
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(path)) {
    if (entry.is_regular_file() && entry.path().extension() == ".litmus") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    throw ImportError(util::cat(path, ": no .litmus files found"));
  }
  std::vector<ImportedTest> out;
  out.reserve(files.size());
  for (const std::string& f : files) out.push_back(import_file(f));
  return out;
}

std::string export_litmus(const ImportedTest& t) {
  std::ostringstream os;
  os << "C " << t.name << "\n\n{";
  for (std::size_t i = 0; i < t.init.size(); ++i) {
    os << " " << t.init[i].first << " = " << t.init[i].second << ";";
  }
  os << " }\n";
  for (std::size_t i = 0; i < t.threads.size(); ++i) {
    os << "\nP" << i << " {\n";
    for (const ImportInstr& in : t.threads[i]) {
      os << "  " << export_instr(in) << "\n";
    }
    os << "}\n";
  }
  os << "\n" << (t.expected == Expectation::kAllowed ? "exists" : "~exists")
     << " (" << t.condition_herd << ")\n";
  return os.str();
}

Test to_test(const ImportedTest& t) {
  Test test;
  test.name = t.name;
  test.description = "imported .litmus test";
  test.source = t.source;
  test.expected = t.expected;
  test.rationale = util::cat(
      t.expected == Expectation::kAllowed ? "exists " : "~exists ",
      t.condition_herd);
  return test;
}

}  // namespace rc11::litmus
