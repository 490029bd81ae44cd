#include "lang/parser.hpp"

#include <cctype>
#include <charconv>
#include <optional>
#include <vector>

#include "util/fmt.hpp"

namespace rc11::lang {

namespace {

enum class TokKind : std::uint8_t {
  kIdent,
  kInt,
  kSymbol,  // punctuation / operators
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  Value value = 0;
  int line = 0;
  int col = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) { advance(); }

  [[nodiscard]] const Token& peek() const { return tok_; }

  Token next() {
    Token t = tok_;
    advance();
    return t;
  }

 private:
  void advance() {
    skip_trivia();
    tok_ = Token{};
    tok_.line = line_;
    tok_.col = col_;
    if (pos_ >= src_.size()) {
      tok_.kind = TokKind::kEnd;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string id;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        id.push_back(take());
      }
      tok_.kind = TokKind::kIdent;
      tok_.text = std::move(id);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = pos_;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        take();
      }
      const char* first = src_.data() + start;
      const char* last = src_.data() + pos_;
      if (std::from_chars(first, last, tok_.value).ec != std::errc()) {
        throw ParseError(util::cat("parse error at line ", tok_.line, ", col ",
                                   tok_.col, ": integer literal ",
                                   std::string(first, last),
                                   " does not fit a 64-bit value"));
      }
      tok_.kind = TokKind::kInt;
      return;
    }
    // Multi-character symbols, longest first.
    static const char* kSymbols[] = {":=SC", ":=NA", ":=R", ":=",  "==",
                                     "!=",   "<=",   ">=",  "&&",  "||",
                                     "@SC",  "@NA",  "@A",  "^SC", "^NA",
                                     "^A"};
    for (const char* s : kSymbols) {
      const std::size_t len = std::string(s).size();
      if (src_.compare(pos_, len, s) == 0) {
        tok_.kind = TokKind::kSymbol;
        tok_.text = s;
        for (std::size_t i = 0; i < len; ++i) take();
        return;
      }
    }
    tok_.kind = TokKind::kSymbol;
    tok_.text = std::string(1, take());
  }

  void skip_trivia() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '#' || (c == '/' && pos_ + 1 < src_.size() &&
                       src_[pos_ + 1] == '/')) {
        while (pos_ < src_.size() && src_[pos_] != '\n') take();
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        take();
      } else {
        break;
      }
    }
  }

  char take() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  Token tok_;
};

/// Deepest nesting of the recursive productions (statements, blocks,
/// expressions, conditions) the parser accepts. Each nested statement,
/// block, expression, unary operator or condition counts one level; the
/// deepest program in the test corpus, the litmus catalogue and the
/// benchmark programs reaches 8, and the generator nests at most one
/// `if`. Deeper input is rejected with a ParseError instead of overflowing
/// the stack.
constexpr int kMaxNesting = 256;

class Parser {
 public:
  explicit Parser(const std::string& src) : lex_(src) {}

  ParsedLitmus parse() {
    ParsedLitmus out;
    expect_ident("litmus");
    out.name = expect(TokKind::kIdent).text;
    while (peek_ident("var")) {
      lex_.next();
      const std::string name = expect(TokKind::kIdent).text;
      expect_symbol("=");
      out.program.declare_var(name, expect_int());
    }
    while (peek_ident("thread")) {
      lex_.next();
      const Value declared = expect_int();
      expect_symbol("{");
      std::vector<ComPtr> body;
      while (!peek_symbol("}")) body.push_back(parse_stmt(out.program));
      expect_symbol("}");
      const ThreadId t = out.program.add_thread(seq(body));
      if (static_cast<Value>(t) != declared) {
        fail(util::cat("thread declared as ", declared,
                       " but threads must be numbered consecutively from 1 "
                       "(expected ",
                       t, ")"));
      }
    }
    if (peek_ident("exists") || peek_ident("forbidden")) {
      out.mode = lex_.next().text == "exists" ? CondMode::kExists
                                              : CondMode::kForbidden;
      expect_symbol("(");
      out.condition = parse_cond(out.program);
      expect_symbol(")");
    } else {
      out.condition = cond_true();
    }
    if (lex_.peek().kind != TokKind::kEnd) fail("trailing input");
    return out;
  }

 private:
  /// One level of nesting for the lifetime of a recursive production.
  class Nesting {
   public:
    explicit Nesting(Parser& parser) : parser_(parser) {
      if (parser_.depth_ == kMaxNesting) {
        parser_.fail(
            util::cat("input nested deeper than ", kMaxNesting, " levels"));
      }
      ++parser_.depth_;
    }
    ~Nesting() { --parser_.depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    Parser& parser_;
  };

  // --- Statements ------------------------------------------------------------

  ComPtr parse_stmt(Program& p) {
    const Nesting nest(*this);
    if (lex_.peek().kind == TokKind::kInt) {
      const Value label = expect_int();
      expect_symbol(":");
      return labeled(static_cast<int>(label), parse_stmt(p));
    }
    if (peek_ident("skip")) {
      lex_.next();
      expect_symbol(";");
      return skip();
    }
    if (peek_ident("if")) {
      lex_.next();
      expect_symbol("(");
      ExprPtr guard = parse_expr(p);
      expect_symbol(")");
      ComPtr then_branch = parse_block(p);
      ComPtr else_branch = skip();
      if (peek_ident("else")) {
        lex_.next();
        else_branch = parse_block(p);
      }
      return if_then_else(std::move(guard), std::move(then_branch),
                          std::move(else_branch));
    }
    if (peek_ident("while")) {
      lex_.next();
      expect_symbol("(");
      ExprPtr guard = parse_expr(p);
      expect_symbol(")");
      return while_do(std::move(guard), parse_block(p));
    }
    if (auto mode = peek_fence_mode()) {
      lex_.next();
      expect_symbol(";");
      return fence(*mode);
    }
    // Assignment or swap: starts with an identifier.
    const std::string target = expect(TokKind::kIdent).text;
    if (peek_symbol(".")) {
      // x.swap(e);  (optional RA/SC mode suffix after the close paren)
      lex_.next();
      expect_ident("swap");
      expect_symbol("(");
      ExprPtr val = parse_expr(p);
      expect_symbol(")");
      const bool sc_swap = parse_swap_suffix();
      expect_symbol(";");
      if (!p.vars().contains(target)) {
        fail(util::cat("swap target '", target, "' is not a shared variable"));
      }
      const VarId x = p.vars().lookup(target);
      return sc_swap ? swap_sc(x, std::move(val)) : swap(x, std::move(val));
    }
    const bool release = peek_symbol(":=R");
    const bool nonatomic = peek_symbol(":=NA");
    const bool sc = peek_symbol(":=SC");
    if (!release && !nonatomic && !sc && !peek_symbol(":=")) {
      fail("expected :=, :=R, :=NA or :=SC");
    }
    lex_.next();

    // Capturing swap: r := x.swap(e);
    if (lex_.peek().kind == TokKind::kIdent) {
      // Look ahead: IDENT "." swap — requires a two-token peek; parse the
      // identifier and dispatch on the next symbol.
      const Token save = lex_.peek();
      const std::string rhs_ident = save.text;
      if (p.vars().contains(rhs_ident) || !release) {
        // Could still be a plain expression starting with an identifier;
        // handle the swap form specially.
        Lexer probe = lex_;
        probe.next();  // consume IDENT
        if (probe.peek().kind == TokKind::kSymbol && probe.peek().text == ".") {
          lex_.next();  // IDENT
          lex_.next();  // '.'
          expect_ident("swap");
          expect_symbol("(");
          ExprPtr val = parse_expr(p);
          expect_symbol(")");
          const bool sc_swap = parse_swap_suffix();
          expect_symbol(";");
          if (!p.vars().contains(rhs_ident)) {
            fail(util::cat("swap target '", rhs_ident,
                           "' is not a shared variable"));
          }
          if (p.vars().contains(target)) {
            fail("swap result must be captured into a register");
          }
          const RegId r = p.declare_reg(target);
          const VarId x = p.vars().lookup(rhs_ident);
          return sc_swap ? swap_sc_into(r, x, std::move(val))
                         : swap_into(r, x, std::move(val));
        }
      }
    }

    ExprPtr rhs = parse_expr(p);
    expect_symbol(";");
    if (p.vars().contains(target)) {
      const VarId x = p.vars().lookup(target);
      if (sc) return assign_sc(x, std::move(rhs));
      if (nonatomic) return assign_na(x, std::move(rhs));
      return release ? assign_rel(x, std::move(rhs))
                     : assign(x, std::move(rhs));
    }
    if (release || nonatomic || sc) {
      fail("access annotation on a register assignment");
    }
    return reg_assign(p.declare_reg(target), std::move(rhs));
  }

  ComPtr parse_block(Program& p) {
    const Nesting nest(*this);
    expect_symbol("{");
    std::vector<ComPtr> body;
    while (!peek_symbol("}")) body.push_back(parse_stmt(p));
    expect_symbol("}");
    return seq(body);
  }

  // --- Expressions -----------------------------------------------------------
  // Precedence (low to high): || ; && ; == != < <= > >= ; + - ; * ; unary.

  ExprPtr parse_expr(Program& p) {
    const Nesting nest(*this);
    return parse_or(p);
  }

  ExprPtr parse_or(Program& p) {
    ExprPtr e = parse_and(p);
    while (peek_symbol("||")) {
      lex_.next();
      e = binary(BinOp::kOr, std::move(e), parse_and(p));
    }
    return e;
  }

  ExprPtr parse_and(Program& p) {
    ExprPtr e = parse_cmp(p);
    while (peek_symbol("&&")) {
      lex_.next();
      e = binary(BinOp::kAnd, std::move(e), parse_cmp(p));
    }
    return e;
  }

  std::optional<BinOp> peek_cmp_op() {
    if (lex_.peek().kind != TokKind::kSymbol) return std::nullopt;
    const std::string& s = lex_.peek().text;
    if (s == "==") return BinOp::kEq;
    if (s == "!=") return BinOp::kNe;
    if (s == "<") return BinOp::kLt;
    if (s == "<=") return BinOp::kLe;
    if (s == ">") return BinOp::kGt;
    if (s == ">=") return BinOp::kGe;
    return std::nullopt;
  }

  ExprPtr parse_cmp(Program& p) {
    ExprPtr e = parse_add(p);
    if (auto op = peek_cmp_op()) {
      lex_.next();
      e = binary(*op, std::move(e), parse_add(p));
    }
    return e;
  }

  ExprPtr parse_add(Program& p) {
    ExprPtr e = parse_mul(p);
    while (peek_symbol("+") || peek_symbol("-")) {
      const BinOp op = lex_.next().text == "+" ? BinOp::kAdd : BinOp::kSub;
      e = binary(op, std::move(e), parse_mul(p));
    }
    return e;
  }

  ExprPtr parse_mul(Program& p) {
    ExprPtr e = parse_unary(p);
    while (peek_symbol("*")) {
      lex_.next();
      e = binary(BinOp::kMul, std::move(e), parse_unary(p));
    }
    return e;
  }

  ExprPtr parse_unary(Program& p) {
    const Nesting nest(*this);
    if (peek_symbol("!")) {
      lex_.next();
      return unary(UnOp::kNot, parse_unary(p));
    }
    if (peek_symbol("-")) {
      lex_.next();
      return unary(UnOp::kMinus, parse_unary(p));
    }
    return parse_atom(p);
  }

  ExprPtr parse_atom(Program& p) {
    if (lex_.peek().kind == TokKind::kInt) return constant(lex_.next().value);
    if (peek_symbol("(")) {
      lex_.next();
      ExprPtr e = parse_expr(p);
      expect_symbol(")");
      return e;
    }
    const Token t = expect(TokKind::kIdent);
    const bool acquire = peek_symbol("@A") || peek_symbol("^A");
    const bool nonatomic = peek_symbol("@NA") || peek_symbol("^NA");
    const bool sc = peek_symbol("@SC") || peek_symbol("^SC");
    if (acquire || nonatomic || sc) lex_.next();
    if (p.vars().contains(t.text)) {
      const VarId x = p.vars().lookup(t.text);
      if (sc) return shared_sc(x);
      if (nonatomic) return shared_na(x);
      return acquire ? shared_acq(x) : shared(x);
    }
    if (acquire || nonatomic || sc) {
      fail(util::cat("access annotation on register '", t.text, "'"));
    }
    return reg(p.declare_reg(t.text));
  }

  // --- Conditions -------------------------------------------------------------

  CondPtr parse_cond(Program& p) {
    const Nesting nest(*this);
    return parse_cond_or(p);
  }

  CondPtr parse_cond_or(Program& p) {
    CondPtr c = parse_cond_and(p);
    while (peek_symbol("||")) {
      lex_.next();
      c = cond_or(std::move(c), parse_cond_and(p));
    }
    return c;
  }

  CondPtr parse_cond_and(Program& p) {
    CondPtr c = parse_cond_atom(p);
    while (peek_symbol("&&")) {
      lex_.next();
      c = cond_and(std::move(c), parse_cond_atom(p));
    }
    return c;
  }

  CondPtr parse_cond_atom(Program& p) {
    const Nesting nest(*this);
    if (peek_symbol("!")) {
      lex_.next();
      return cond_not(parse_cond_atom(p));
    }
    if (peek_symbol("(")) {
      lex_.next();
      CondPtr c = parse_cond(p);
      expect_symbol(")");
      return c;
    }
    if (lex_.peek().kind == TokKind::kInt) {
      // T:reg OP value
      const Value t = expect_int();
      expect_symbol(":");
      const std::string rname = expect(TokKind::kIdent).text;
      const BinOp op = expect_cmp_op();
      const Value v = expect_signed_int();
      const auto r = p.find_reg(rname);
      if (!r) fail(util::cat("unknown register '", rname, "' in condition"));
      return cond_reg(static_cast<ThreadId>(t), *r, op, v);
    }
    // var OP value
    const std::string vname = expect(TokKind::kIdent).text;
    const BinOp op = expect_cmp_op();
    const Value v = expect_signed_int();
    if (!p.vars().contains(vname)) {
      fail(util::cat("unknown variable '", vname, "' in condition"));
    }
    return cond_var(p.vars().lookup(vname), op, v);
  }

  BinOp expect_cmp_op() {
    if (auto op = peek_cmp_op()) {
      lex_.next();
      return *op;
    }
    fail("expected comparison operator");
  }

  Value expect_signed_int() {
    bool negative = false;
    if (peek_symbol("-")) {
      lex_.next();
      negative = true;
    }
    const Value v = expect_int();
    return negative ? -v : v;
  }

  // --- Fence / swap-mode helpers ---------------------------------------------

  /// Fence statement keyword, if the next token is one.
  [[nodiscard]] std::optional<FenceMode> peek_fence_mode() const {
    if (lex_.peek().kind != TokKind::kIdent) return std::nullopt;
    const std::string& s = lex_.peek().text;
    if (s == "fence_acq") return FenceMode::kAcquire;
    if (s == "fence_rel") return FenceMode::kRelease;
    if (s == "fence_ar") return FenceMode::kAcqRel;
    if (s == "fence_sc") return FenceMode::kSeqCst;
    return std::nullopt;
  }

  /// Optional mode suffix after `x.swap(e)`: `RA` (default) or `SC`.
  /// Returns true for an SC swap.
  bool parse_swap_suffix() {
    if (peek_ident("SC")) {
      lex_.next();
      return true;
    }
    if (peek_ident("RA")) lex_.next();
    return false;
  }

  // --- Token helpers ----------------------------------------------------------

  [[nodiscard]] bool peek_ident(const std::string& s) const {
    return lex_.peek().kind == TokKind::kIdent && lex_.peek().text == s;
  }

  [[nodiscard]] bool peek_symbol(const std::string& s) const {
    return lex_.peek().kind == TokKind::kSymbol && lex_.peek().text == s;
  }

  Token expect(TokKind kind) {
    if (lex_.peek().kind != kind) {
      fail(util::cat("unexpected token '", lex_.peek().text, "'"));
    }
    return lex_.next();
  }

  void expect_ident(const std::string& s) {
    if (!peek_ident(s)) fail(util::cat("expected '", s, "'"));
    lex_.next();
  }

  void expect_symbol(const std::string& s) {
    if (!peek_symbol(s)) {
      fail(util::cat("expected '", s, "', got '", lex_.peek().text, "'"));
    }
    lex_.next();
  }

  Value expect_int() { return expect(TokKind::kInt).value; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(util::cat("parse error at line ", lex_.peek().line,
                               ", col ", lex_.peek().col, ": ", msg));
  }

  Lexer lex_;
  int depth_ = 0;  ///< current nesting, bounded by kMaxNesting
};

}  // namespace

ParsedLitmus parse_litmus(const std::string& source) {
  return Parser(source).parse();
}

}  // namespace rc11::lang
