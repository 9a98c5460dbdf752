#include "spec/parser.h"

#include <cctype>
#include <climits>
#include <map>

#include "algebra/generator.h"
#include "common/strings.h"
#include "params/param_workflow.h"

namespace cdes {
namespace {

enum class TokenKind {
  kIdent,
  kInt,
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kSemi,
  kColon,
  kComma,
  kAt,
  kPlus,
  kPipe,
  kDot,
  kTilde,
  kArrow,
  kLBracket,
  kRBracket,
  kLess,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;
  int column;
};

// "file:line:col: " (or "line:col: " when no file name is known) — the
// prefix every parse error and lint diagnostic starts with.
std::string LocPrefix(std::string_view filename, int line, int column) {
  std::string out;
  if (!filename.empty()) out += StrCat(filename, ":");
  out += StrCat(line, ":", column, ": ");
  return out;
}

class Lexer {
 public:
  Lexer(std::string_view text, std::string_view filename)
      : text_(text), filename_(filename) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipWhitespaceAndComments();
      int line = line_, column = column_;
      if (pos_ >= text_.size()) {
        out.push_back({TokenKind::kEnd, "", line, column});
        return out;
      }
      char c = text_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          Advance();
        }
        out.push_back({TokenKind::kIdent,
                       std::string(text_.substr(start, pos_ - start)), line,
                       column});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          Advance();
        }
        out.push_back({TokenKind::kInt,
                       std::string(text_.substr(start, pos_ - start)), line,
                       column});
        continue;
      }
      if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
        Advance();
        Advance();
        out.push_back({TokenKind::kArrow, "->", line, column});
        continue;
      }
      TokenKind kind;
      switch (c) {
        case '{': kind = TokenKind::kLBrace; break;
        case '}': kind = TokenKind::kRBrace; break;
        case '(': kind = TokenKind::kLParen; break;
        case ')': kind = TokenKind::kRParen; break;
        case ';': kind = TokenKind::kSemi; break;
        case ':': kind = TokenKind::kColon; break;
        case ',': kind = TokenKind::kComma; break;
        case '@': kind = TokenKind::kAt; break;
        case '+': kind = TokenKind::kPlus; break;
        case '|': kind = TokenKind::kPipe; break;
        case '.': kind = TokenKind::kDot; break;
        case '~': kind = TokenKind::kTilde; break;
        case '<': kind = TokenKind::kLess; break;
        case '[': kind = TokenKind::kLBracket; break;
        case ']': kind = TokenKind::kRBracket; break;
        default:
          return Status::InvalidArgument(
              StrCat(LocPrefix(filename_, line, column),
                     "unexpected character '", std::string(1, c), "'"));
      }
      Advance();
      out.push_back({kind, std::string(1, c), line, column});
    }
  }

 private:
  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else {
        return;
      }
    }
  }

  std::string_view text_;
  std::string_view filename_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

class Parser {
 public:
  Parser(WorkflowContext* ctx, std::vector<Token> tokens,
         std::string_view filename)
      : ctx_(ctx), tokens_(std::move(tokens)), filename_(filename) {}

  Result<std::vector<ParsedWorkflow>> ParseAll() {
    std::vector<ParsedWorkflow> out;
    while (!At(TokenKind::kEnd)) {
      if (AtKeyword("template")) {
        CDES_RETURN_IF_ERROR(ParseTemplate());
        continue;
      }
      CDES_ASSIGN_OR_RETURN(ParsedWorkflow w, ParseOne());
      out.push_back(std::move(w));
    }
    return out;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  Token Take() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  Status ErrorAt(const Token& t, std::string message) {
    return Status::InvalidArgument(
        StrCat(LocPrefix(filename_, t.line, t.column), message));
  }

  Status ErrorHere(std::string message) {
    const Token& t = Peek();
    return ErrorAt(t, StrCat(message, t.text.empty()
                                          ? ""
                                          : StrCat(" (got '", t.text, "')")));
  }

  static SourceLocation Loc(const Token& t) {
    return SourceLocation{t.line, t.column};
  }

  Status Expect(TokenKind kind, std::string_view what) {
    if (!At(kind)) return ErrorHere(StrCat("expected ", what));
    Take();
    return Status::OK();
  }

  bool AtKeyword(std::string_view kw) const {
    return At(TokenKind::kIdent) && Peek().text == kw;
  }

  /// Takes the integer token at the cursor as a value in [0, max]: a
  /// literal too large for its field is an error, not a throw or a wrap.
  Result<int64_t> TakeInt(std::string_view what, int64_t max = INT64_MAX) {
    uint64_t value = 0;
    if (!ParseU64(Peek().text, &value) ||
        value > static_cast<uint64_t>(max)) {
      return ErrorHere(StrCat(what, " out of range"));
    }
    Take();
    return static_cast<int64_t>(value);
  }

  /// Guards a '(' about to be taken: recursive descent spends a few stack
  /// frames per level, so nesting is capped far below stack exhaustion.
  Status EnterParen() {
    if (depth_ == kMaxNestingDepth) {
      return ErrorHere(
          StrCat("parentheses nested deeper than ", kMaxNestingDepth));
    }
    ++depth_;
    return Status::OK();
  }

  Result<ParsedWorkflow> ParseOne() {
    if (!AtKeyword("workflow")) {
      return ErrorHere("expected 'workflow'");
    }
    Take();
    if (!At(TokenKind::kIdent)) return ErrorHere("expected workflow name");
    ParsedWorkflow w;
    w.name = Take().text;
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'"));
    while (!At(TokenKind::kRBrace)) {
      if (AtKeyword("agent")) {
        CDES_RETURN_IF_ERROR(ParseAgent(&w));
      } else if (AtKeyword("event")) {
        CDES_RETURN_IF_ERROR(ParseEvent(&w));
      } else if (AtKeyword("dep")) {
        CDES_RETURN_IF_ERROR(ParseDep(&w));
      } else if (AtKeyword("use")) {
        CDES_RETURN_IF_ERROR(ParseUse(&w));
      } else {
        return ErrorHere("expected 'agent', 'event', 'dep', or 'use'");
      }
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "'}'"));
    return w;
  }

  Status ParseAgent(ParsedWorkflow* w) {
    Token kw = Take();  // 'agent'
    if (!At(TokenKind::kIdent)) return ErrorHere("expected agent name");
    AgentDecl agent;
    agent.loc = Loc(kw);
    agent.name = Take().text;
    if (w->FindAgent(agent.name) != nullptr) {
      return ErrorHere(StrCat("duplicate agent '", agent.name, "'"));
    }
    if (At(TokenKind::kAt)) {
      Take();
      if (!AtKeyword("site")) return ErrorHere("expected 'site'");
      Take();
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      if (!At(TokenKind::kInt)) return ErrorHere("expected site number");
      CDES_ASSIGN_OR_RETURN(int64_t site, TakeInt("site number", INT_MAX));
      agent.site = static_cast<int>(site);
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
    w->agents.push_back(std::move(agent));
    return Status::OK();
  }

  Status ParseEvent(ParsedWorkflow* w) {
    Token kw = Take();  // 'event'
    if (!At(TokenKind::kIdent)) return ErrorHere("expected event name");
    EventDecl event;
    event.loc = Loc(kw);
    event.name = Take().text;
    if (w->FindEvent(event.name) != nullptr) {
      return ErrorHere(StrCat("duplicate event '", event.name, "'"));
    }
    event.symbol = ctx_->alphabet()->Intern(event.name);
    if (AtKeyword("agent")) {
      Take();
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      if (!At(TokenKind::kIdent)) return ErrorHere("expected agent name");
      event.agent = Take().text;
      if (w->FindAgent(event.agent) == nullptr) {
        return ErrorHere(StrCat("unknown agent '", event.agent, "'"));
      }
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    if (AtKeyword("attrs")) {
      Take();
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      while (true) {
        if (!At(TokenKind::kIdent)) return ErrorHere("expected attribute");
        std::string attr = Take().text;
        if (attr == "triggerable") {
          event.attrs.triggerable = true;
        } else if (attr == "nonrejectable") {
          event.attrs.rejectable = false;
        } else if (attr == "nondelayable") {
          event.attrs.delayable = false;
        } else {
          return ErrorHere(StrCat("unknown attribute '", attr, "'"));
        }
        if (At(TokenKind::kComma)) {
          Take();
          continue;
        }
        break;
      }
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
    w->events.push_back(std::move(event));
    return Status::OK();
  }

  Status ParseDep(ParsedWorkflow* w) {
    Token kw = Take();  // 'dep'
    if (!At(TokenKind::kIdent)) return ErrorHere("expected dependency name");
    std::string name = Take().text;
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kColon, "':'"));
    // Klein sugar: IDENT -> IDENT and IDENT < IDENT.
    if (At(TokenKind::kIdent) && (Peek(1).kind == TokenKind::kArrow ||
                                  Peek(1).kind == TokenKind::kLess)) {
      CDES_ASSIGN_OR_RETURN(SymbolId lhs, ResolveEvent(w, Take()));
      TokenKind op = Take().kind;
      if (!At(TokenKind::kIdent)) return ErrorHere("expected event name");
      CDES_ASSIGN_OR_RETURN(SymbolId rhs, ResolveEvent(w, Take()));
      const Expr* expr = op == TokenKind::kArrow
                             ? KleinImplies(ctx_->exprs(), lhs, rhs)
                             : KleinPrecedes(ctx_->exprs(), lhs, rhs);
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
      w->spec.Add(std::move(name), expr, Loc(kw));
      return Status::OK();
    }
    CDES_ASSIGN_OR_RETURN(const Expr* expr, ParseExpr(w));
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
    w->spec.Add(std::move(name), expr, Loc(kw));
    return Status::OK();
  }

  // ---------------------------------------------------------- Templates

  Status ParseTemplate() {
    Take();  // 'template'
    if (!At(TokenKind::kIdent)) return ErrorHere("expected template name");
    std::string name = Take().text;
    if (templates_.count(name)) {
      return ErrorHere(StrCat("duplicate template '", name, "'"));
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    std::vector<std::string> params;
    while (true) {
      if (!At(TokenKind::kIdent)) return ErrorHere("expected parameter name");
      params.push_back(Take().text);
      if (At(TokenKind::kComma)) {
        Take();
        continue;
      }
      break;
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'"));
    WorkflowTemplate tmpl(name, params);
    std::set<std::string> declared_events;
    while (!At(TokenKind::kRBrace)) {
      if (AtKeyword("agent")) {
        CDES_RETURN_IF_ERROR(ParseTemplateAgent(&tmpl));
      } else if (AtKeyword("event")) {
        CDES_RETURN_IF_ERROR(ParseTemplateEvent(&tmpl, &declared_events));
      } else if (AtKeyword("dep")) {
        CDES_RETURN_IF_ERROR(ParseTemplateDep(&tmpl, declared_events));
      } else {
        return ErrorHere("expected 'agent', 'event', or 'dep'");
      }
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "'}'"));
    templates_.emplace(name, std::move(tmpl));
    return Status::OK();
  }

  Status ParseTemplateAgent(WorkflowTemplate* tmpl) {
    Take();  // 'agent'
    if (!At(TokenKind::kIdent)) return ErrorHere("expected agent name");
    std::string name = Take().text;
    int64_t site = 0;
    if (At(TokenKind::kAt)) {
      Take();
      if (!AtKeyword("site")) return ErrorHere("expected 'site'");
      Take();
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      if (!At(TokenKind::kInt)) return ErrorHere("expected site number");
      CDES_ASSIGN_OR_RETURN(site, TakeInt("site number", INT_MAX));
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
    tmpl->AddAgent(name, static_cast<int>(site));
    return Status::OK();
  }

  Result<PAtom> ParseTemplateAtom(bool complemented) {
    if (!At(TokenKind::kIdent)) return ErrorHere("expected event name");
    PAtom atom;
    atom.event = Take().text;
    atom.complemented = complemented;
    if (At(TokenKind::kLBracket)) {
      Take();
      while (true) {
        if (At(TokenKind::kIdent)) {
          atom.args.push_back(PTerm::Var(Take().text));
        } else if (At(TokenKind::kInt)) {
          CDES_ASSIGN_OR_RETURN(ParamValue value, TakeInt("constant"));
          atom.args.push_back(PTerm::Val(value));
        } else {
          return ErrorHere("expected parameter or constant");
        }
        if (At(TokenKind::kComma)) {
          Take();
          continue;
        }
        break;
      }
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
    }
    return atom;
  }

  Status ParseTemplateEvent(WorkflowTemplate* tmpl,
                            std::set<std::string>* declared) {
    Take();  // 'event'
    CDES_ASSIGN_OR_RETURN(PAtom atom, ParseTemplateAtom(false));
    if (!declared->insert(atom.event).second) {
      return ErrorHere(StrCat("duplicate event '", atom.event, "'"));
    }
    std::string agent;
    EventAttributes attrs;
    if (AtKeyword("agent")) {
      Take();
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      if (!At(TokenKind::kIdent)) return ErrorHere("expected agent name");
      agent = Take().text;
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    if (AtKeyword("attrs")) {
      Take();
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      while (true) {
        if (!At(TokenKind::kIdent)) return ErrorHere("expected attribute");
        std::string attr = Take().text;
        if (attr == "triggerable") {
          attrs.triggerable = true;
        } else if (attr == "nonrejectable") {
          attrs.rejectable = false;
        } else if (attr == "nondelayable") {
          attrs.delayable = false;
        } else {
          return ErrorHere(StrCat("unknown attribute '", attr, "'"));
        }
        if (At(TokenKind::kComma)) {
          Take();
          continue;
        }
        break;
      }
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
    return tmpl->AddEvent(std::move(atom), agent, attrs);
  }

  Status ParseTemplateDep(WorkflowTemplate* tmpl,
                          const std::set<std::string>& declared) {
    Take();  // 'dep'
    if (!At(TokenKind::kIdent)) return ErrorHere("expected dependency name");
    std::string name = Take().text;
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kColon, "':'"));
    CDES_ASSIGN_OR_RETURN(PExpr expr, ParseTExpr(declared));
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
    return tmpl->AddDependency(name, std::move(expr));
  }

  Result<PExpr> ParseTExpr(const std::set<std::string>& declared) {
    CDES_ASSIGN_OR_RETURN(PExpr first, ParseTAnd(declared));
    std::vector<PExpr> parts = {std::move(first)};
    while (At(TokenKind::kPlus)) {
      Take();
      CDES_ASSIGN_OR_RETURN(PExpr next, ParseTAnd(declared));
      parts.push_back(std::move(next));
    }
    if (parts.size() == 1) return std::move(parts[0]);
    return PExpr::Or(std::move(parts));
  }

  Result<PExpr> ParseTAnd(const std::set<std::string>& declared) {
    CDES_ASSIGN_OR_RETURN(PExpr first, ParseTSeq(declared));
    std::vector<PExpr> parts = {std::move(first)};
    while (At(TokenKind::kPipe)) {
      Take();
      CDES_ASSIGN_OR_RETURN(PExpr next, ParseTSeq(declared));
      parts.push_back(std::move(next));
    }
    if (parts.size() == 1) return std::move(parts[0]);
    return PExpr::And(std::move(parts));
  }

  Result<PExpr> ParseTSeq(const std::set<std::string>& declared) {
    CDES_ASSIGN_OR_RETURN(PExpr first, ParseTUnary(declared));
    std::vector<PExpr> parts = {std::move(first)};
    while (At(TokenKind::kDot)) {
      Take();
      CDES_ASSIGN_OR_RETURN(PExpr next, ParseTUnary(declared));
      parts.push_back(std::move(next));
    }
    if (parts.size() == 1) return std::move(parts[0]);
    return PExpr::Seq(std::move(parts));
  }

  Result<PExpr> ParseTUnary(const std::set<std::string>& declared) {
    if (At(TokenKind::kTilde)) {
      Take();
      Token name = Peek();
      CDES_ASSIGN_OR_RETURN(PAtom atom, ParseTemplateAtom(true));
      if (!declared.count(atom.event)) {
        return ErrorAt(name, StrCat("event '", atom.event,
                                    "' used before declaration"));
      }
      return PExpr::Atom(std::move(atom));
    }
    if (At(TokenKind::kLParen)) {
      CDES_RETURN_IF_ERROR(EnterParen());
      Take();
      CDES_ASSIGN_OR_RETURN(PExpr inner, ParseTExpr(declared));
      --depth_;
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    if (At(TokenKind::kInt) && Peek().text == "0") {
      Take();
      return PExpr::Zero();
    }
    if (AtKeyword("T")) {
      Take();
      return PExpr::Top();
    }
    if (At(TokenKind::kIdent)) {
      Token name = Peek();
      CDES_ASSIGN_OR_RETURN(PAtom atom, ParseTemplateAtom(false));
      if (!declared.count(atom.event)) {
        return ErrorAt(name, StrCat("event '", atom.event,
                                    "' used before declaration"));
      }
      return PExpr::Atom(std::move(atom));
    }
    return ErrorHere("expected event, '~', '0', 'T', or '('");
  }

  Status ParseUse(ParsedWorkflow* w) {
    Token kw = Take();  // 'use'
    if (!At(TokenKind::kIdent)) return ErrorHere("expected template name");
    std::string name = Take().text;
    auto it = templates_.find(name);
    if (it == templates_.end()) {
      return ErrorHere(StrCat("unknown template '", name, "'"));
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    Binding binding;
    size_t index = 0;
    const std::vector<std::string>& params = it->second.params();
    while (true) {
      if (!At(TokenKind::kInt)) return ErrorHere("expected parameter value");
      if (index >= params.size()) {
        return ErrorHere(StrCat("template '", name, "' takes ",
                                params.size(), " parameter(s)"));
      }
      CDES_ASSIGN_OR_RETURN(ParamValue value, TakeInt("parameter value"));
      binding[params[index++]] = value;
      if (At(TokenKind::kComma)) {
        Take();
        continue;
      }
      break;
    }
    if (index != params.size()) {
      return ErrorHere(StrCat("template '", name, "' takes ", params.size(),
                              " parameter(s)"));
    }
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    CDES_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
    // Instantiated declarations point at the `use` statement: the template
    // body has no stable location once several instantiations coexist.
    size_t agents_before = w->agents.size();
    size_t events_before = w->events.size();
    size_t deps_before = w->spec.dependencies().size();
    CDES_RETURN_IF_ERROR(it->second.InstantiateInto(ctx_, binding, w));
    for (size_t i = agents_before; i < w->agents.size(); ++i) {
      w->agents[i].loc = Loc(kw);
    }
    for (size_t i = events_before; i < w->events.size(); ++i) {
      w->events[i].loc = Loc(kw);
    }
    for (size_t i = deps_before; i < w->spec.dependencies().size(); ++i) {
      w->spec.mutable_dependency(i)->loc = Loc(kw);
    }
    return Status::OK();
  }

  Result<SymbolId> ResolveEvent(ParsedWorkflow* w, const Token& token) {
    const EventDecl* decl = w->FindEvent(token.text);
    if (decl == nullptr) {
      return Status::InvalidArgument(
          StrCat(LocPrefix(filename_, token.line, token.column), "event '",
                 token.text, "' used before declaration"));
    }
    return decl->symbol;
  }

  Result<const Expr*> ParseExpr(ParsedWorkflow* w) {
    CDES_ASSIGN_OR_RETURN(const Expr* first, ParseAnd(w));
    std::vector<const Expr*> parts = {first};
    while (At(TokenKind::kPlus)) {
      Take();
      CDES_ASSIGN_OR_RETURN(const Expr* next, ParseAnd(w));
      parts.push_back(next);
    }
    return ctx_->exprs()->Or(parts);
  }

  Result<const Expr*> ParseAnd(ParsedWorkflow* w) {
    CDES_ASSIGN_OR_RETURN(const Expr* first, ParseSeq(w));
    std::vector<const Expr*> parts = {first};
    while (At(TokenKind::kPipe)) {
      Take();
      CDES_ASSIGN_OR_RETURN(const Expr* next, ParseSeq(w));
      parts.push_back(next);
    }
    return ctx_->exprs()->And(parts);
  }

  Result<const Expr*> ParseSeq(ParsedWorkflow* w) {
    CDES_ASSIGN_OR_RETURN(const Expr* first, ParseUnary(w));
    std::vector<const Expr*> parts = {first};
    while (At(TokenKind::kDot)) {
      Take();
      CDES_ASSIGN_OR_RETURN(const Expr* next, ParseUnary(w));
      parts.push_back(next);
    }
    return ctx_->exprs()->Seq(parts);
  }

  Result<const Expr*> ParseUnary(ParsedWorkflow* w) {
    if (At(TokenKind::kTilde)) {
      Take();
      if (!At(TokenKind::kIdent)) return ErrorHere("expected event after '~'");
      CDES_ASSIGN_OR_RETURN(SymbolId s, ResolveEvent(w, Take()));
      return ctx_->exprs()->Atom(EventLiteral::Complement(s));
    }
    if (At(TokenKind::kLParen)) {
      CDES_RETURN_IF_ERROR(EnterParen());
      Take();
      CDES_ASSIGN_OR_RETURN(const Expr* inner, ParseExpr(w));
      --depth_;
      CDES_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    if (At(TokenKind::kInt) && Peek().text == "0") {
      Take();
      return ctx_->exprs()->Zero();
    }
    if (AtKeyword("T")) {
      Take();
      return ctx_->exprs()->Top();
    }
    if (At(TokenKind::kIdent)) {
      CDES_ASSIGN_OR_RETURN(SymbolId s, ResolveEvent(w, Take()));
      return ctx_->exprs()->Atom(EventLiteral::Positive(s));
    }
    return ErrorHere("expected event, '~', '0', 'T', or '('");
  }

  WorkflowContext* ctx_;
  std::vector<Token> tokens_;
  std::string_view filename_;
  size_t pos_ = 0;
  /// Parentheses open around the cursor (not unwound on error paths: an
  /// error abandons the parse).
  int depth_ = 0;
  std::map<std::string, WorkflowTemplate> templates_;
};

}  // namespace

const EventDecl* ParsedWorkflow::FindEvent(SymbolId symbol) const {
  for (const EventDecl& e : events) {
    if (e.symbol == symbol) return &e;
  }
  return nullptr;
}

const EventDecl* ParsedWorkflow::FindEvent(std::string_view name) const {
  for (const EventDecl& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const AgentDecl* ParsedWorkflow::FindAgent(std::string_view name) const {
  for (const AgentDecl& a : agents) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

Result<std::vector<ParsedWorkflow>> ParseWorkflows(WorkflowContext* ctx,
                                                   std::string_view text,
                                                   std::string_view filename) {
  Lexer lexer(text, filename);
  CDES_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(ctx, std::move(tokens), filename);
  return parser.ParseAll();
}

Result<ParsedWorkflow> ParseWorkflow(WorkflowContext* ctx,
                                     std::string_view text,
                                     std::string_view filename) {
  CDES_ASSIGN_OR_RETURN(std::vector<ParsedWorkflow> all,
                        ParseWorkflows(ctx, text, filename));
  if (all.size() != 1) {
    return Status::InvalidArgument(
        StrCat("expected exactly one workflow, found ", all.size()));
  }
  return std::move(all[0]);
}

std::string FormatWorkflow(const ParsedWorkflow& workflow,
                           const Alphabet& alphabet) {
  std::string out = StrCat("workflow ", workflow.name, " {\n");
  for (const AgentDecl& a : workflow.agents) {
    out += StrCat("  agent ", a.name, " @ site(", a.site, ");\n");
  }
  for (const EventDecl& e : workflow.events) {
    out += StrCat("  event ", e.name);
    if (!e.agent.empty()) out += StrCat(" agent(", e.agent, ")");
    std::vector<std::string> attrs;
    if (e.attrs.triggerable) attrs.push_back("triggerable");
    if (!e.attrs.rejectable) attrs.push_back("nonrejectable");
    if (!e.attrs.delayable) attrs.push_back("nondelayable");
    if (!attrs.empty()) out += StrCat(" attrs(", StrJoin(attrs, ", "), ")");
    out += ";\n";
  }
  for (const Dependency& d : workflow.spec.dependencies()) {
    out += StrCat("  dep ", d.name, ": ", ExprToString(d.expr, alphabet),
                  ";\n");
  }
  out += "}\n";
  return out;
}

}  // namespace cdes
