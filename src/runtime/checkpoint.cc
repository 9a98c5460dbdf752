#include "runtime/checkpoint.h"

#include <limits>
#include <utility>

#include "common/strings.h"

namespace cdes {
namespace {

/// Splits an s-expression into tokens: parentheses and whitespace-delimited
/// atoms. Literal names cannot contain spaces or parens (the spec parser
/// forbids them), so no quoting is needed.
std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (c == '(' || c == ')') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
      tokens.push_back(std::string(1, c));
    } else if (c == ' ' || c == '\t') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

Status Malformed(std::string_view what) {
  return Status::InvalidArgument(StrCat("malformed ", what, " s-expression"));
}

Status TooDeep() {
  return Status::InvalidArgument(
      StrCat("s-expression nested deeper than ", kMaxNestingDepth));
}

/// `status` prefixed with the payload line it concerns.
Status AtLine(size_t lineno, const Status& status) {
  return Status::InvalidArgument(
      StrCat("checkpoint payload line ", lineno, ": ", status.message()));
}

// `depth` counts the parentheses open around the token at *pos.
Result<const Expr*> ParseExprTokens(ExprArena* exprs, const Alphabet& alphabet,
                                    const std::vector<std::string>& tokens,
                                    size_t* pos, int depth);

Result<const Guard*> ParseGuardTokens(GuardArena* guards,
                                      const Alphabet& alphabet,
                                      const std::vector<std::string>& tokens,
                                      size_t* pos, int depth) {
  if (*pos >= tokens.size()) return Malformed("guard");
  const std::string& tok = tokens[(*pos)++];
  if (tok == "^GT") return guards->True();
  if (tok == "^GF") return guards->False();
  if (tok != "(") {
    return Status::InvalidArgument(
        StrCat("unexpected guard token '", tok, "'"));
  }
  if (++depth > kMaxNestingDepth) return TooDeep();
  if (*pos >= tokens.size()) return Malformed("guard");
  const std::string& op = tokens[(*pos)++];
  if (op == "box" || op == "neg") {
    if (*pos >= tokens.size()) return Malformed("guard");
    auto literal = alphabet.ParseLiteral(tokens[(*pos)++]);
    if (!literal.ok()) return literal.status();
    if (*pos >= tokens.size() || tokens[(*pos)++] != ")") {
      return Malformed("guard");
    }
    return op == "box" ? guards->Box(literal.value())
                       : guards->Neg(literal.value());
  }
  if (op == "dia") {
    auto expr = ParseExprTokens(guards->exprs(), alphabet, tokens, pos, depth);
    if (!expr.ok()) return expr.status();
    if (*pos >= tokens.size() || tokens[(*pos)++] != ")") {
      return Malformed("guard");
    }
    return guards->Diamond(expr.value());
  }
  if (op == "and" || op == "or") {
    std::vector<const Guard*> children;
    while (*pos < tokens.size() && tokens[*pos] != ")") {
      auto child = ParseGuardTokens(guards, alphabet, tokens, pos, depth);
      if (!child.ok()) return child.status();
      children.push_back(child.value());
    }
    if (*pos >= tokens.size()) return Malformed("guard");
    ++*pos;  // consume ")"
    return op == "and" ? guards->And(children) : guards->Or(children);
  }
  return Status::InvalidArgument(StrCat("unknown guard operator '", op, "'"));
}

Result<const Expr*> ParseExprTokens(ExprArena* exprs, const Alphabet& alphabet,
                                    const std::vector<std::string>& tokens,
                                    size_t* pos, int depth) {
  if (*pos >= tokens.size()) return Malformed("expr");
  const std::string& tok = tokens[(*pos)++];
  if (tok == "^T") return exprs->Top();
  if (tok == "^0") return exprs->Zero();
  if (tok != "(") {
    auto literal = alphabet.ParseLiteral(tok);
    if (!literal.ok()) return literal.status();
    return exprs->Atom(literal.value());
  }
  if (++depth > kMaxNestingDepth) return TooDeep();
  if (*pos >= tokens.size()) return Malformed("expr");
  const std::string& op = tokens[(*pos)++];
  if (op != "seq" && op != "or" && op != "and") {
    return Status::InvalidArgument(StrCat("unknown expr operator '", op, "'"));
  }
  std::vector<const Expr*> children;
  while (*pos < tokens.size() && tokens[*pos] != ")") {
    auto child = ParseExprTokens(exprs, alphabet, tokens, pos, depth);
    if (!child.ok()) return child.status();
    children.push_back(child.value());
  }
  if (*pos >= tokens.size()) return Malformed("expr");
  ++*pos;  // consume ")"
  if (op == "seq") return exprs->Seq(children);
  return op == "or" ? exprs->Or(children) : exprs->And(children);
}

}  // namespace

std::string ExprToSexpr(const Expr* e, const Alphabet& alphabet) {
  switch (e->kind()) {
    case ExprKind::kZero:
      return "^0";
    case ExprKind::kTop:
      return "^T";
    case ExprKind::kAtom:
      return alphabet.LiteralName(e->literal());
    case ExprKind::kSeq:
    case ExprKind::kOr:
    case ExprKind::kAnd: {
      std::string out = e->kind() == ExprKind::kSeq   ? "(seq"
                        : e->kind() == ExprKind::kOr ? "(or"
                                                      : "(and";
      for (const Expr* child : e->children()) {
        out += StrCat(" ", ExprToSexpr(child, alphabet));
      }
      return out + ")";
    }
  }
  CDES_CHECK(false) << "unreachable";
  return {};
}

std::string GuardToSexpr(const Guard* g, const Alphabet& alphabet) {
  switch (g->kind()) {
    case GuardKind::kFalse:
      return "^GF";
    case GuardKind::kTrue:
      return "^GT";
    case GuardKind::kBox:
      return StrCat("(box ", alphabet.LiteralName(g->literal()), ")");
    case GuardKind::kNeg:
      return StrCat("(neg ", alphabet.LiteralName(g->literal()), ")");
    case GuardKind::kDiamond:
      return StrCat("(dia ", ExprToSexpr(g->expr(), alphabet), ")");
    case GuardKind::kAnd:
    case GuardKind::kOr: {
      std::string out = g->kind() == GuardKind::kAnd ? "(and" : "(or";
      for (const Guard* child : g->children()) {
        out += StrCat(" ", GuardToSexpr(child, alphabet));
      }
      return out + ")";
    }
  }
  CDES_CHECK(false) << "unreachable";
  return {};
}

Result<const Guard*> GuardFromSexpr(GuardArena* guards,
                                    const Alphabet& alphabet,
                                    std::string_view text) {
  std::vector<std::string> tokens = Tokenize(text);
  size_t pos = 0;
  auto guard = ParseGuardTokens(guards, alphabet, tokens, &pos, 0);
  if (!guard.ok()) return guard.status();
  if (pos != tokens.size()) {
    return Status::InvalidArgument("trailing tokens after guard");
  }
  return guard;
}

Result<const Expr*> ExprFromSexpr(ExprArena* exprs, const Alphabet& alphabet,
                                  std::string_view text) {
  std::vector<std::string> tokens = Tokenize(text);
  size_t pos = 0;
  auto expr = ParseExprTokens(exprs, alphabet, tokens, &pos, 0);
  if (!expr.ok()) return expr.status();
  if (pos != tokens.size()) {
    return Status::InvalidArgument("trailing tokens after expr");
  }
  return expr;
}

uint64_t AlphabetFingerprint(const Alphabet& alphabet, size_t count) {
  CDES_CHECK_LE(count, alphabet.size());
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  constexpr uint64_t kPrime = 1099511628211ull;
  for (SymbolId id = 0; id < count; ++id) {
    for (char c : alphabet.Name(id)) {
      h = (h ^ static_cast<unsigned char>(c)) * kPrime;
    }
    h *= kPrime;  // NUL frame between names (names cannot contain NUL)
  }
  return h;
}

std::string SerializeCheckpoint(const CheckpointState& state,
                                const Alphabet& alphabet) {
  std::string out =
      StrCat("meta ", state.next_seq, " ", state.clock, " ", alphabet.size(),
             " ", AlphabetFingerprint(alphabet, alphabet.size()));
  out += "\nhist";
  for (EventLiteral lit : state.history) {
    out += lit.complemented() ? StrCat(" ~", lit.symbol())
                              : StrCat(" ", lit.symbol());
  }
  for (const TransportChannelState& c : state.channels) {
    out += StrCat("\nchan ", c.src, " ", c.dst, " ", c.send_next, " ",
                  c.recv_contiguous);
    for (uint64_t seq : c.recv_gapped) out += StrCat(" ", seq);
  }
  for (const ActorCheckpoint& actor : state.actors) {
    out += StrCat("\nactor ", actor.symbol);
    out += StrCat("\npos ", GuardToSexpr(actor.positive, alphabet));
    out += StrCat("\nneg ", GuardToSexpr(actor.negative, alphabet));
  }
  return out;
}

namespace {

/// Pulls the next space-delimited field; false when the line is exhausted.
bool NextField(std::string_view* rest, std::string_view* field) {
  if (rest->empty()) return false;
  size_t sp = rest->find(' ');
  if (sp == std::string_view::npos) {
    *field = *rest;
    *rest = {};
  } else {
    *field = rest->substr(0, sp);
    rest->remove_prefix(sp + 1);
  }
  return true;
}

/// Decodes an id-encoded literal token (`<id>` or `~<id>`) against an
/// alphabet whose first `nsymbols` ids the payload's fingerprint vouched
/// for.
bool ParseIdLiteral(std::string_view token, uint64_t nsymbols,
                    EventLiteral* out) {
  bool complemented = !token.empty() && token.front() == '~';
  if (complemented) token.remove_prefix(1);
  uint64_t id = 0;
  if (!ParseU64(token, &id) || id >= nsymbols) return false;
  *out = EventLiteral(static_cast<SymbolId>(id), complemented);
  return true;
}

}  // namespace

Result<CheckpointState> ParseCheckpoint(GuardArena* guards,
                                        const Alphabet& alphabet,
                                        std::string_view payload) {
  CheckpointState state;
  SplitCursor cursor(payload, '\n');
  std::string_view line;
  // The meta line must come first: the symbol count + fingerprint it
  // carries gate every id decoded below.
  uint64_t nsymbols = 0;
  {
    uint64_t clock = 0, fp = 0;
    std::string_view tag, f1, f2, f3, f4, extra;
    if (!cursor.Next(&line) || !NextField(&line, &tag) || tag != "meta" ||
        !NextField(&line, &f1) || !NextField(&line, &f2) ||
        !NextField(&line, &f3) || !NextField(&line, &f4) ||
        NextField(&line, &extra) || !ParseU64(f1, &state.next_seq) ||
        !ParseU64(f2, &clock) || !ParseU64(f3, &nsymbols) ||
        !ParseU64(f4, &fp)) {
      return Status::InvalidArgument("malformed checkpoint meta line");
    }
    state.clock = clock;
    if (nsymbols > alphabet.size()) {
      return Status::InvalidArgument(
          StrCat("checkpoint was taken over ", nsymbols,
                 " symbols but only ", alphabet.size(), " are interned"));
    }
    if (fp != AlphabetFingerprint(alphabet, nsymbols)) {
      return Status::InvalidArgument(
          "checkpoint alphabet fingerprint mismatch: symbol numbering "
          "differs from the recovering workflow's");
    }
  }
  bool saw_hist = false;
  while (cursor.Next(&line)) {
    std::string_view tag;
    if (!NextField(&line, &tag) || tag.empty()) {
      return Status::InvalidArgument(
          StrCat("empty checkpoint payload line ", cursor.count()));
    }
    if (tag == "meta") {
      return Status::InvalidArgument("duplicate checkpoint meta line");
    } else if (tag == "hist") {
      if (saw_hist) {
        return Status::InvalidArgument("duplicate checkpoint hist line");
      }
      std::string_view field;
      while (NextField(&line, &field)) {
        EventLiteral lit;
        if (!ParseIdLiteral(field, nsymbols, &lit)) {
          return Status::InvalidArgument(
              StrCat("bad checkpoint hist literal '", field, "'"));
        }
        state.history.push_back(lit);
      }
      saw_hist = true;
    } else if (tag == "chan") {
      TransportChannelState c;
      uint64_t src = 0, dst = 0;
      std::string_view f1, f2, f3, f4;
      if (!NextField(&line, &f1) || !NextField(&line, &f2) ||
          !NextField(&line, &f3) || !NextField(&line, &f4) ||
          !ParseU64(f1, &src) || !ParseU64(f2, &dst) ||
          !ParseU64(f3, &c.send_next) || !ParseU64(f4, &c.recv_contiguous) ||
          src > std::numeric_limits<int>::max() ||
          dst > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument("malformed checkpoint chan line");
      }
      c.src = static_cast<int>(src);
      c.dst = static_cast<int>(dst);
      std::string_view field;
      while (NextField(&line, &field)) {
        uint64_t seq = 0;
        if (!ParseU64(field, &seq)) {
          return Status::InvalidArgument("malformed checkpoint chan line");
        }
        c.recv_gapped.push_back(seq);
      }
      state.channels.push_back(std::move(c));
    } else if (tag == "actor") {
      std::string_view f1, extra;
      uint64_t id = 0;
      if (!NextField(&line, &f1) || NextField(&line, &extra) ||
          !ParseU64(f1, &id) || id >= nsymbols) {
        return Status::InvalidArgument("malformed checkpoint actor line");
      }
      ActorCheckpoint actor;
      actor.symbol = static_cast<SymbolId>(id);
      // An actor block is exactly three lines: actor, pos, neg.
      std::string_view pos_line, neg_line;
      if (!cursor.Next(&pos_line) || pos_line.substr(0, 4) != "pos " ||
          !cursor.Next(&neg_line) || neg_line.substr(0, 4) != "neg ") {
        return Status::InvalidArgument(StrCat(
            "incomplete actor block for '", alphabet.Name(actor.symbol),
            "'"));
      }
      auto positive = GuardFromSexpr(guards, alphabet, pos_line.substr(4));
      if (!positive.ok()) return AtLine(cursor.count() - 1, positive.status());
      auto negative = GuardFromSexpr(guards, alphabet, neg_line.substr(4));
      if (!negative.ok()) return AtLine(cursor.count(), negative.status());
      actor.positive = positive.value();
      actor.negative = negative.value();
      state.actors.push_back(actor);
    } else {
      return Status::InvalidArgument(
          StrCat("unknown checkpoint payload tag '", tag, "'"));
    }
  }
  if (!saw_hist) {
    return Status::InvalidArgument("checkpoint payload missing hist line");
  }
  return state;
}

}  // namespace cdes
