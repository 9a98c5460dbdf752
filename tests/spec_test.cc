#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "algebra/generator.h"
#include "algebra/semantics.h"
#include "common/file.h"
#include "common/rng.h"
#include "common/strings.h"
#include "spec/parser.h"
#include "temporal/guard_semantics.h"

namespace cdes {
namespace {

constexpr char kTravelSpec[] = R"(
# Example 4 / Example 12: trip booking across two enterprises.
workflow travel {
  agent air @ site(0);
  agent car @ site(1);

  event s_buy    agent(air);
  event c_buy    agent(air);
  event s_book   agent(car) attrs(triggerable);
  event c_book   agent(car);
  event s_cancel agent(car) attrs(triggerable);

  dep d1: ~s_buy + s_book;                 # initiate book if buy starts
  dep d2: ~c_buy + c_book . c_buy;         # buy commits after book
  dep d3: ~c_book + c_buy + s_cancel;      # compensate book if buy fails
}
)";

class SpecTest : public ::testing::Test {
 protected:
  WorkflowContext ctx_;
};

TEST_F(SpecTest, ParsesTravelWorkflow) {
  auto r = ParseWorkflow(&ctx_, kTravelSpec);
  ASSERT_TRUE(r.ok()) << r.status();
  const ParsedWorkflow& w = r.value();
  EXPECT_EQ(w.name, "travel");
  ASSERT_EQ(w.agents.size(), 2u);
  EXPECT_EQ(w.agents[0].name, "air");
  EXPECT_EQ(w.agents[0].site, 0);
  EXPECT_EQ(w.agents[1].site, 1);
  ASSERT_EQ(w.events.size(), 5u);
  EXPECT_EQ(w.events[2].name, "s_book");
  EXPECT_TRUE(w.events[2].attrs.triggerable);
  EXPECT_TRUE(w.events[2].attrs.rejectable);
  EXPECT_FALSE(w.events[0].attrs.triggerable);
  ASSERT_EQ(w.spec.dependencies().size(), 3u);
  EXPECT_EQ(w.spec.dependencies()[0].name, "d1");
}

TEST_F(SpecTest, ParsedDependenciesMatchHandBuilt) {
  auto r = ParseWorkflow(&ctx_, kTravelSpec);
  ASSERT_TRUE(r.ok()) << r.status();
  const ParsedWorkflow& w = r.value();
  SymbolId s_buy = w.FindEvent("s_buy")->symbol;
  SymbolId s_book = w.FindEvent("s_book")->symbol;
  // d1 = ~s_buy + s_book is exactly Klein's s_buy → s_book.
  EXPECT_EQ(w.spec.dependencies()[0].expr,
            KleinImplies(ctx_.exprs(), s_buy, s_book));
  SymbolId c_buy = w.FindEvent("c_buy")->symbol;
  SymbolId c_book = w.FindEvent("c_book")->symbol;
  const Expr* d2 = ctx_.exprs()->Or(
      ctx_.exprs()->Atom(EventLiteral::Complement(c_buy)),
      ctx_.exprs()->Seq(ctx_.exprs()->Atom(EventLiteral::Positive(c_book)),
                        ctx_.exprs()->Atom(EventLiteral::Positive(c_buy))));
  EXPECT_EQ(w.spec.dependencies()[1].expr, d2);
}

TEST_F(SpecTest, KleinSugar) {
  auto r = ParseWorkflow(&ctx_, R"(
workflow k {
  event e;
  event f;
  dep imp: e -> f;
  dep prec: e < f;
}
)");
  ASSERT_TRUE(r.ok()) << r.status();
  const ParsedWorkflow& w = r.value();
  SymbolId e = w.FindEvent("e")->symbol;
  SymbolId f = w.FindEvent("f")->symbol;
  EXPECT_EQ(w.spec.dependencies()[0].expr, KleinImplies(ctx_.exprs(), e, f));
  EXPECT_EQ(w.spec.dependencies()[1].expr, KleinPrecedes(ctx_.exprs(), e, f));
}

TEST_F(SpecTest, OperatorPrecedence) {
  auto r = ParseWorkflow(&ctx_, R"(
workflow p {
  event a;
  event b;
  event c;
  dep d: a + b . c | ~a;
}
)");
  ASSERT_TRUE(r.ok()) << r.status();
  const ParsedWorkflow& w = r.value();
  SymbolId a = w.FindEvent("a")->symbol;
  SymbolId b = w.FindEvent("b")->symbol;
  SymbolId c = w.FindEvent("c")->symbol;
  // '+' loosest, '|' middle, '.' tightest: a + ((b.c) | ~a).
  const Expr* expected = ctx_.exprs()->Or(
      ctx_.exprs()->Atom(EventLiteral::Positive(a)),
      ctx_.exprs()->And(
          ctx_.exprs()->Seq(ctx_.exprs()->Atom(EventLiteral::Positive(b)),
                            ctx_.exprs()->Atom(EventLiteral::Positive(c))),
          ctx_.exprs()->Atom(EventLiteral::Complement(a))));
  EXPECT_EQ(w.spec.dependencies()[0].expr, expected);
}

TEST_F(SpecTest, ParenthesesAndConstants) {
  auto r = ParseWorkflow(&ctx_, R"(
workflow q {
  event a;
  event b;
  dep d1: (a + b) . a;
  dep d2: 0 + a;
  dep d3: T | b;
}
)");
  ASSERT_TRUE(r.ok()) << r.status();
  const ParsedWorkflow& w = r.value();
  SymbolId a = w.FindEvent("a")->symbol;
  SymbolId b = w.FindEvent("b")->symbol;
  // (a+b).a: the a.a branch is impossible, so this is b.a.
  EXPECT_TRUE(ExprEquivalent(
      ctx_.residuator()->NormalForm(w.spec.dependencies()[0].expr),
      ctx_.exprs()->Seq(ctx_.exprs()->Atom(EventLiteral::Positive(b)),
                        ctx_.exprs()->Atom(EventLiteral::Positive(a)))));
  EXPECT_EQ(w.spec.dependencies()[1].expr,
            ctx_.exprs()->Atom(EventLiteral::Positive(a)));
  EXPECT_EQ(w.spec.dependencies()[2].expr,
            ctx_.exprs()->Atom(EventLiteral::Positive(b)));
}

TEST_F(SpecTest, MultipleWorkflows) {
  auto r = ParseWorkflows(&ctx_, R"(
workflow one { event a; dep d: a; }
workflow two { event b; dep d: ~b; }
)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].name, "one");
  EXPECT_EQ(r.value()[1].name, "two");
}

TEST_F(SpecTest, ErrorUndeclaredEvent) {
  auto r = ParseWorkflow(&ctx_, "workflow w { dep d: ghost; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ghost"), std::string::npos);
}

TEST_F(SpecTest, ErrorDuplicateEvent) {
  auto r = ParseWorkflow(&ctx_, "workflow w { event a; event a; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate"), std::string::npos);
}

TEST_F(SpecTest, ErrorUnknownAgent) {
  auto r = ParseWorkflow(&ctx_, "workflow w { event a agent(nope); }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown agent"), std::string::npos);
}

TEST_F(SpecTest, ErrorUnknownAttribute) {
  auto r = ParseWorkflow(&ctx_, "workflow w { event a attrs(shiny); }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("shiny"), std::string::npos);
}

TEST_F(SpecTest, ErrorWithLineAndColumn) {
  auto r = ParseWorkflow(&ctx_, "workflow w {\n  dep d ~ x;\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("2:"), std::string::npos);
}

TEST_F(SpecTest, ErrorBadCharacter) {
  auto r = ParseWorkflow(&ctx_, "workflow w { event $a; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unexpected character"),
            std::string::npos);
}

TEST_F(SpecTest, ErrorTruncatedInput) {
  auto r = ParseWorkflow(&ctx_, "workflow w { event a; dep d: a");
  ASSERT_FALSE(r.ok());
}

/// A workflow (or, with `in_template`, a template instantiated by one)
/// whose dependency wraps one event in `depth` pairs of parentheses.
std::string NestedSpec(size_t depth, bool in_template) {
  std::string expr = std::string(depth, '(') + (in_template ? "e[a]" : "e") +
                     std::string(depth, ')');
  if (in_template) {
    return "template t(a) {\n  event e[a];\n  dep d: " + expr +
           ";\n}\nworkflow w { use t(1); }\n";
  }
  return "workflow w {\n  event e;\n  dep d: " + expr + ";\n}\n";
}

TEST_F(SpecTest, DeepNestingIsAnErrorNotACrash) {
  // Untrusted spec text: recursive descent would exhaust the stack long
  // before 100,000 levels; the parser refuses past kMaxNestingDepth with
  // the location of the offending '('.
  for (bool in_template : {false, true}) {
    auto deep = ParseWorkflow(&ctx_, NestedSpec(100000, in_template),
                              "deep.wf");
    ASSERT_FALSE(deep.ok()) << "template " << in_template;
    EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(deep.status().message().find(StrCat(
                  "deep.wf:3:", 10 + kMaxNestingDepth, ": parentheses nested "
                  "deeper than ", kMaxNestingDepth)),
              std::string::npos)
        << deep.status();
    WorkflowContext ctx;
    auto fine = ParseWorkflow(&ctx, NestedSpec(200, in_template));
    ASSERT_TRUE(fine.ok()) << fine.status();
    EXPECT_EQ(ExprToString(fine.value().spec.dependencies()[0].expr,
                           *ctx.alphabet()),
              in_template ? "e[1]" : "e");
  }
}

TEST_F(SpecTest, OutOfRangeIntegersAreErrorsNotCrashes) {
  // Integer literals too large for their field used to throw out of the
  // parser (std::stoi / std::stoll) and terminate the process.
  for (const char* text : {
           "workflow w { agent a @ site(2147483648); }",
           "template t(a) { agent x @ site(99999999999); event e[a]; "
           "dep d: e[a]; }",
           "template t(a) { event e[a]; dep d: e[9223372036854775808]; }",
           "template t(a) { event e[a]; dep d: e[a]; }\n"
           "workflow w { use t(18446744073709551616); }",
       }) {
    auto r = ParseWorkflow(&ctx_, text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
        << r.status();
  }
  auto max_site = ParseWorkflow(
      &ctx_, "workflow w { agent a @ site(2147483647); event e agent(a); }");
  ASSERT_TRUE(max_site.ok()) << max_site.status();
  EXPECT_EQ(max_site.value().agents[0].site, 2147483647);
}

constexpr char kTemplateSpec[] = R"(
# Example 12 in the spec language itself: a cid-parametrized template.
template trip(cid) {
  agent air @ site(0);
  agent car @ site(1);
  event s_buy[cid]    agent(air);
  event c_buy[cid]    agent(air);
  event s_book[cid]   agent(car) attrs(triggerable);
  event c_book[cid]   agent(car);
  event s_cancel[cid] agent(car) attrs(triggerable);
  dep d1: ~s_buy[cid] + s_book[cid];
  dep d2: ~c_buy[cid] + c_book[cid] . c_buy[cid];
  dep d3: ~c_book[cid] + c_buy[cid] + s_cancel[cid];
}

workflow main {
  use trip(7);
  use trip(8);
}
)";

TEST_F(SpecTest, TemplateInstantiation) {
  auto r = ParseWorkflow(&ctx_, kTemplateSpec);
  ASSERT_TRUE(r.ok()) << r.status();
  const ParsedWorkflow& w = r.value();
  EXPECT_EQ(w.events.size(), 10u);
  EXPECT_EQ(w.spec.dependencies().size(), 6u);
  EXPECT_NE(w.FindEvent("s_buy[7]"), nullptr);
  EXPECT_NE(w.FindEvent("s_cancel[8]"), nullptr);
  EXPECT_TRUE(w.FindEvent("s_book[7]")->attrs.triggerable);
  EXPECT_EQ(w.FindEvent("c_buy[8]")->agent, "air");
  ASSERT_EQ(w.agents.size(), 2u);
  EXPECT_EQ(w.agents[1].site, 1);
  // The instantiated d2 matches the hand-built ground expression.
  SymbolId c_buy7 = w.FindEvent("c_buy[7]")->symbol;
  SymbolId c_book7 = w.FindEvent("c_book[7]")->symbol;
  const Expr* d2 = ctx_.exprs()->Or(
      ctx_.exprs()->Atom(EventLiteral::Complement(c_buy7)),
      ctx_.exprs()->Seq(ctx_.exprs()->Atom(EventLiteral::Positive(c_book7)),
                        ctx_.exprs()->Atom(EventLiteral::Positive(c_buy7))));
  EXPECT_EQ(w.spec.dependencies()[1].expr, d2);
}

TEST_F(SpecTest, TemplateErrors) {
  // Unknown template.
  EXPECT_FALSE(ParseWorkflow(&ctx_, "workflow w { use ghost(1); }").ok());
  // Wrong arity.
  auto wrong_arity = ParseWorkflow(&ctx_, R"(
template t(a, b) { event e[a, b]; dep d: e[a, b]; }
workflow w { use t(1); }
)");
  ASSERT_FALSE(wrong_arity.ok());
  EXPECT_NE(wrong_arity.status().message().find("parameter"),
            std::string::npos);
  // Unknown parameter inside the template.
  EXPECT_FALSE(ParseWorkflow(&ctx_, R"(
template t(a) { event e[z]; dep d: e[z]; }
workflow w { use t(1); }
)")
                   .ok());
  // Duplicate instantiation collides on event names.
  EXPECT_FALSE(ParseWorkflow(&ctx_, R"(
template t(a) { event e[a]; dep d: e[a]; }
workflow w { use t(1); use t(1); }
)")
                   .ok());
  // Undeclared event in a template dependency.
  EXPECT_FALSE(ParseWorkflow(&ctx_, R"(
template t(a) { event e[a]; dep d: ghost[a]; }
workflow w { use t(1); }
)")
                   .ok());
}

TEST_F(SpecTest, TemplateInstancesScheduleIndependently) {
  auto r = ParseWorkflow(&ctx_, kTemplateSpec);
  ASSERT_TRUE(r.ok()) << r.status();
  CompiledWorkflow cw = CompileWorkflow(&ctx_, r.value().spec);
  // Guard of c_buy[7] is □c_book[7] — instance-local, exactly as in the
  // non-parametrized travel workflow.
  SymbolId c_buy7 = r.value().FindEvent("c_buy[7]")->symbol;
  SymbolId c_book7 = r.value().FindEvent("c_book[7]")->symbol;
  EXPECT_EQ(cw.GuardFor(EventLiteral::Positive(c_buy7)),
            ctx_.guards()->Box(EventLiteral::Positive(c_book7)));
}

// FormatWorkflow's round trip holds for workflows that instantiate no
// template: a template instance's mangled names (`s_buy[7]`, `d1[cid=7]`)
// are not spec syntax (see parser.h).
TEST_F(SpecTest, FormatRoundTrips) {
  auto r = ParseWorkflow(&ctx_, kTravelSpec);
  ASSERT_TRUE(r.ok()) << r.status();
  std::string formatted = FormatWorkflow(r.value(), *ctx_.alphabet());
  auto r2 = ParseWorkflow(&ctx_, formatted);
  ASSERT_TRUE(r2.ok()) << r2.status() << "\n" << formatted;
  const ParsedWorkflow& a = r.value();
  const ParsedWorkflow& b = r2.value();
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.spec.dependencies().size(), b.spec.dependencies().size());
  for (size_t i = 0; i < a.spec.dependencies().size(); ++i) {
    // Hash-consing makes structural equality pointer equality.
    EXPECT_EQ(a.spec.dependencies()[i].expr, b.spec.dependencies()[i].expr);
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].symbol, b.events[i].symbol);
    EXPECT_EQ(a.events[i].attrs, b.events[i].attrs);
  }
}

// ------------------------------------------------------ mutation fuzzing

/// The shipped specs (read only), in path order: the fuzz corpus.
std::vector<std::string> SpecCorpus() {
  std::vector<std::string> paths;
  for (const char* dir :
       {"examples/specs", "examples/specs/bad", "perfbench/specs"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             StrCat(CDES_SOURCE_DIR, "/", dir))) {
      std::string ext = entry.path().extension().string();
      if (ext == ".wf" || ext == ".spec") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const std::string& path : paths) {
    Result<std::string> text = ReadFile(path);
    CDES_CHECK(text.ok()) << text.status();
    corpus.push_back(std::move(text).value());
  }
  return corpus;
}

bool IsWordByte(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// One random mutation of spec text: a byte flip, a deleted or duplicated
/// token or line, an inserted `(`, `~` or digit run, an integer past 2^63,
/// parentheses around a run of tokens, or deep nesting.
std::string MutateSpec(std::string text, Rng* rng) {
  if (text.empty()) return text;
  size_t at = rng->Uniform(text.size());
  switch (rng->Uniform(7)) {
    case 0: {  // flip one bit, or write a byte the grammar cares about
      static constexpr char kBytes[] = "();:,.+|<>~[]@#=T0 \n\t_-9";
      if (rng->Bernoulli(0.5)) {
        text[at] = static_cast<char>(text[at] ^ (1 << rng->Uniform(8)));
      } else {
        text[at] = kBytes[rng->Uniform(sizeof(kBytes) - 1)];
      }
      break;
    }
    case 1: {  // delete or duplicate the token at `at`
      size_t begin = at, end = at + 1;
      if (IsWordByte(text[at])) {
        while (begin > 0 && IsWordByte(text[begin - 1])) --begin;
        while (end < text.size() && IsWordByte(text[end])) ++end;
      }
      if (rng->Bernoulli(0.5)) {
        text.erase(begin, end - begin);
      } else {
        text.insert(end, StrCat(" ", text.substr(begin, end - begin)));
      }
      break;
    }
    case 2: {  // delete or duplicate the line holding `at`
      size_t begin = text.rfind('\n', at);
      begin = begin == std::string::npos ? 0 : begin + 1;
      size_t end = text.find('\n', at);
      end = end == std::string::npos ? text.size() : end + 1;
      std::string line = text.substr(begin, end - begin);
      if (rng->Bernoulli(0.5)) {
        text.erase(begin, end - begin);
      } else {
        text.insert(end, line);
      }
      break;
    }
    case 3: {  // an inserted `(`, `~` or digit run
      static constexpr const char* kInserts[] = {"(", "~", "~~", "0", "007",
                                                 "123456789"};
      text.insert(at, kInserts[rng->Uniform(std::size(kInserts))]);
      break;
    }
    case 4: {  // an integer past 2^63 in place of a digit run, or inserted
      static constexpr const char* kHuge[] = {
          "9223372036854775808", "18446744073709551615",
          "18446744073709551616", "340282366920938463463374607431768211456"};
      std::string huge = kHuge[rng->Uniform(std::size(kHuge))];
      size_t digit = text.find_first_of("0123456789", at);
      if (digit == std::string::npos) {
        text.insert(at, huge);
        break;
      }
      size_t end = digit;
      while (end < text.size() && std::isdigit(static_cast<unsigned char>(
                                      text[end]))) {
        ++end;
      }
      text.replace(digit, end - digit, huge);
      break;
    }
    case 5: {  // parentheses around a run of tokens in one line's expression
      size_t begin = at == 0 ? std::string::npos : text.rfind('\n', at - 1);
      begin = begin == std::string::npos ? 0 : begin + 1;
      size_t end = text.find('\n', at);
      if (end == std::string::npos) end = text.size();
      // A dependency's expression runs from its ':' to its ';'.
      size_t colon = text.find(':', begin);
      if (colon < end) begin = colon + 1;
      size_t semi = text.find(';', begin);
      if (semi < end) end = semi;
      std::vector<std::pair<size_t, size_t>> tokens;
      for (size_t i = begin; i < end;) {
        if (text[i] == ' ') {
          ++i;
          continue;
        }
        size_t j = i + 1;
        if (IsWordByte(text[i]) || text[i] == '~') {
          while (j < end && IsWordByte(text[j])) ++j;
        }
        tokens.emplace_back(i, j);
        i = j;
      }
      if (tokens.empty()) break;
      size_t first = rng->Uniform(tokens.size());
      size_t last = first + rng->Uniform(tokens.size() - first);
      text.insert(tokens[last].second, ")");
      text.insert(tokens[first].first, "(");
      break;
    }
    default: {  // deep nesting
      size_t depth = 1 + rng->Uniform(rng->Bernoulli(0.5) ? 64 : 20000);
      std::string open;
      for (size_t i = 0; i < depth; ++i) open += rng->Bernoulli(0.8) ? "(" : "~(";
      text.insert(at, open);
      if (rng->Bernoulli(0.5)) {
        text.insert(std::min(text.size(), at + open.size() + 2),
                    std::string(depth, ')'));
      }
      break;
    }
  }
  return text;
}

/// What a workflow declares, in one context: agents and sites, event
/// symbols, agents and attributes, dependency names and (hash-consed)
/// expressions.
std::string Declared(const ParsedWorkflow& w) {
  std::string out;
  for (const AgentDecl& a : w.agents) StrAppend(&out, a.name, "@", a.site, " ");
  for (const EventDecl& e : w.events) {
    StrAppend(&out, e.symbol, ":", e.agent, ":", e.attrs.triggerable,
              e.attrs.rejectable, e.attrs.delayable, " ");
  }
  for (const Dependency& d : w.spec.dependencies()) {
    StrAppend(&out, d.name, "=", reinterpret_cast<uintptr_t>(d.expr), " ");
  }
  return out;
}

/// Parses `text`; an accepted workflow that instantiates no template must
/// format to text that reparses to an equivalent workflow and formats the
/// same (FormatWorkflow's contract). Returns whether `text` was accepted.
bool ParsesAndRoundTrips(const std::string& text) {
  WorkflowContext ctx;
  auto all = ParseWorkflows(&ctx, text);
  if (!all.ok()) return false;
  for (const ParsedWorkflow& w : all.value()) {
    bool instance = std::any_of(
        w.events.begin(), w.events.end(), [](const EventDecl& e) {
          return e.name.find('[') != std::string::npos;
        });
    if (instance) continue;
    std::string formatted = FormatWorkflow(w, *ctx.alphabet());
    auto again = ParseWorkflow(&ctx, formatted);
    EXPECT_TRUE(again.ok()) << again.status() << "\n" << formatted;
    if (!again.ok()) return true;
    EXPECT_EQ(Declared(again.value()), Declared(w)) << formatted;
    EXPECT_EQ(FormatWorkflow(again.value(), *ctx.alphabet()), formatted);
  }
  return true;
}

// The hand-written spec parser against untrusted text: every truncation of
// every shipped spec and thousands of seeded mutants of them either parse
// or return a Status (no crash, no hang; deep nesting and integer overflow
// included), and every accepted workflow keeps FormatWorkflow's round trip.
TEST(SpecFuzzTest, MutatedSpecsParseOrFailCleanly) {
  std::vector<std::string> corpus = SpecCorpus();
  ASSERT_GE(corpus.size(), 10u);
  size_t accepted = 0, rejected = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (size_t cut = 0; cut <= corpus[i].size(); ++cut) {
      ParsesAndRoundTrips(corpus[i].substr(0, cut)) ? ++accepted : ++rejected;
      ASSERT_FALSE(HasFailure()) << "spec " << i << " cut at " << cut;
    }
  }
  Rng rng(20261020);
  for (size_t round = 0; round < 6000; ++round) {
    size_t i = rng.Uniform(corpus.size());
    std::string text = MutateSpec(corpus[i], &rng);
    while (rng.Bernoulli(0.3)) text = MutateSpec(std::move(text), &rng);
    ParsesAndRoundTrips(text) ? ++accepted : ++rejected;
    ASSERT_FALSE(HasFailure()) << "round " << round << " from spec " << i
                               << ":\n" << text;
  }
  // Both verdicts are common, so the properties are not vacuous.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 5000u);
}

TEST_F(SpecTest, ParsedWorkflowCompilesToExpectedGuards) {
  auto r = ParseWorkflow(&ctx_, kTravelSpec);
  ASSERT_TRUE(r.ok()) << r.status();
  const ParsedWorkflow& w = r.value();
  CompiledWorkflow cw = CompileWorkflow(&ctx_, w.spec);
  SymbolId c_buy = w.FindEvent("c_buy")->symbol;
  SymbolId c_book = w.FindEvent("c_book")->symbol;
  // Dependency (2) pins □c_book onto c_buy (see guards_test for the
  // derivation); conjunction with d3's contribution keeps it at least as
  // strong as □c_book.
  const Guard* g = cw.GuardFor(EventLiteral::Positive(c_buy));
  for (const Trace& u : EnumerateMaximalTraces(0)) {
    (void)u;  // silence unused warning pattern when no traces
  }
  // The guard must entail □c_book: wherever it holds, c_book occurred.
  std::set<SymbolId> symbols = GuardSymbols(g);
  symbols.insert(c_book);
  for (const GuardPoint& p : GuardStateSpace(symbols)) {
    if (HoldsAt(p.trace, p.index, g)) {
      bool book_committed = false;
      for (size_t j = 0; j < p.index; ++j) {
        book_committed |= (p.trace[j] == EventLiteral::Positive(c_book));
      }
      EXPECT_TRUE(book_committed);
    }
  }
}

}  // namespace
}  // namespace cdes
