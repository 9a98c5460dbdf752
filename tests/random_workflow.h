// Seeded random workflows and attempt plans shared by the runtime tests
// (symbolic_cache_test pins a digest over worlds built from them;
// engine_test drives the engine with them). Changing a draw changes every
// corpus built on them.

#ifndef CDES_TESTS_RANDOM_WORKFLOW_H_
#define CDES_TESTS_RANDOM_WORKFLOW_H_

#include <string>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "algebra/generator.h"
#include "common/rng.h"
#include "common/strings.h"
#include "guards/context.h"

namespace cdes {

inline std::vector<const Expr*> RandomDeps(WorkflowContext* ctx, Rng* rng,
                                           size_t symbols, size_t count) {
  RandomExprOptions options;
  options.symbol_count = symbols;
  options.max_depth = 3;
  options.max_arity = 3;
  options.constant_probability = 0.0;
  std::vector<const Expr*> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(GenerateRandomExpr(ctx->exprs(), rng, options));
  }
  return out;
}

// What RandomWorkflowText varies besides the dependencies. The defaults
// give each agent a site of its own and every event the default
// attributes.
struct RandomWorkflowOptions {
  // Agents are spread at random over this many sites; 0 gives each agent
  // its own site.
  size_t sites = 0;
  // Events are made triggerable, nondelayable and nonrejectable at random.
  bool attributes = false;
};

// A random workflow as spec text: one agent per event, by default each on
// its own site, so that with network jitter announcements from different
// senders reach an actor out of stamp order.
inline std::string RandomWorkflowText(
    uint64_t seed, size_t symbols, const RandomWorkflowOptions& options = {}) {
  WorkflowContext gen_ctx;
  for (size_t i = 0; i < symbols; ++i) {
    gen_ctx.alphabet()->Intern(StrCat("e", i));
  }
  Rng rng(seed);
  std::string deps;
  size_t d = 0;
  for (const Expr* expr : RandomDeps(&gen_ctx, &rng, symbols, 2)) {
    StrAppend(&deps, "  dep d", d++, ": ",
              ExprToString(expr, *gen_ctx.alphabet()), ";\n");
  }
  // Sites and attributes are drawn after the dependencies, so the default
  // options leave the text of every seed as it was before they existed.
  std::string text = "workflow rnd {\n";
  for (size_t i = 0; i < symbols; ++i) {
    size_t site = options.sites == 0 ? i : rng.Next() % options.sites;
    StrAppend(&text, "  agent a", i, " @ site(", site, ");\n");
  }
  for (size_t i = 0; i < symbols; ++i) {
    StrAppend(&text, "  event e", i, " agent(a", i, ")");
    std::vector<std::string> attrs;
    if (options.attributes) {
      if (rng.Next() % 3 == 0) attrs.push_back("triggerable");
      if (rng.Next() % 5 == 0) attrs.push_back("nondelayable");
      if (rng.Next() % 5 == 0) attrs.push_back("nonrejectable");
    }
    if (!attrs.empty()) StrAppend(&text, " attrs(", StrJoin(attrs, ", "), ")");
    text += ";\n";
  }
  return text + deps + "}\n";
}

// A random attempt plan: a random subset of the events, each with a
// random polarity.
inline std::vector<std::string> RandomPlan(Rng* rng, size_t symbols) {
  std::vector<std::string> plan;
  for (size_t i = 0; i < symbols; ++i) {
    if (rng->Next() % 3 == 0) continue;
    plan.push_back(StrCat(rng->Next() % 4 == 0 ? "~" : "", "e", i));
  }
  for (size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[rng->Next() % i]);
  }
  return plan;
}

}  // namespace cdes

#endif  // CDES_TESTS_RANDOM_WORKFLOW_H_
