#include "sched/diagnostics.h"

#include "common/strings.h"
#include "temporal/guard_needs.h"
#include "temporal/reduction.h"

namespace cdes {

std::vector<ParkedDiagnosis> DiagnoseParked(WorkflowContext* ctx,
                                            GuardScheduler* scheduler) {
  std::vector<ParkedDiagnosis> out;
  for (SymbolId symbol : scheduler->symbols()) {
    EventActor* actor = scheduler->actor(symbol);
    if (actor == nullptr) continue;
    for (EventLiteral literal : actor->ParkedLiterals()) {
      ParkedDiagnosis diagnosis;
      diagnosis.literal = literal;
      const Guard* reduced = actor->CurrentGuard(literal);
      diagnosis.guard = GuardToString(reduced, *ctx->alphabet());
      std::set<EventLiteral> diamond_needs, box_needs;
      CollectGuardNeeds(reduced, &diamond_needs, &box_needs);
      diamond_needs.insert(box_needs.begin(), box_needs.end());
      diagnosis.waiting_for.assign(diamond_needs.begin(),
                                   diamond_needs.end());
      // Doomed: a needed literal's symbol has already been decided the
      // other way somewhere in the system (the killing announcement may
      // still be in flight), and absorbing that occurrence zeroes the
      // guard.
      for (EventLiteral need : diagnosis.waiting_for) {
        EventActor* need_actor = scheduler->actor(need.symbol());
        if (need_actor == nullptr || !need_actor->decided()) continue;
        if (*need_actor->decided_literal() != need.Complemented()) continue;
        const Guard* after = ReduceGuard(
            ctx->guards(), ctx->residuator(), reduced,
            {AnnouncementKind::kOccurred, need.Complemented()});
        if (after->IsFalse()) {
          diagnosis.doomed = true;
          break;
        }
      }
      if (scheduler->profiler() != nullptr) {
        auto hottest = scheduler->profiler()->HottestFor(
            ctx->alphabet()->LiteralName(literal));
        if (hottest.has_value()) {
          diagnosis.hottest_site =
              StrCat(hottest->dependency, " (", hottest->source, ", ",
                     hottest->evaluations, " evals)");
        }
      }
      if (diagnosis.doomed && scheduler->tracer() != nullptr) {
        scheduler->tracer()->Instant(
            obs::SpanCategory::kLifecycle,
            StrCat("doomed ", ctx->alphabet()->LiteralName(literal)),
            scheduler->sim()->now(), actor->site(), symbol,
            {{"guard", diagnosis.guard}});
      }
      out.push_back(std::move(diagnosis));
    }
  }
  return out;
}

std::string DiagnosisToString(const std::vector<ParkedDiagnosis>& diagnoses,
                              const Alphabet& alphabet) {
  if (diagnoses.empty()) return "no parked attempts\n";
  std::string out;
  for (const ParkedDiagnosis& d : diagnoses) {
    std::vector<std::string> needs;
    for (EventLiteral l : d.waiting_for) {
      needs.push_back(alphabet.LiteralName(l));
    }
    out += StrCat("parked ", alphabet.LiteralName(d.literal), ": guard ",
                  d.guard, "; waiting for {", StrJoin(needs, ", "), "}",
                  d.doomed ? " [doomed]" : "",
                  d.hottest_site.empty()
                      ? ""
                      : StrCat("; hottest guard: ", d.hottest_site),
                  "\n");
  }
  return out;
}

}  // namespace cdes
