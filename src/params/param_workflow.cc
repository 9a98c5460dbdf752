#include "params/param_workflow.h"

#include <algorithm>

#include "common/strings.h"

namespace cdes {

Status WorkflowTemplate::AddEvent(PAtom atom, const std::string& agent,
                                  const EventAttributes& attrs) {
  if (atom.complemented) {
    return Status::InvalidArgument("declare the positive event only");
  }
  for (const std::string& v : atom.Vars()) {
    if (std::find(params_.begin(), params_.end(), v) == params_.end()) {
      return Status::InvalidArgument(
          StrCat("event ", atom.event, " uses unknown parameter ", v));
    }
  }
  events_.push_back(EventTemplate{std::move(atom), agent, attrs});
  return Status::OK();
}

Status WorkflowTemplate::AddDependency(const std::string& name, PExpr expr) {
  for (const std::string& v : expr.FreeVars()) {
    if (std::find(params_.begin(), params_.end(), v) == params_.end()) {
      return Status::InvalidArgument(
          StrCat("dependency ", name, " uses unknown parameter ", v));
    }
  }
  dependencies_.emplace_back(name, std::move(expr));
  return Status::OK();
}

Status WorkflowTemplate::InstantiateInto(WorkflowContext* ctx,
                                         const Binding& binding,
                                         ParsedWorkflow* out,
                                         bool per_instance_agents) const {
  for (const std::string& p : params_) {
    if (!binding.count(p)) {
      return Status::InvalidArgument(StrCat("parameter ", p, " is unbound"));
    }
  }
  if (out->name.empty()) out->name = name_;
  std::string suffix;
  for (const std::string& p : params_) {
    suffix += StrCat("[", p, "=", binding.at(p), "]");
  }
  for (const AgentDecl& agent : agents_) {
    AgentDecl instance = agent;
    if (per_instance_agents) instance.name += suffix;
    if (out->FindAgent(instance.name) == nullptr) {
      out->agents.push_back(std::move(instance));
    }
  }
  for (const EventTemplate& event : events_) {
    PAtom ground = event.atom.Substitute(binding);
    CDES_CHECK(ground.IsGround());
    std::string name = ground.GroundName();
    if (out->FindEvent(name) != nullptr) {
      return Status::AlreadyExists(StrCat("instance event ", name,
                                          " already exists"));
    }
    EventDecl decl;
    decl.name = name;
    decl.symbol = ctx->alphabet()->Intern(name);
    decl.agent = per_instance_agents ? event.agent + suffix : event.agent;
    decl.attrs = event.attrs;
    out->events.push_back(std::move(decl));
  }
  for (const auto& [dep_name, expr] : dependencies_) {
    CDES_ASSIGN_OR_RETURN(
        const Expr* ground,
        expr.Substitute(binding).Ground(ctx->alphabet(), ctx->exprs()));
    out->spec.Add(StrCat(dep_name, suffix), ground);
  }
  return Status::OK();
}

Result<ParsedWorkflow> WorkflowTemplate::Instantiate(
    WorkflowContext* ctx, const Binding& binding) const {
  ParsedWorkflow out;
  CDES_RETURN_IF_ERROR(InstantiateInto(ctx, binding, &out));
  return out;
}

WorkflowTemplate TravelTemplate() {
  WorkflowTemplate t("travel", {"cid"});
  t.AddAgent("air", 0);
  t.AddAgent("car", 1);
  PTerm cid = PTerm::Var("cid");
  auto atom = [&](const char* name, bool complemented = false) {
    return PAtom{name, complemented, {cid}};
  };
  EventAttributes triggerable;
  triggerable.triggerable = true;
  CDES_CHECK(t.AddEvent(atom("s_buy"), "air").ok());
  CDES_CHECK(t.AddEvent(atom("c_buy"), "air").ok());
  CDES_CHECK(t.AddEvent(atom("s_book"), "car", triggerable).ok());
  CDES_CHECK(t.AddEvent(atom("c_book"), "car").ok());
  CDES_CHECK(t.AddEvent(atom("s_cancel"), "car", triggerable).ok());

  // (1) ~s_buy[cid] + s_book[cid]
  CDES_CHECK(t.AddDependency(
                  "d1", PExpr::Or({PExpr::Atom(atom("s_buy", true)),
                                   PExpr::Atom(atom("s_book"))}))
                 .ok());
  // (2) ~c_buy[cid] + c_book[cid] . c_buy[cid]
  CDES_CHECK(t.AddDependency(
                  "d2", PExpr::Or({PExpr::Atom(atom("c_buy", true)),
                                   PExpr::Seq({PExpr::Atom(atom("c_book")),
                                               PExpr::Atom(atom("c_buy"))})}))
                 .ok());
  // (3) ~c_book[cid] + c_buy[cid] + s_cancel[cid]
  CDES_CHECK(t.AddDependency(
                  "d3", PExpr::Or({PExpr::Atom(atom("c_book", true)),
                                   PExpr::Atom(atom("c_buy")),
                                   PExpr::Atom(atom("s_cancel"))}))
                 .ok());
  return t;
}

}  // namespace cdes
