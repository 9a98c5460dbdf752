#ifndef CDES_PARAMS_PARAM_WORKFLOW_H_
#define CDES_PARAMS_PARAM_WORKFLOW_H_

#include <string>
#include <vector>

#include "params/param_expr.h"
#include "spec/ast.h"

namespace cdes {

/// A parametrized workflow template (§5.1, Example 12): dependencies over
/// parametrized events whose variables are the workflow parameters (e.g.
/// cid, the customer id). "Attempting some key event binds the parameters
/// of all events, thus instantiating the workflow afresh"; here the caller
/// instantiates explicitly with a Binding, and each instance is scheduled
/// like any plain workflow.
class WorkflowTemplate {
 public:
  WorkflowTemplate(std::string name, std::vector<std::string> params)
      : name_(std::move(name)), params_(std::move(params)) {}

  void AddAgent(const std::string& agent, int site) {
    agents_.push_back(AgentDecl{agent, site});
  }

  /// Declares a parametrized event. `atom` must be positive and use only
  /// template parameters.
  Status AddEvent(PAtom atom, const std::string& agent,
                  const EventAttributes& attrs = {});

  /// Adds a dependency template; all free variables must be parameters.
  Status AddDependency(const std::string& name, PExpr expr);

  /// Instantiates the template under `binding` (which must assign every
  /// parameter) and appends the resulting ground events and dependencies
  /// to `out` (so several instances — customers — coexist in one workflow
  /// and one scheduler). By default agents are shared across instances
  /// (added once); with `per_instance_agents`, each instance gets its own
  /// copies ("air[cid=7]"), letting callers place instances on distinct
  /// sites.
  Status InstantiateInto(WorkflowContext* ctx, const Binding& binding,
                         ParsedWorkflow* out,
                         bool per_instance_agents = false) const;

  /// Convenience: a fresh ParsedWorkflow holding one instance.
  Result<ParsedWorkflow> Instantiate(WorkflowContext* ctx,
                                     const Binding& binding) const;

  const std::string& name() const { return name_; }
  const std::vector<std::string>& params() const { return params_; }

 private:
  struct EventTemplate {
    PAtom atom;
    std::string agent;
    EventAttributes attrs;
  };

  std::string name_;
  std::vector<std::string> params_;
  std::vector<AgentDecl> agents_;
  std::vector<EventTemplate> events_;
  std::vector<std::pair<std::string, PExpr>> dependencies_;
};

/// Example 12's travel template, parametrized by cid:
///   (1) ~s_buy[cid] + s_book[cid]
///   (2) ~c_buy[cid] + c_book[cid] . c_buy[cid]
///   (3) ~c_book[cid] + c_buy[cid] + s_cancel[cid]
WorkflowTemplate TravelTemplate();

}  // namespace cdes

#endif  // CDES_PARAMS_PARAM_WORKFLOW_H_
