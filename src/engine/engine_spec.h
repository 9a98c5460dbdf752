#ifndef CDES_ENGINE_ENGINE_SPEC_H_
#define CDES_ENGINE_ENGINE_SPEC_H_

#include <memory>
#include <optional>
#include <string>

#include "params/param_workflow.h"
#include "spec/ast.h"

namespace cdes::engine {

/// The immutable description of the workflow an Engine runs many instances
/// of: either spec-language text or a parametrized WorkflowTemplate.
///
/// An EngineSpec is validated once (parsed / canonically instantiated in a
/// scratch context) at construction and then shared read-only via
/// `shared_ptr<const EngineSpec>` by every shard. Each shard *materializes*
/// it once into its own thread-confined WorkflowContext and compiles the
/// result once; all workflow instances resident on the shard share that
/// compiled guard table (guards/workflow.h, CompiledWorkflowRef). Instance
/// identity lives in the engine's instance ids — each instance gets its own
/// scheduler world — so event names need no per-instance mangling and the
/// compile really is amortized across thousands of instances.
class EngineSpec {
 public:
  /// A spec in the workflow language (spec/parser.h). Fails if the text
  /// does not parse.
  static Result<std::shared_ptr<const EngineSpec>> FromText(
      std::string spec_text);

  /// A parametrized template, materialized per shard under the canonical
  /// binding (params/param_workflow.h). Fails if the canonical
  /// instantiation does (e.g. a dependency with unbound variables).
  static Result<std::shared_ptr<const EngineSpec>> FromTemplate(
      WorkflowTemplate tpl);

  /// Parses / instantiates the spec into `ctx`. Called once per shard, on
  /// the shard's thread, against the shard's private context.
  Result<ParsedWorkflow> Materialize(WorkflowContext* ctx) const;

  /// The workflow's name (from the spec text or the template).
  const std::string& name() const { return name_; }
  /// Number of sites the workflow's agents span (max declared site + 1, at
  /// least 1), for callers that simulate an instance's network themselves;
  /// engine instance worlds have none.
  size_t site_count() const { return site_count_; }

 private:
  EngineSpec() = default;

  std::string name_;
  size_t site_count_ = 1;
  std::string text_;
  std::optional<WorkflowTemplate> template_;
};

using EngineSpecRef = std::shared_ptr<const EngineSpec>;

}  // namespace cdes::engine

#endif  // CDES_ENGINE_ENGINE_SPEC_H_
