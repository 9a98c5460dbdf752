#ifndef CDES_SPEC_PARSER_H_
#define CDES_SPEC_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "guards/context.h"
#include "spec/ast.h"

namespace cdes {

/// Parses the textual workflow specification language.
///
/// Grammar (comments run from '#' to end of line):
///
///   spec      := (workflow | template)*
///   template  := "template" IDENT "(" IDENT {"," IDENT} ")" "{" titem* "}"
///   titem     := "agent" IDENT ["@" "site" "(" INT ")"] ";"
///              | "event" IDENT "[" targ {"," targ} "]"
///                        ["agent" "(" IDENT ")"]
///                        ["attrs" "(" attr {"," attr} ")"] ";"
///              | "dep" IDENT ":" texpr ";"
///   targ      := IDENT | INT                 (parameter or constant)
///   workflow  := "workflow" IDENT "{" item* "}"
///   item      := "agent" IDENT ["@" "site" "(" INT ")"] ";"
///              | "event" IDENT ["agent" "(" IDENT ")"]
///                        ["attrs" "(" attr {"," attr} ")"] ";"
///              | "dep" IDENT ":" dep ";"
///              | "use" IDENT "(" INT {"," INT} ")" ";"   (instantiate a
///                        template — §5.1, Example 12; positional binding)
///   attr      := "triggerable" | "nonrejectable" | "nondelayable"
///   dep       := IDENT "->" IDENT            (Klein e → f:  ~e + f)
///              | IDENT "<" IDENT             (Klein e < f:   ~e + ~f + e.f)
///              | expr
///   expr      := and {"+" and}               ('+' binds loosest)
///   and       := seq {"|" seq}
///   seq       := unary {"." unary}           ('.' binds tightest)
///   unary     := "~" IDENT | IDENT | "0" | "T" | "(" expr ")"
///
/// Template dependency expressions (texpr) follow the same operator grammar
/// with parametrized atoms IDENT "[" targ... "]". Templates must be
/// declared before the workflows that `use` them. Events must be declared
/// before they are used in a dependency; symbols are interned into the
/// context's alphabet.
///
/// Errors are formatted "file:line:col: message" ("line:col: message" when
/// `filename` is empty); declarations and dependencies in the result carry
/// their SourceLocation for analysis diagnostics.
Result<std::vector<ParsedWorkflow>> ParseWorkflows(
    WorkflowContext* ctx, std::string_view text,
    std::string_view filename = "");

/// Convenience: parses text that must contain exactly one workflow.
Result<ParsedWorkflow> ParseWorkflow(WorkflowContext* ctx,
                                     std::string_view text,
                                     std::string_view filename = "");

/// Renders a parsed workflow back into (canonical) spec text. For a
/// workflow that instantiates no template the result reparses to an
/// equivalent workflow, which renders to the same text. A template
/// instance's mangled names (`s_buy[7]`, `d1[cid=7]`) are not spec syntax:
/// its rendering is for reading only.
std::string FormatWorkflow(const ParsedWorkflow& workflow,
                           const Alphabet& alphabet);

}  // namespace cdes

#endif  // CDES_SPEC_PARSER_H_
