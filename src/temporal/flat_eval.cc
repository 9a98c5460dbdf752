#include "temporal/flat_eval.h"

namespace cdes {

FlatProgram FlatProgram::Lower(const Guard* g) {
  FlatProgram p;
  // Iterative postorder with pointer dedup: each interned node gets exactly
  // one op, children precede parents.
  std::unordered_map<const Guard*, uint32_t> index;
  struct Frame {
    const Guard* node;
    size_t next_child = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({g});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (index.count(f.node)) {
      stack.pop_back();
      continue;
    }
    const std::vector<const Guard*>& kids = f.node->children();
    if (f.next_child < kids.size()) {
      const Guard* child = kids[f.next_child++];
      if (!index.count(child)) stack.push_back({child});
      continue;
    }
    FlatOp op;
    op.kind = f.node->kind();
    op.node = f.node;
    if (!kids.empty()) {
      op.first_child = static_cast<uint32_t>(p.children.size());
      op.child_count = static_cast<uint32_t>(kids.size());
      for (const Guard* c : kids) p.children.push_back(index.at(c));
    }
    index.emplace(f.node, static_cast<uint32_t>(p.ops.size()));
    p.ops.push_back(op);
    stack.pop_back();
  }
  return p;
}

bool FlatProgram::EvaluateNow(std::vector<unsigned char>* scratch) const {
  std::vector<unsigned char>& v = *scratch;
  if (v.size() < ops.size()) v.resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const FlatOp& op = ops[i];
    switch (op.kind) {
      case GuardKind::kTrue:
      case GuardKind::kNeg:  // unheard ℓ: ¬ℓ holds at this instant
        v[i] = 1;
        break;
      case GuardKind::kFalse:
      case GuardKind::kBox:      // occurrence not yet known
      case GuardKind::kDiamond:  // guarantee not yet known
        v[i] = 0;
        break;
      case GuardKind::kAnd: {
        unsigned char r = 1;
        for (uint32_t c = 0; c < op.child_count; ++c) {
          r &= v[children[op.first_child + c]];
        }
        v[i] = r;
        break;
      }
      case GuardKind::kOr: {
        unsigned char r = 0;
        for (uint32_t c = 0; c < op.child_count; ++c) {
          r |= v[children[op.first_child + c]];
        }
        v[i] = r;
        break;
      }
    }
  }
  return v[ops.size() - 1] != 0;
}

const FlatProgram& FlatEvaluator::ProgramFor(const Guard* g) {
  auto it = programs_.find(g);
  if (it == programs_.end()) {
    it = programs_
             .emplace(g, std::make_unique<FlatProgram>(FlatProgram::Lower(g)))
             .first;
  }
  return *it->second;
}

bool FlatEvaluator::EvaluateNow(const Guard* g) {
  auto it = now_memo_.find(g);
  if (it != now_memo_.end()) return it->second;
  bool result = ProgramFor(g).EvaluateNow(&scratch_);
  now_memo_.emplace(g, result);
  return result;
}

const Guard* FlatEvaluator::Commit(GuardArena* arena, const Guard* g) {
  auto it = commit_memo_.find(g);
  if (it != commit_memo_.end()) return it->second;
  const FlatProgram& p = ProgramFor(g);
  // Same postorder sweep, with guard values: □→0, ¬→⊤, ◇ kept, +/| rebuilt
  // through the arena (which re-canonicalizes exactly like the recursive
  // CommitNow).
  std::vector<const Guard*>& v = guard_scratch_;
  if (v.size() < p.ops.size()) v.resize(p.ops.size());
  std::vector<const Guard*> kids;
  for (size_t i = 0; i < p.ops.size(); ++i) {
    const FlatOp& op = p.ops[i];
    switch (op.kind) {
      case GuardKind::kFalse:
      case GuardKind::kTrue:
      case GuardKind::kDiamond:
        v[i] = op.node;
        break;
      case GuardKind::kBox:
        v[i] = arena->False();
        break;
      case GuardKind::kNeg:
        v[i] = arena->True();
        break;
      case GuardKind::kAnd:
      case GuardKind::kOr: {
        kids.clear();
        kids.reserve(op.child_count);
        for (uint32_t c = 0; c < op.child_count; ++c) {
          kids.push_back(v[p.children[op.first_child + c]]);
        }
        v[i] = op.kind == GuardKind::kAnd ? arena->And(kids) : arena->Or(kids);
        break;
      }
    }
  }
  const Guard* result = v[p.ops.size() - 1];
  commit_memo_.emplace(g, result);
  return result;
}

}  // namespace cdes
