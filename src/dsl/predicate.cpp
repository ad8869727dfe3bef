#include "dsl/predicate.hpp"

#include <algorithm>
#include <chrono>

#include "dsl/parser.hpp"

namespace stab::dsl {

Result<Predicate> Predicate::compile(const std::string& source,
                                     const PredicateContext& ctx,
                                     EvalMode mode) {
  auto start = std::chrono::steady_clock::now();
  auto ast = parse(source);
  if (!ast.is_ok()) return Result<Predicate>::error(ast.message());
  auto resolved = analyze(*ast.value(), ctx);
  if (!resolved.is_ok()) return Result<Predicate>::error(resolved.message());

  Predicate p;
  p.source_ = source;
  p.mode_ = mode;
  p.resolved_ = std::move(resolved).value();
  p.program_ = Program::compile(p.resolved_);
  p.compile_time_ = std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now() - start);
  return p;
}

int64_t Predicate::eval(const AckSource& acks) const {
  if (!resolved_.root) return kNoSeq;  // empty predicate
  switch (mode_) {
    case EvalMode::kInterpreter:
      return interpret(resolved_, acks);
    case EvalMode::kBytecode:
      return program_.eval_bytecode(acks);
    case EvalMode::kSpecialized:
      return program_.eval_specialized(acks);
  }
  return kNoSeq;
}

bool Predicate::references_node(NodeId node) const {
  const auto& nodes = resolved_.referenced_nodes;
  return std::binary_search(nodes.begin(), nodes.end(), node);
}

bool Predicate::references_type(StabilityTypeId type) const {
  const auto& types = resolved_.referenced_types;
  return std::binary_search(types.begin(), types.end(), type);
}

}  // namespace stab::dsl
